"""The benchmark's workloads and the phases they share.

Every workload walks the same path a user of ``ocrom`` walks: config ->
mesh -> full-order model -> offline build -> artifact -> reload -> reduced
queries.  They differ in problem and size, and in which part is set-up and
which part is timed:

* ``ns-graft-online``: set-up builds the reduced model (as ``ocrom offline``
  does), writes, reloads and warms it; the timed part is a closed loop of
  ``rom.solve_reduced`` queries.
* ``stokes-tube`` and ``ns-graft-offline``: set-up ends at a ready
  ``FullOrderModel``; then come the model's first (cold) solve, the offline
  build, the reload, and the same query loop on the reloaded model.

Everything before the query loop is repeated ``REPS`` times on fresh models
and its timings are reported as medians.  The query loop runs once, for
the run's seconds and at least ``MIN_QUERIES`` queries.

All calls go through public functions of ``ocrom``; each layer is timed from
here, around the call into it.  One process, one client, no extra threads.
"""

import gc
import itertools
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ocrom import fem, numerics, rom, study
from ocrom.errors import InvariantViolation, OcromError

import gate
import runrecord
import spans
from speed import QUERY_REFERENCE_S, SpeedReference, query_kernel_seconds

CONFIGS = Path(__file__).resolve().parent / "configs"

REPS = 5  # repetitions of everything before the query loop
MIN_QUERIES = 1000  # p99 then has at least 10 samples beyond it
# Solves per online query.  A shared host stalls single solves now and
# then (another tenant takes the core for milliseconds); the fastest of
# three back-to-back solves of one query is rarely hit, so the tail left is
# the program's, not the host's.
REPEATS = 3

# What a failing solve may raise; anything else ends the run (see run.py).
SOLVE_ERRORS = (OcromError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Workload:
    config: Path
    rom_in_setup: bool  # set-up builds, saves, reloads and warms the reduced model
    heldout: int  # held-out parameters checked against full-order solves
    e_t_rel_tol: float  # largest relative total error allowed on them


# Held-out tolerances sit 7x or more above the largest errors seen over ten
# seeds: 1.5e-4 (ns-graft-online), 1.0e-3 (ns-graft-offline), 5e-14 (stokes).
WORKLOADS = {
    "ns-graft-online": Workload(CONFIGS / "ns-graft-online.ini", True, 2, 1e-3),
    "ns-graft-offline": Workload(CONFIGS / "ns-graft-offline.ini", False, 1, 1e-2),
    "stokes-tube": Workload(CONFIGS / "stokes-tube.ini", False, 3, 1e-6),
}

_ROM_ONLINE = ("rom.solve_reduced", "rom.solve_reduced_coefficients")


def layer_of(span_name):
    """Layer a span's self time is charged to: the ``ocrom`` module, with
    ``rom`` split into its offline and online halves.  ``study.build_model``
    only wraps the ``FullOrderModel`` constructor, so it is charged to
    ``optctrl``."""
    if span_name == "study.build_model":
        return "optctrl"
    head = span_name.split(".")[0]
    if head == "rom":
        return "rom_online" if span_name in _ROM_ONLINE else "rom_offline"
    return head


def _p99(latencies):
    """Median of the 99th percentiles of up to five consecutive blocks of at
    least ``MIN_QUERIES`` queries each (one block when there are fewer), so
    that one disturbed stretch of the loop does not set the tail."""
    blocks = np.array_split(latencies, max(1, min(5, latencies.size // MIN_QUERIES)))
    return float(np.median([np.percentile(b, 99) for b in blocks]))


def _median_time(fn, reps):
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


class Run:
    """One benchmark run of one workload; ``execute`` returns its results."""

    def __init__(self, spec, seed, trace, workdir):
        self.spec = spec
        self.tracer = spans.Tracer(trace)
        self.gate = gate.Gate()
        self.workdir = Path(workdir)
        self.speed = SpeedReference()
        self.solves = []  # (wall s, start, end, Newton iterations) per full-order solve
        self.heldout_errors = []  # E_T_rel at each held-out parameter
        self.op = None  # operation the next spans belong to
        self.estimated = []  # per-layer metrics attributed by probing
        self.queries = np.random.default_rng(seed)
        self.heldout_rng = np.random.default_rng([seed, 1])
        self.probe_rng = np.random.default_rng([seed, 2])

    # -- timing -----------------------------------------------------------

    def _begin(self, sparse=False):
        self.speed.sample(sparse)
        return time.perf_counter(), self.speed.spent

    def _end(self, start, sparse=False):
        """Wall seconds since ``start`` without the sampling inside, and the
        start and end times, from which ``_scaled`` rescales it."""
        t1 = time.perf_counter()
        t0, spent0 = start
        wall = t1 - t0 - (self.speed.spent - spent0)
        self.speed.sample(sparse)
        return wall, t0, t1

    def _scaled(self, interval):
        """An interval's wall seconds at the reference speed."""
        wall, t0, t1 = interval[:3]
        return wall * self.speed.factor(t0, t1)

    # -- phases -----------------------------------------------------------

    def _model(self):
        T, op = self.tracer, self.op
        with T.span("study.load_config", op):
            cfg = study.load_config(self.spec.config)
        # study.build_mesh only dispatches on the config's mesh kind
        with T.span("mesh.generate", op):
            mesh = study.build_mesh(cfg.mesh)
        with T.span("study.build_model", op):
            model = study.build_model(cfg, mesh)
        self._time_solves(model)
        return cfg, model

    def _time_solves(self, model):
        """Time and check every full-order solve made on ``model``, including
        those ``rom.collect_snapshots`` makes.  The model's first solve, the
        cold one, is sampled with the sparse kernel at both ends."""
        solve, calls = model.solve_ocp, itertools.count()

        def timed(mu):
            cold = next(calls) == 0
            start = self._begin(cold)
            try:
                sol = solve(mu)
            except SOLVE_ERRORS as exc:
                self.gate.fail("full-order solve", exc)
                raise
            wall, t0, t1 = self._end(start, cold)
            self.tracer.record("optctrl.solve_ocp", self.op, t0, t1)
            self.solves.append((wall, t0, t1, sol.newton_iterations))
            self.gate.check("full-order solve", gate.full_order_ok(sol))
            return sol

        model.solve_ocp = timed

    def _offline(self, cfg, model, path):
        """Model ready -> artifact written, step by step as ``ocrom offline``
        runs it; returns the reduced model and its interval (see ``_end``)."""
        T, op = self.tracer, self.op
        start = self._begin(sparse=True)
        training = study.training_set_of(cfg, len(model.inlet_tags))
        with T.span("rom.collect_snapshots", op):
            snapshots = rom.collect_snapshots(model, training)
        with T.span("rom.pod_compress", op):
            basis = rom.pod_compress(
                snapshots, rom.inner_products_of(model), cfg.n_max, cfg.eps_tol
            )
        with T.span("rom.build_reduced_spaces", op):
            basis = rom.build_reduced_spaces(model, basis, enrich=cfg.supremizers)
        with T.span("rom.project_operators", op):
            ops = rom.project_operators(model, basis)
        ops.training_parameters = snapshots.parameters
        with T.span("rom.check_pod_invariants", op):
            try:
                rom.check_pod_invariants(model, basis, cfg.eps_tol)
                self.gate.check("POD invariants", (True, ""))
            except InvariantViolation as exc:
                self.gate.fail("POD invariants", exc)
        with T.span("rom.save_artifact", op):
            rom.save_artifact(path, ops)
        return ops, self._end(start, sparse=True)

    def _load(self, built, path):
        """Reload the artifact, check it against what was saved, and make the
        first query, which fills the lazily derived objective terms."""
        T, op = self.tracer, self.op
        with T.span("rom.load_artifact", op):
            ops = rom.load_artifact(path)
        self.gate.check("artifact round trip", gate.artifact_identical(built, ops))
        mid = 0.5 * (ops.domain_lo + ops.domain_hi)
        t0 = time.perf_counter()
        try:
            self.gate.check("warm-up query", gate.query_ok(rom.solve_reduced(ops, mid)))
        except SOLVE_ERRORS as exc:
            self.gate.fail("warm-up query", exc)
        T.record("rom.solve_reduced", op, t0, time.perf_counter())
        return ops

    def _serve(self, ops, deadline):
        """Closed loop, one client: seeded uniform parameters, each solved
        ``REPEATS`` times back to back, the next query after the previous
        one returns.  A query's latency is its fastest solve; the short
        speed kernel is timed just before and just after it.  Stops at the
        deadline once ``MIN_QUERIES`` queries were attempted, whether they
        succeeded or not.  Returns the wall latencies of the successful
        queries, the speed factor at each and their Newton iterations."""
        record, check = self.tracer.record, self.gate.check
        lo, hi = ops.domain_lo, ops.domain_hi
        latencies, kernels, iterations, k, block = [], [], 0, 0, None
        now = time.perf_counter()
        while k < MIN_QUERIES or now < deadline:
            if k % 256 == 0:
                block = self.queries.uniform(lo, hi, size=(256, lo.size))
            mu = block[k % 256]
            k += 1
            before, best = query_kernel_seconds(), float("inf")
            try:
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    sol = rom.solve_reduced(ops, mu)
                    t1 = time.perf_counter()
                    record("rom.solve_reduced", k, t0, t1)
                    best = min(best, t1 - t0)
            except SOLVE_ERRORS as exc:
                self.gate.fail("online query", exc)
                now = time.perf_counter()
                continue
            after = query_kernel_seconds()
            now = time.perf_counter()
            if check("online query", gate.query_ok(sol)):
                latencies.append(best)
                kernels.append(0.5 * (before + after))
                iterations += sol.newton_iterations
        if not latencies:
            raise RuntimeError("no online query succeeded")
        return np.array(latencies), QUERY_REFERENCE_S / np.array(kernels), iterations

    def _heldout(self, model, ops):
        """Reduced against full-order solutions at seeded held-out parameters;
        returns the last full-order solution that succeeded."""
        full = None
        for k in range(self.spec.heldout):
            self.op = f"heldout-{k}"
            mu = self.heldout_rng.uniform(ops.domain_lo, ops.domain_hi)
            try:
                full = model.solve_ocp(mu)  # a failure is counted by the timing wrapper
            except SOLVE_ERRORS:
                continue
            try:
                reduced = rom.solve_reduced(ops, mu)
            except SOLVE_ERRORS as exc:
                self.gate.fail("held-out reduced solve", exc)
                continue
            err = rom.compute_errors(full, reduced, model.operators).e_total_rel
            self.heldout_errors.append(err)
            self.gate.check("held-out E_T_rel", gate.heldout_ok(err, self.spec.e_t_rel_tol))
        if full is None:
            raise RuntimeError("no held-out full-order solve succeeded")
        return full

    def _probe(self, model, ops, full, kkt, rhs):
        """Time layers reached only through another layer by calling their
        public functions on this workload's own inputs.  Values are
        estimates: the inputs match, the call sites do not."""
        T, op = self.tracer, "probe"
        out = {}

        def probe(name, fn, reps=1):
            with T.span("probe." + name, op):
                seconds, result = _median_time(fn, reps)
            return seconds, result

        nonlinear = model.config.equation == "navier-stokes"
        out["fem.build_spaces_s"], spaces = probe(
            "fem.build_spaces", lambda: fem.build_spaces(model.mesh))
        out["fem.assemble_operators_s"], _ = probe(
            "fem.assemble_operators",
            lambda: fem.assemble_operators(spaces, model.config.viscosity))
        kernel = model.kernel
        conv = [probe("fem.convection_matrix", fn, 3)[0] for fn in (
            lambda: kernel.state_matrix(full.v),
            lambda: kernel.first_slot_matrix(full.v),
            lambda: kernel.test_slot_matrix(full.w),
        )]
        out["fem.convection_matrix_ms"] = 1e3 * float(np.mean(conv))
        lin = (full.v, full.w) if nonlinear else None
        t, _ = probe("optctrl.assemble_kkt", lambda: model.assemble_kkt(full.mu, lin), 3)
        out["optctrl.assemble_kkt_ms"] = 1e3 * t
        f = model.free
        x = np.concatenate([full.v_hom[f], full.p, full.u, full.w[f], full.q])
        t, _ = probe("optctrl.kkt_residual",
                     lambda: model.kkt_residual(x, full.mu, nonlinear), 3)
        out["optctrl.kkt_residual_ms"] = 1e3 * t
        out["numerics.factorize_s"], lu = probe(
            "numerics.factorize", lambda: numerics.factorize(kkt))
        t, _ = probe("numerics.lu_solve", lambda: lu.solve(rhs), 5)
        out["numerics.lu_solve_ms"] = 1e3 * t
        out["numerics.kkt_rows"] = kkt.shape[0]
        out["numerics.kkt_nnz"] = kkt.nnz
        # the dense solve alone, and the rest of solve_reduced (lifting to
        # full-order vectors) as the paired difference at the same parameter
        mus = self.probe_rng.uniform(ops.domain_lo, ops.domain_hi,
                                     size=(200, ops.domain_lo.size))
        coeff, lift = [], []
        with T.span("probe.rom.solve_reduced_coefficients", op):
            for mu in mus:
                t0 = time.perf_counter()
                rom.solve_reduced_coefficients(ops, mu)
                t1 = time.perf_counter()
                rom.solve_reduced(ops, mu)
                coeff.append(t1 - t0)
                lift.append(time.perf_counter() - t1 - (t1 - t0))
        out["rom.solve_reduced_coefficients_ms"] = 1e3 * float(np.median(coeff))
        out["rom.lift_ms"] = 1e3 * float(np.median(lift))
        return out

    # -- the run ----------------------------------------------------------

    def execute(self, seconds):
        """Run the workload; returns the end-to-end metrics (timings scaled
        to the reference speed), the same unscaled, the per-layer metrics
        (traced run only), sizes and counts."""
        spec, T = self.spec, self.tracer
        run_start = time.perf_counter()
        setup, first, later, offline = [], [], [], []  # intervals (see _end)

        model = built = ops = None
        for r in range(REPS):
            model = built = ops = None  # earlier repetitions' memory is released
            gc.collect()
            self.op = f"setup-{r}"
            path = self.workdir / f"rom-{r}.bin"
            n0 = len(self.solves)
            start = self._begin(sparse=True)
            with T.span("bench.setup", self.op):
                cfg, model = self._model()
                if spec.rom_in_setup:
                    built, offline_r = self._offline(cfg, model, path)
                    ops = self._load(built, path)
            setup.append(self._end(start, sparse=True))
            if not spec.rom_in_setup:
                # the cold solve a one-shot `ocrom solve` pays, once per model
                self.op = f"first-{r}"
                mid = np.full(len(model.inlet_tags), 0.5 * (cfg.re_min + cfg.re_max))
                with T.span("bench.first_solve", self.op):
                    model.solve_ocp(mid)
                self.op = f"offline-{r}"
                with T.span("bench.offline", self.op):
                    built, offline_r = self._offline(cfg, model, path)
                with T.span("bench.load", self.op):
                    ops = self._load(built, path)
            offline.append(offline_r)
            first.append(self.solves[n0])
            later.extend(self.solves[n0 + 1:])

        self.op = "serve"
        with T.span("bench.serve", self.op):
            wall_lat, lat_factors, reduced_iters = self._serve(
                ops, time.perf_counter() + seconds)
        with T.span("bench.heldout", "heldout"):
            full = self._heldout(model, ops)
        traced_wall = time.perf_counter() - run_start

        # the KKT matrix the solver factorizes: the Newton Jacobian at the
        # last held-out solution for Navier-Stokes
        nonlinear = model.config.equation == "navier-stokes"
        kkt, rhs = model.assemble_kkt(full.mu, (full.v, full.w) if nonlinear else None)
        sizes = runrecord.sizes(model, ops, kkt, path.stat().st_size)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def metrics(scaled):
            lat = wall_lat * lat_factors if scaled else wall_lat

            def median(intervals):
                return float(np.median([self._scaled(x) if scaled else x[0]
                                        for x in intervals]))

            return {
                "setup_s": median(setup),
                "first_solve_s": median(first),
                "fom_solve_p50_s": median(later),
                "offline_s": median(offline),
                # one client in a closed loop: queries per second of query time
                "online_qps": lat.size / float(lat.sum()),
                "online_p50_ms": 1e3 * float(np.median(lat)),
                "online_p99_ms": 1e3 * _p99(lat),
                "peak_rss_mb": rss,
            }

        e2e, e2e_wall = metrics(True), metrics(False)
        counts = {
            "reps": REPS,
            "fom_solves": len(self.solves),
            "fom_later_solves": len(later),
            "online_queries": int(wall_lat.size),
            "speed_samples": len(self.speed.times),
            "online_solves_per_query": REPEATS,
        }
        layer = None
        if T.enabled:
            layer = self._probe(model, ops, full, kkt, rhs)
            self.estimated = sorted(k for k in layer if not k.startswith("numerics.kkt_"))
            self.estimated += ["optctrl.model_build_s", "trace.overhead_est_pct"]
            layer.update(self._span_metrics(traced_wall))
            layer.update({
                "optctrl.solve_calls": len(self.solves),
                "optctrl.newton_iterations": sum(s[3] for s in self.solves),
                "optctrl.solve_ocp_s": sum(s[0] for s in self.solves),
                "optctrl.model_build_s": layer["study.build_model_s"] - REPS * (
                    layer["fem.build_spaces_s"] + layer["fem.assemble_operators_s"]),
                "rom.reduced_newton_iterations": reduced_iters / max(wall_lat.size, 1),
                "rom.reduced_dim": sizes["reduced_dim"],
                "rom.n_ext": sizes["n_ext"],
                "rom.tensor_bytes": sizes["tensor_bytes_computed"],
                # six n_ext^3 contractions per Newton step, 2 flops per term
                "rom.tensor_flops_per_iter":
                    12 * sizes["n_ext"] ** 3 if ops.tensor is not None else 0,
                "rom.artifact_bytes": sizes["artifact_bytes"],
            })
        return e2e, e2e_wall, layer, sizes, counts

    def _span_metrics(self, traced_wall):
        """Per-span totals and per-layer self time of the workload's own
        spans (probes excluded), plus the estimated tracing overhead."""
        total, own = self.tracer.totals()
        out = {f"{name}_s": total.get(name, 0.0) for name in (
            "study.load_config", "mesh.generate", "study.build_model",
            "rom.collect_snapshots", "rom.pod_compress", "rom.build_reduced_spaces",
            "rom.project_operators", "rom.save_artifact", "rom.load_artifact")}
        layers = {}
        for name, seconds in own.items():
            if not name.startswith("probe."):
                layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + seconds
        for layer in ("study", "mesh", "optctrl", "rom_offline", "rom_online", "bench"):
            out[f"self.{layer}_s"] = layers.get(layer, 0.0)
        n = sum(1 for s in self.tracer.spans if not s[3].startswith("probe."))
        out["trace.spans"] = n
        out["trace.overhead_est_pct"] = 100.0 * n * spans.span_cost_seconds() / traced_wall
        return out
