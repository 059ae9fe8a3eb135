import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ocrom import cli, rom
from ocrom.cli import main
from ocrom.errors import ConfigError, IoError, MissingArtifact, OcromError
from ocrom.optctrl import FullOrderModel
from ocrom.study import (
    CSV_HEADER,
    StudyConfig,
    StudyReport,
    build_mesh,
    build_model,
    export,
    graft_geometry,
    load_config,
    run_error_study,
    run_offline,
    run_speedup_study,
    training_set_of,
)
from ocrom.study import test_set_of as make_test_set

CONFIG_TEMPLATE = """\
[mesh]
kind = tube
length = 5.0
radius = 1.0
resolution = 0.55

[problem]
equation = stokes
viscosity = 3.6
v_const = 350.0
alpha = 1e-2
re_min = 40.0
re_max = 80.0

[training]
size = 6
sampling = grid
seed = 0

[test]
size = 3
seed = 7

[rom]
n_max = 2
sweep = 1 2
eps_tol = 1e-4
supremizers = true

[output]
directory = {outdir}
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out"))
    return path


class TestLoadConfig:
    def test_round_trip(self, config_file, tmp_path):
        cfg = load_config(config_file)
        assert cfg.equation == "stokes"
        assert cfg.re_min == 40.0 and cfg.re_max == 80.0
        assert cfg.training_size == 6
        assert cfg.sweep == [1, 2]
        assert cfg.supremizers is True
        assert cfg.output_dir == str(tmp_path / "out")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_config(tmp_path / "nope.ini")

    def test_missing_mesh_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[problem]\nre_min = 1\nre_max = 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_reversed_interval(self, config_file):
        text = config_file.read_text().replace("re_min = 40.0", "re_min = 90.0")
        config_file.write_text(text)
        with pytest.raises(ConfigError):
            load_config(config_file)

    def test_sweep_exceeds_training_size(self, config_file):
        text = config_file.read_text().replace("sweep = 1 2", "sweep = 1 2 9")
        config_file.write_text(text)
        with pytest.raises(ConfigError):
            load_config(config_file)

    def test_non_numeric_value(self, config_file):
        text = config_file.read_text().replace("re_max = 80.0", "re_max = fast")
        config_file.write_text(text)
        with pytest.raises(ConfigError):
            load_config(config_file)

    @pytest.mark.parametrize("old, new", [
        ("re_max = 80.0", "re_max = inf"),
        ("re_min = 40.0", "re_min = nan"),
    ], ids=["re_max-inf", "re_min-nan"])
    def test_non_finite_reynolds_bound(self, config_file, capsys, old, new):
        """A non-finite Reynolds bound is a ConfigError, and the CLI exits 2
        with one stderr line, before any solve."""
        text = config_file.read_text()
        assert old in text
        config_file.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match="must be finite"):
            load_config(config_file)
        assert main(["solve", "--config", str(config_file), "--mu", "60.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("old, new", [
        ("[mesh]", "[mesh]\n# \xff\xfe"),
        ("sweep = 1 2", "sweep = 1 x"),
        ("supremizers = true", "supremizers = ture"),
        ("[test]\nsize = 3", "[test]\nsize = -1"),
        ("n_max = 2", "n_max = 0"),
        ("sweep = 1 2", "sweep = 0 2"),
        ("sampling = grid\nseed = 0", "sampling = random\nseed = -1"),
        ("seed = 7", "seed = -3"),
    ], ids=["not-utf8", "sweep-token", "boolean", "test-size", "n-max", "sweep-value",
            "training-seed", "test-seed"])
    def test_malformed_value(self, config_file, old, new):
        """Every malformed value is a ConfigError, and the CLI exits 2."""
        text = config_file.read_text()
        assert old in text
        config_file.write_bytes(text.replace(old, new).encode("latin-1"))
        with pytest.raises(ConfigError):
            load_config(config_file)
        assert main(["offline", "--config", str(config_file)]) == 2


class TestMeshAndSets:
    def test_build_tube(self, config_file):
        cfg = load_config(config_file)
        mesh = build_mesh(cfg.mesh)
        mesh.validate()
        assert sorted(mesh.inlet_tags()) == [2]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_mesh({"kind": "sphere"})

    def test_graft_geometry_two_branches(self):
        spec = graft_geometry(8.0, 1.0, 0.7, 35.0, 5.0)
        assert len(spec.branches) == 2

    def test_training_and_test_sets(self, config_file):
        cfg = load_config(config_file)
        tr = training_set_of(cfg, 1)
        te = make_test_set(cfg, 1)
        assert len(tr) == 6 and len(te) == 3
        te2 = make_test_set(cfg, 1)
        assert np.array_equal(te.parameters, te2.parameters)

    def test_bad_sampling(self, config_file):
        cfg = load_config(config_file)
        cfg.training_sampling = "sobol"
        with pytest.raises(ConfigError):
            training_set_of(cfg, 1)


@pytest.fixture(scope="module")
def offline_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("study-out")
    path = outdir / "study.ini"
    path.write_text(CONFIG_TEMPLATE.format(outdir=outdir))
    cfg = load_config(path)
    return cfg, run_offline(cfg), path


@pytest.fixture(scope="module")
def study_run(offline_run):
    cfg, offline, path = offline_run
    return cfg, run_error_study(cfg, offline), path


class TestErrorStudy:
    def test_rows_match_sweep(self, study_run):
        cfg, report, _ = study_run
        assert [r["n"] for r in report.rows] == cfg.sweep
        assert len(report.rows_max) == len(report.rows)

    def test_errors_decrease(self, study_run):
        _, report, _ = study_run
        assert report.rows[1]["E_T_rel"] < report.rows[0]["E_T_rel"]
        # the problem depends affinely on the parameter: two modes are exact
        assert report.rows[1]["E_T_rel"] <= 1e-8

    def test_max_at_least_mean(self, study_run):
        _, report, _ = study_run
        for mean_row, max_row in zip(report.rows, report.rows_max):
            for k in CSV_HEADER.split(",")[1:]:
                assert max_row[k] >= mean_row[k] - 1e-300

    def test_artifact_written(self, study_run):
        cfg, _, _ = study_run
        import os

        assert os.path.exists(os.path.join(cfg.output_dir, "rom.bin"))

    def test_csv_export(self, study_run, tmp_path):
        _, report, _ = study_run
        path = tmp_path / "errors.csv"
        export(report, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert int(first[0]) == report.rows[0]["n"]
        assert float(first[7]) == report.rows[0]["E_T_rel"]

    def test_json_round_trip_preserves_csv(self, study_run, tmp_path):
        """JSON export, reload, re-export as CSV: byte-identical output."""
        _, report, _ = study_run
        export(report, "csv", tmp_path / "a.csv")
        export(report, "json", tmp_path / "r.json")
        with open(tmp_path / "r.json") as fh:
            back = StudyReport(**json.load(fh))
        export(back, "csv", tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_sweep_uses_n_max(self, offline_run):
        cfg, offline, _ = offline_run
        report = run_error_study(dataclasses.replace(cfg, sweep=[]), offline)
        assert [row["n"] for row in report.rows] == [offline[2].n_max]

    def test_sweep_slices_one_projection(self, offline_run, monkeypatch):
        """The study takes the offline build it is given: no snapshot is
        collected and no operator projected again."""
        cfg, offline, _ = offline_run
        calls = []
        for name in ("collect_snapshots", "project_operators"):
            monkeypatch.setattr(rom, name, lambda *args, name=name: calls.append(name))
        report = run_error_study(cfg, offline)
        assert calls == [] and [row["n"] for row in report.rows] == cfg.sweep

    def test_determinism(self, tmp_path):
        """Two independent runs of the same config produce identical CSVs."""
        csvs = []
        for k in range(2):
            outdir = tmp_path / f"run{k}"
            path = tmp_path / f"s{k}.ini"
            small = CONFIG_TEMPLATE.format(outdir=outdir).replace(
                "size = 6", "size = 3").replace("sweep = 1 2", "sweep = 1")
            path.write_text(small)
            cfg = load_config(path)
            report = run_error_study(cfg, run_offline(cfg))
            out = tmp_path / f"run{k}.csv"
            export(report, "csv", out)
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]


class TestSpeedupStudy:
    def test_speedup_report(self, study_run):
        cfg, _, _ = study_run
        report = run_speedup_study(cfg, [np.array([55.0]), np.array([72.0])])
        t = report.timing
        assert len(t["full_seconds"]) == 2
        assert t["speedup_mean"] > 1.0
        assert t["objective_speedup_mean"] > 1.0

    def test_empty_parameter_list(self, study_run):
        cfg, _, _ = study_run
        with pytest.raises(ConfigError):
            run_speedup_study(cfg, [])

    def test_missing_artifact(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "empty"))
        cfg = load_config(path)
        with pytest.raises(MissingArtifact):
            run_speedup_study(cfg, [np.array([50.0])])


class TestExportErrors:
    def test_unknown_format(self, study_run, tmp_path):
        _, report, _ = study_run
        with pytest.raises(ConfigError):
            export(report, "xml", tmp_path / "r.xml")

    def test_unwritable_path(self, study_run):
        _, report, _ = study_run
        with pytest.raises(IoError):
            export(report, "csv", "/nonexistent-dir/r.csv")


class TestCli:
    def test_mesh_gen_and_check(self, config_file, tmp_path, capsys):
        mesh_path = tmp_path / "m.mesh"
        assert main(["mesh", "gen", "--config", str(config_file),
                     "--output", str(mesh_path)]) == 0
        assert main(["mesh", "check", str(mesh_path)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("old, new", [
        ("resolution = 0.55", "resolution = -0.5"),
        ("resolution = 0.55", "resolution = nan"),
        ("radius = 1.0", "radius = -1.0"),
        ("length = 5.0", "length = 0"),
    ], ids=["resolution", "nan-resolution", "radius", "zero-length"])
    def test_mesh_gen_bad_geometry(self, config_file, tmp_path, capsys, old, new):
        config_file.write_text(config_file.read_text().replace(old, new))
        assert main(["mesh", "gen", "--config", str(config_file),
                     "--output", str(tmp_path / "m.mesh")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "m.mesh").exists()

    def test_mesh_check_missing(self, tmp_path):
        assert main(["mesh", "check", str(tmp_path / "no.mesh")]) == 4

    @pytest.mark.parametrize("old, new, code", [
        ("1 1.0 0.0 0.0", "1 x 0.0 0.0", 2),  # not a number: parse error
        ("3 0.0 0.0 1.0", "3 0.0 0.0 nan", 2),  # mesh invariant violated
        ("3 1 2 3 1", "3 0 2 1 1", 2),  # face 0 again: duplicate boundary face
    ])
    def test_mesh_check_malformed(self, tmp_path, capsys, old, new, code):
        from test_mesh import SINGLE_TET

        path = tmp_path / "bad.mesh"
        path.write_text(SINGLE_TET.replace(old, new))
        assert main(["mesh", "check", str(path)]) == code
        assert "error" in capsys.readouterr().err

    def test_mesh_check_binary_file(self, tmp_path, capsys):
        path = tmp_path / "bin.mesh"
        path.write_bytes(b"ocrom-mesh 1\n" + bytes(range(128, 256)))
        assert main(["mesh", "check", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_solve_broken_mesh_file(self, tmp_path, capsys):
        from test_mesh import SINGLE_TET

        mesh_path = tmp_path / "bad.mesh"
        mesh_path.write_text(SINGLE_TET.replace("3 0.0 0.0 1.0", "3 0.0 0.0 nan"))
        cfg_path = tmp_path / "s.ini"
        cfg_path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out").replace(
            "kind = tube", f"kind = file\npath = {mesh_path}"))
        assert main(["solve", "--config", str(cfg_path), "--mu", "60.0"]) == 2
        assert str(mesh_path) in capsys.readouterr().err

    def test_online_broken_artifact(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"ocrom-rb 1\n\x01\x02")
        assert main(["online", "--artifact", str(path), "--mu", "50.0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_solve_summary(self, config_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        assert main(["solve", "--config", str(config_file),
                     "--mu", "60.0", "--output", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert printed == saved
        assert printed["mu"] == [60.0]
        assert printed["kkt_residual"] <= 1e-9

    def test_solve_out_of_domain(self, config_file):
        assert main(["solve", "--config", str(config_file),
                     "--mu", "9999.0"]) == 2

    @pytest.mark.parametrize("old, new", [
        ("alpha = 1e-2", "alpha = nan"),
        ("viscosity = 3.6", "viscosity = nan"),
        ("v_const = 350.0", "v_const = inf"),
    ], ids=["alpha-nan", "viscosity-nan", "v_const-inf"])
    def test_solve_non_finite_setting(self, config_file, capsys, old, new):
        """A non-finite physics setting is an input error: exit 2 with one
        stderr line, before any solve."""
        text = config_file.read_text()
        assert old in text
        config_file.write_text(text.replace(old, new))
        assert main(["solve", "--config", str(config_file), "--mu", "60.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_offline_then_online(self, study_run, capsys):
        cfg, _, cfg_path = study_run
        artifact = f"{cfg.output_dir}/rom.bin"
        assert main(["online", "--artifact", artifact, "--mu", "66.0"]) == 0
        assert "J=" in capsys.readouterr().out

    @pytest.mark.parametrize("mu", ["nan", "500"])
    def test_online_out_of_domain(self, study_run, capsys, mu):
        cfg, _, _ = study_run
        assert main(["online", "--artifact", f"{cfg.output_dir}/rom.bin",
                     "--mu", mu]) == 2
        captured = capsys.readouterr()
        assert "J=" not in captured.out and "outside" in captured.err

    def test_online_missing_artifact(self, tmp_path):
        assert main(["online", "--artifact", str(tmp_path / "no.bin"),
                     "--mu", "50.0"]) == 4

    def test_study_errors_csv(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "s.ini"
        small = CONFIG_TEMPLATE.format(outdir=outdir).replace(
            "size = 6", "size = 3").replace("sweep = 1 2", "sweep = 1")
        cfg_path.write_text(small)
        csv_path = tmp_path / "errors.csv"
        assert main(["study", "errors", "--config", str(cfg_path),
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 2

    def test_study_speedup(self, study_run, tmp_path, capsys):
        _, _, cfg_path = study_run
        json_path = tmp_path / "speedup.json"
        assert main(["study", "speedup", "--config", str(cfg_path),
                     "--mu", "50.0", "66.0", "--json", str(json_path)]) == 0
        data = json.loads(json_path.read_text())
        assert data["timing"]["speedup_mean"] > 1.0

    @pytest.mark.parametrize("mu", ["7a", "75,"])
    def test_study_speedup_malformed_mu(self, tmp_path, capsys, mu):
        """A malformed parameter vector is a usage error, before the config
        is read."""
        with pytest.raises(SystemExit) as info:
            main(["study", "speedup", "--config", str(tmp_path / "none.ini"),
                  "--mu", mu])
        assert info.value.code == 2
        assert "--mu" in capsys.readouterr().err

    def test_export_round_trip(self, study_run, tmp_path):
        _, report, _ = study_run
        export(report, "json", tmp_path / "r.json")
        export(report, "csv", tmp_path / "direct.csv")
        assert main(["export", "--json", str(tmp_path / "r.json"),
                     "--csv", str(tmp_path / "cli.csv")]) == 0
        assert (tmp_path / "cli.csv").read_bytes() == \
            (tmp_path / "direct.csv").read_bytes()

    @pytest.mark.parametrize("content", [
        b"[]",
        b'{"rows": [], "unknown": 1}',
        b'{"rows": [{"n": 1, "E_v": 0.1}]}',
        b"\xff\xfe",
    ], ids=["list", "unknown-key", "missing-column", "not-text"])
    def test_export_malformed_report(self, tmp_path, capsys, content):
        report = tmp_path / "r.json"
        report.write_bytes(content)
        assert main(["export", "--json", str(report),
                     "--csv", str(tmp_path / "r.csv")]) == 2
        assert str(report) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_offline_reports_full_order_solves(self, config_file, capsys):
        assert main(["offline", "--config", str(config_file)]) == 0
        assert "6 snapshots from 2 full-order solves" in capsys.readouterr().out

    def test_offline_n_max_above_grid_size(self, tmp_path, capsys, monkeypatch):
        """A two-inlet grid of size 5 has round(5 ** 0.5) ** 2 = 4 points, so
        n_max = 5 fails before any full-order solve."""
        path = tmp_path / "graft.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        .replace("kind = tube", "kind = graft\nhost_length = 3.0\n"
                                 "angle_deg = 60.0\nattach = 2.0")
                        .replace("resolution = 0.55", "resolution = 0.68")
                        .replace("size = 6", "size = 5").replace("n_max = 2", "n_max = 5")
                        .replace("sweep = 1 2", "sweep = 1"))
        solves = []
        monkeypatch.setattr(FullOrderModel, "solve_ocp", lambda model, mu: solves.append(mu))
        assert main(["offline", "--config", str(path)]) == 2
        assert "n_max=5 exceeds training-set size 4" in capsys.readouterr().err
        assert solves == []

    def test_offline_without_supremizers_exits_3(self, tmp_path, capsys):
        """A model without supremizers could answer no query: ``ocrom
        offline`` fails after its build with one line and writes no
        artifact."""
        path = tmp_path / "study.ini"
        path.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out")
                        .replace("supremizers = true", "supremizers = false"))
        assert main(["offline", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: reduced divergence block has rank")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "rom.bin").exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mesh]\nkind = sphere\n[problem]\nre_min = 1\nre_max = 2\n")
        assert main(["offline", "--config", str(path)]) == 2


# the CLI's exit code of every error class: 2 input at fault, 3 solver
# failure, 4 I/O error (OSError included)
EXIT_CODES = {
    **dict.fromkeys(["InputError", "ConfigError", "ParseError", "ParameterOutOfDomain",
                     "UnknownTag", "DimensionMismatch", "DegenerateGeometry",
                     "NonIntersectingBranches"], 2),
    **dict.fromkeys(["NewtonDiverged", "SingularMatrix", "ConvergenceFailure",
                     "AllSnapshotsFailed", "NotSymmetric", "InvariantViolation"], 3),
    **dict.fromkeys(["IoError", "MissingArtifact", "OSError"], 4),
}


def _error_classes(cls=OcromError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", [*_error_classes(), OSError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_of_every_error_class(monkeypatch, capsys, error):
    def handler(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_export", handler)
    assert main(["export", "--json", "r.json", "--csv", "r.csv"]) == \
        EXIT_CODES[error.__name__]
    assert "error: boom" in capsys.readouterr().err


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")],
                         ids=["unset", "set"])
def test_cli_sets_one_blas_thread_unless_given(given, expected):
    """Importing the CLI, which loads numpy, leaves OPENBLAS_NUM_THREADS at
    1 where it was unset and as it was where it was set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import os, sys, ocrom.cli; assert 'numpy' in sys.modules; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == expected
