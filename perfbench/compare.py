"""Compare benchmark result sets, or summarise one.

    python3 perfbench/compare.py PARENT.log              # spread summary
    python3 perfbench/compare.py PARENT.log CHANGE.log   # parent vs change

A log is the standard output of any number of ``run.py`` runs, appended in
the order they ran; each run contributes its record line and its result
line.  Runs of a workload pair up by position: the i-th parent run with the
i-th change run, so run them alternately (parent first in one pair, change
first in the next).

For each (workload, end-to-end metric) the comparison applies the rule of
the benchmark's documentation and prints one row per workload:

* ``improved``   at least 10 pairs that alternate which side ran first,
                 the change wins at least 9 in 10 of them (ties count for
                 neither), its median is better by more than the parent's
                 interquartile range, and it fails no more operations than
                 the parent;
* ``unresolved`` otherwise, when either side's IQR/median exceeds the
                 metric's bound, unless every change run beats every parent
                 run (``better``);
* ``REGRESSED``  the change's median is worse than the parent's by more
                 than the bound;
* ``ok``         within the bound.

Traced runs (``--trace 1``) in a log are used only for the tracing
overhead: their end-to-end figures against the untraced runs' medians.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_runs(path):
    """{(workload, trace): [(record, result), ...]} in file order."""
    runs, record = {}, None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "record" in obj:
                record = obj["record"]
            elif "metrics" in obj and record is not None:
                key = (record["workload"], record["trace"])
                runs.setdefault(key, []).append((record, obj))
                record = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def values_of(runs, metric):
    """The metric's values; a run that raised has no metrics and is left out
    here, but its failures are counted."""
    return [res["metrics"][metric]["value"] for _, res in runs if res["metrics"]]


def verdict(metric, parent, change):
    """Verdict and its figures for one metric on one workload."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0  # >0 means worse
    p, c = values_of(parent, name), values_of(change, name)
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    worse = sign * (cm - pm) / pm
    failed_p = sum(r["failed"] for _, r in parent)
    failed_c = sum(r["failed"] for _, r in change)
    if (len(pairs) >= 10 and alternated(parent, change) and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1 and failed_c <= failed_p):
        word = "improved"
    elif max(spread(p), spread(c)) > bound:
        worst_change = max(c, key=lambda v: sign * v)
        best_parent = min(p, key=lambda v: sign * v)
        word = "better" if sign * (worst_change - best_parent) < 0 else "unresolved"
    elif worse > bound:
        word = "REGRESSED"
    else:
        word = "ok"
    return word, {"parent_median": pm, "parent_iqr": p3 - p1, "change_median": cm,
                  "worse_pct": 100 * worse, "wins": wins, "pairs": len(pairs)}


def alternated(parent, change):
    """True when the side that ran first switches from pair to pair."""
    firsts = [p["started_at"] < c["started_at"] for (p, _), (c, _) in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def summary(runs, metrics):
    for (workload, trace), rs in sorted(runs.items()):
        if trace:
            continue
        failed = sum(r["failed"] for _, r in rs)
        print(f"{workload}: {len(rs)} runs, {failed} failed operations")
        for m in metrics:
            v = values_of(rs, m["name"])
            q1, q2, q3 = quartiles(v)
            s = spread(v)
            flag = "" if s <= m["bound"] / 3 else "  (above bound/3)"
            print(f"  {m['name']:16s} median {q2:12.6g} {m['unit']:5s} IQR/median "
                  f"{100 * s:6.2f}% bound {100 * m['bound']:.0f}%{flag}")


def overhead(runs, metrics):
    for (workload, trace), rs in sorted(runs.items()):
        plain = runs.get((workload, 0))
        if not trace or not plain:
            continue
        cells = []
        for m in metrics:
            traced = statistics.median(rec["traced_end_to_end"][m["name"]] for rec, _ in rs)
            base = statistics.median(values_of(plain, m["name"]))
            cells.append(f"{m['name']} {100 * (traced - base) / base:+.1f}%")
        print(f"tracing overhead {workload} ({len(rs)} traced runs): " + ", ".join(cells))


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent = read_runs(argv[0])
    if len(argv) == 1:
        summary(parent, metrics)
        overhead(parent, metrics)
        return 0
    change = read_runs(argv[1])
    regressed = False
    details = []
    for (workload, trace), prs in sorted(parent.items()):
        chs = change.get((workload, trace))
        if trace or not chs:
            continue
        cells = []
        for m in metrics:
            word, fig = verdict(m, prs, chs)
            regressed |= word == "REGRESSED"
            cells.append(f"{m['name']}={word}({fig['worse_pct']:+.1f}%)")
            details.append((workload, m, word, fig))
        n = min(len(prs), len(chs))
        failed = (sum(r["failed"] for _, r in prs), sum(r["failed"] for _, r in chs))
        alt = alternated(prs, chs)
        print(f"{workload:17s} pairs={n}{'' if n >= 10 else ' (<10: no gain claim)'} "
              f"alternating={'yes' if alt else 'NO (no gain claim)'} "
              f"failed={failed[0]}/{failed[1]}  " + " ".join(cells))
    print()
    for workload, m, word, fig in details:
        print(f"  {workload:17s} {m['name']:16s} parent {fig['parent_median']:.6g} "
              f"(IQR {fig['parent_iqr']:.3g}) change {fig['change_median']:.6g} {m['unit']} "
              f"wins {fig['wins']}/{fig['pairs']} -> {word}")
    overhead(change, metrics)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
