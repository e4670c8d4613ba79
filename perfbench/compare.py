"""Compare the runs of a parent commit and a change, one row per
(end-to-end metric, workload).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run outputs (the standard output of run.py, one file
per run, as sweep.py writes them). Runs pair up by workload and seed. The
bounds and directions come from BENCHMARK.json.

Verdicts, in this order:
  worse       the change fails a larger share of the workload's operations
              than the parent (every metric of that workload), or its
              median is worse than the parent's by more than the metric's
              bound;
  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own interquartile range;
  unresolved  either side's spread (interquartile range over median) is
              wider than the bound, and not every change run beats every
              parent run;
  unchanged   otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory) -> dict:
    """{(workload, seed): (record, result)} of the run outputs in directory."""
    runs = {}
    for f in sorted(Path(directory).iterdir()):
        lines = f.read_text().strip().splitlines()
        if len(lines) < 2:
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs[(record["workload"], record["seed"])] = (record, result)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, pairs: list, better: str, bound: float) -> dict:
    """One row's verdict. `pairs` holds (parent, change) values of the same seed."""
    sign = 1 if better == "lower" else -1  # sign * (a - b) > 0: a is worse than b
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if worse_by > bound:
        v = "worse"
    elif pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(pairs), "worse_by": worse_by, "spread": spread, "verdict": v}


def failed_share(runs: dict, workload: str) -> float:
    results = [r[1] for (wl, _), r in runs.items() if wl == workload]
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        for w in workloads:
            def values(runs):
                return {seed: r[1]["metrics"][m["name"]]["value"]
                        for (wl, seed), r in runs.items() if wl == w}
            p, c = values(parent_runs), values(change_runs)
            if not p or not c:
                continue
            pairs = [(p[s], c[s]) for s in sorted(p.keys() & c.keys())]
            row = verdict(list(p.values()), list(c.values()), pairs, m["better"], m["bound"])
            if failed_share(change_runs, w) > failed_share(parent_runs, w):
                row["verdict"] = "worse"
            rows.append({"metric": m["name"], "unit": m["unit"], "workload": w,
                         "bound": m["bound"], **row})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    print(f"{'metric':16} {'workload':17} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'worse by':>9} {'bound':>6} {'wins':>6}  verdict")
    for r in rows:
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{r['metric']:16} {r['workload']:17} {fmt(r['parent']):>32} {fmt(r['change']):>32} "
              f"{r['worse_by']:>+9.1%} {r['bound']:>6.0%} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
