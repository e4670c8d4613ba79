"""Write a BENCH_*.json file: the verdicts of perfbench/compare.py on a
parent sweep and a change sweep, with where they ran.

    python3 tools/bench_json.py PARENT_DIR CHANGE_DIR OUT

PARENT_DIR and CHANGE_DIR hold run outputs as `perfbench/sweep.py OUT
PARENT CHANGE` writes them (OUT/parent and OUT/change). The file records,
per side, the commit, the digest of src/*.py (`src_sha256`, which tells
apart two sides whose checkouts have no git and so no commit), Python,
numpy, platform and nproc of its runs (a list where the runs disagree), and for each (metric, workload) row both
medians with their [q1, q3], the seed wins of the change and the verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import compare, load_runs  # noqa: E402

PROVENANCE = ("commit", "src_sha256", "python", "numpy", "platform", "nproc")


def provenance(runs: dict) -> dict:
    out = {}
    for field in PROVENANCE:
        values = list(dict.fromkeys(record[field] for record, _ in runs.values()))
        out[field] = values[0] if len(values) == 1 else values
    out["seeds"] = sorted({seed for _, seed in runs})
    return out


def bench_json(parent_dir, change_dir) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)

    def side(q):
        return {"median": q[1], "q1_q3": [q[0], q[2]]}

    rows = [
        {"metric": r["metric"], "workload": r["workload"], "unit": r["unit"],
         "parent": side(r["parent"]), "change": side(r["change"]),
         "wins": r["wins"], "pairs": r["pairs"], "verdict": r["verdict"]}
        for r in compare(parent, change, spec)
    ]
    return {"parent": provenance(parent), "change": provenance(change), "rows": rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("out")
    args = p.parse_args(argv)
    doc = bench_json(args.parent, args.change)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
