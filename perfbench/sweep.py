"""Run the benchmark over several seeds and print each end-to-end metric's
median and spread per workload.

    python3 perfbench/sweep.py OUT_DIR [--seeds 1-10] [PARENT CHANGE]

Without checkouts, this checkout runs every workload and the outputs land
in OUT_DIR. With two, say a parent and a change, each runs its own
perfbench/run.py from its root; each seed runs on both, the side that goes
first alternates by seed, and the outputs land in OUT_DIR/parent and
OUT_DIR/change, ready for compare.py. Runs go one at a time. Spread is the
interquartile range over the median; the table marks a spread that is not
below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(root: Path, workload: str, seed: int, seconds: int) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"sweep: {root} {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _line(name, unit, xs, note):
    label = f"  {name:20} {unit:6}"
    if len(xs) < 2:
        return f"{label} value  {xs[0]:12.5g}"
    q1, med, q3 = statistics.quantiles(xs, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return f"{label} median {med:12.5g}  spread {spread:7.2%}  {note(spread)}"


def summary(out_dir: Path, workloads) -> None:
    """Every end-to-end metric, then the absolute times of the run records."""
    for w in workloads:
        runs = [[json.loads(line) for line in f.read_text().strip().splitlines()[-2:]]
                for f in sorted(out_dir.glob(f"{w}-*.out"))]
        print(f"{out_dir} {w}: {len(runs)} runs, {sum(r['failed'] for _, r in runs)} failed "
              f"of {sum(r['attempted'] for _, r in runs)}")
        for m in SPEC["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for _, r in runs]
            bound = m["bound"]
            print(_line(m["name"], m["unit"], xs, lambda s: f"bound {bound:.0%}" + (
                "" if s < bound / 3 else "  <- spread not below bound/3")))
        absolute = {name: (unit, [rec["absolute"][name][0] for rec, _ in runs])
                    for name, (_, unit) in runs[0][0]["absolute"].items()}
        absolute["setup_wall_s"] = ("s", [statistics.median(rec["setup_rounds_s"]) for rec, _ in runs])
        for name, (unit, xs) in absolute.items():
            print(_line(name, unit, xs, lambda s: "(absolute, not gated)"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out")
    p.add_argument("checkouts", nargs="*", metavar="PARENT CHANGE")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args(argv)
    out = Path(args.out)
    if not args.checkouts:
        sides = {out: HERE.parent}
    elif len(args.checkouts) == 2:
        sides = {out / name: Path(c).resolve() for name, c in zip(("parent", "change"), args.checkouts)}
    else:
        p.error("give no checkout, or exactly PARENT and CHANGE")
    workloads = [w["name"] for w in SPEC["workloads"]]
    for o in sides:
        o.mkdir(parents=True, exist_ok=True)
    for w in workloads:
        for seed in seeds(args.seeds):
            order = list(sides.items())
            if seed % 2:
                order.reverse()
            for o, root in order:
                (o / f"{w}-{seed}.out").write_text(run(root, w, seed, SPEC["run_seconds"]))
    for o in sides:
        summary(o, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
