"""Per-op medians of one perfbench workload, tree against naive, in one
process.

    python3 tools/perop.py WORKLOAD [--seed N] [--steps N] [--leaves]

Runs perfbench's tree and naive pipelines of WORKLOAD (many-small,
few-large, constrained-edit or cli-docs) op by op, as perfbench's worker
does: the garbage collector stays on, each op is timed on its own, and
which side runs first alternates from one step to the next. One warm-up
step runs first. Outputs are not checked; perfbench/run.py does that.
With --leaves, each tree op's timed region also reads `tt.leaves` of every
TreeTensor in its output, as perfbench/check.flatten does off the clock,
so leaf objects a packed tree makes lazily are timed where they are made.
Prints, per op in pipeline order, the median tree ms, the median naive ms,
their ratio and the excess (tree minus naive), then the same for whole
steps.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checkout  # noqa: E402

tt = checkout.import_library()

import gen  # noqa: E402
import pipelines  # noqa: E402
import workloads  # noqa: E402


def _timed(fn, then=None):
    t0 = time.perf_counter_ns()
    out = fn()
    if then is not None:
        then(out)
    return out, (time.perf_counter_ns() - t0) * 1e-6


def read_leaves(out):
    """Read `tt.leaves` of every TreeTensor in an op's output."""
    if isinstance(out, tt.TreeTensor):
        tt.leaves(out)
    elif isinstance(out, tt.PaddedGroup):
        read_leaves(out.stacked)
        read_leaves(out.lengths)
    elif isinstance(out, (list, tuple)):
        for x in out:
            read_leaves(x)


def run_step(tree_ops, naive_ops, tree_first: bool, times: dict,
             leaves: bool = False) -> tuple[float, float]:
    """One step of both pipelines: appends (tree ms, naive ms) per op to
    `times` and returns the step's totals. With `leaves`, each tree op's
    timed region ends with `read_leaves` of its output."""
    t_in = n_in = None
    total_t = total_n = 0.0
    try:
        while True:
            try:
                name, t_fn, _ = tree_ops.send(t_in)
            except StopIteration:
                return total_t, total_n
            _, n_fn, _ = naive_ops.send(n_in)
            if not tree_first:
                n_in, dn = _timed(n_fn)
            t_in, dt = _timed(t_fn, read_leaves if leaves else None)
            if tree_first:
                n_in, dn = _timed(n_fn)
            times.setdefault(name, []).append((dt, dn))
            total_t += dt
            total_n += dn
    finally:
        tree_ops.close()
        naive_ops.close()


def per_op(workload: str, seed: int, steps: int, leaves: bool = False) -> tuple[dict, list]:
    """({op: [(tree ms, naive ms) per call]}, [(tree ms, naive ms) per step])
    over `steps` timed steps."""
    wl = workloads.WORKLOADS[workload](workload, seed)
    calls = pipelines.layer_calls()
    try:
        run_step(*wl.ops(0, calls, None), True, {}, leaves)
        gc.collect()
        times: dict = {}
        totals = [run_step(*wl.ops(i % wl.kinds, calls, None), i % 2 == 0, times, leaves)
                  for i in range(steps)]
        return times, totals
    finally:
        wl.close()


def table(times: dict, totals: list) -> list[str]:
    rows = [f"{'op':14} {'tree ms':>10} {'naive ms':>10} {'ratio':>7} {'excess ms':>10}"]
    for name, pairs in [*times.items(), ("step", totals)]:
        tree = statistics.median(t for t, _ in pairs)
        naive = statistics.median(n for _, n in pairs)
        ratio = tree / naive if naive else float("inf")
        rows.append(f"{name:14} {tree:10.3f} {naive:10.3f} {ratio:7.2f} {tree - naive:10.3f}")
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--leaves", action="store_true",
                   help="read tt.leaves of each tree op's output inside its timed region")
    args = p.parse_args(argv)
    if args.steps < 1:
        p.error("--steps must be at least 1")
    times, totals = per_op(args.workload, args.seed, args.steps, args.leaves)
    clock = ", leaves read on the clock" if args.leaves else ""
    print(f"{args.workload} seed {args.seed}, {args.steps} steps, medians{clock}")
    print("\n".join(table(times, totals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
