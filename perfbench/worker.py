"""One workload process: import the checkout's tensortree, generate the
inputs, warm up, then run a closed loop of steps and print the result.

run.py starts this process once per set-up round; see run.py for the
command line. Standard output carries exactly three lines: ``READY`` when
set-up ends, then the run record and the result, each one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import checkout  # noqa: E402

tt = checkout.import_library()

import check  # noqa: E402
import gen  # noqa: E402
import pipelines  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_STEPS = 11  # the tail percentile needs 10 samples beyond it
MAX_LOGGED_FAILURES = 5
PROBES = 3  # interpreter probes at the end of traced runs without CLI steps


class Step:
    __slots__ = ("kind", "ok", "tree_ns", "naive_ns", "attempted", "failed")

    def __init__(self, kind):
        self.kind, self.ok, self.tree_ns, self.naive_ns, self.attempted, self.failed = kind, True, 0, 0, 0, 0


def _timed(fn):
    t0 = time.perf_counter_ns()
    out = fn()
    return out, time.perf_counter_ns() - t0


class Failures:
    def __init__(self):
        self.logged = 0

    def log(self, msg):
        if self.logged < MAX_LOGGED_FAILURES:
            print(f"perfbench: {msg}", file=sys.stderr)
        self.logged += 1


def run_step(kind, tree_ops, naive_ops, tree_first: bool, root, failures) -> Step:
    """Run both pipelines op by op, timing each op and checking the tree
    output against the naive one. Only op time counts, so the checks do not.

    A tree op that raises fails the step; a naive op that raises is a
    defect of the benchmark and ends the run.
    """
    step = Step(kind)
    t_in = n_in = None
    try:
        while True:
            try:
                name, t_fn, t_view = tree_ops.send(t_in)
            except StopIteration:
                break
            n_name, n_fn, n_view = naive_ops.send(n_in)
            if n_name != name:
                raise RuntimeError(f"pipelines out of step: {name} vs {n_name}")
            if root is not None:
                t_fn = root("step." + name, t_fn)
            step.attempted += 1
            if not tree_first:
                n_in, dn = _timed(n_fn)
            try:
                t_in, dt = _timed(t_fn)
                got = check.flatten(t_view(t_in) if t_view else t_in)
            except Exception:
                step.ok = False
                step.failed += 1
                failures.log(f"op {name} raised:\n{traceback.format_exc()}")
                break
            if tree_first:
                n_in, dn = _timed(n_fn)
            step.tree_ns += dt
            step.naive_ns += dn
            if not check.same(got, n_view(n_in) if n_view else n_in):
                step.failed += 1
                failures.log(f"op {name}: output differs from the naive reference")
    finally:
        # an unfinished pipeline would hold its intermediates until collected
        tree_ops.close()
        naive_ops.close()
    return step


def run_loop(wl, calls, traced_calls, tracer, seconds, failures):
    """Closed loop over whole cycles of step kinds until `seconds` pass.

    Stopping only at cycle ends keeps the mix of step kinds fixed. In traced
    runs every other cycle is traced, so traced and untraced steps see the
    same inputs.
    """
    steps, traced = [], []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        trace_this = tracer is not None and cycle % 2 == 1
        for k in range(wl.kinds):
            i = len(steps)
            replay = None
            if trace_this:
                tracer.step = i
                replay = lambda op, fn: tracer.wrap("replay." + op, fn)()
            tree_ops, naive_ops = wl.ops(k, traced_calls if trace_this else calls, replay)
            steps.append(run_step(k, tree_ops, naive_ops, (cycle + k) % 2 == 0,
                                  tracer.wrap if trace_this else None, failures))
            traced.append(trace_this)
            if trace_this and wl.probe_each_step:
                probe(tracer)
        cycle += 1
        now = time.perf_counter()
        done = sum(s.ok and not t for s, t in zip(steps, traced))
        if now >= deadline and (done >= MIN_STEPS or now > deadline + 2 * seconds):
            if tracer is None or cycle % 2 == 0:
                return steps, traced


def tail(samples):
    """(value, percentile): the highest percentile with 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n < MIN_STEPS:
        return xs[-1], 100.0
    return xs[n - MIN_STEPS], 100.0 * (n - 10) / n


def overhead_ratio(steps, kinds: int) -> float:
    """Per step kind, the median tree step over the median naive step; then
    the geometric mean over kinds. With one kind this is the ratio of the
    medians; with several, no reordering of a mix of kinds can move it."""
    logs = []
    for k in range(kinds):
        of_kind = [s for s in steps if s.kind == k]
        tree = statistics.median(s.tree_ns for s in of_kind)
        logs.append(math.log(tree / statistics.median(s.naive_ns for s in of_kind)))
    return math.exp(statistics.fmean(logs))


def probe(tracer) -> None:
    """Time a bare interpreter start and `import tensortree.cli` as spans."""
    env = checkout.cli_env()
    for name, code in (("probe.interp", "pass"), ("probe.import", "import tensortree.cli")):
        run = lambda: subprocess.run([sys.executable, "-c", code], cwd=checkout.ROOT, env=env,
                                     check=True, timeout=workloads.CLI_TIMEOUT_S)
        tracer.wrap(name, run)()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t_gen = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.workload, args.seed)
    try:
        return _run(args, wl, t_gen)
    finally:
        wl.close()


def _run(args, wl, t_gen) -> int:
    tracer = spans.Tracer() if args.trace else None
    calls = pipelines.layer_calls()
    traced_calls = pipelines.layer_calls(tracer) if tracer else None
    failures = Failures()
    t_warm = time.perf_counter()
    warm = [run_step(0, *wl.ops(0, calls, None), True, None, failures)]
    gc.collect()
    t_ready = time.perf_counter()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    steps, traced = run_loop(wl, calls, traced_calls, tracer, args.seconds, failures)
    attempted = sum(s.attempted for s in warm + steps)
    failed = sum(s.failed for s in warm + steps)
    plain = [s for s, t in zip(steps, traced) if s.ok and not t]
    tree_ms = [s.tree_ns * 1e-6 for s in plain]
    naive_ms = [s.naive_ns * 1e-6 for s in steps if s.ok]
    record = checkout.provenance(tt, args)
    record.update(
        steps=len(plain),
        setup_parts_s={"import": t_gen - T_START, "generate": t_warm - t_gen,
                       "warmup": t_ready - t_warm},
    )
    if not tree_ms:
        print(json.dumps(record))
        print("perfbench: no step completed", file=sys.stderr)
        return 1
    p50 = statistics.median(tree_ms)
    if not args.trace:
        tail_ms, pct = tail(tree_ms)
        naive_p50 = statistics.median(naive_ms)
        record.update(
            tail_percentile=pct,
            tail_samples=len(tree_ms),
            # Absolute times follow the machine's speed, which drifts on a
            # shared host, so they are reported here and not gated.
            absolute={
                "steps_per_s": (len(tree_ms) / (sum(tree_ms) * 1e-3), "1/s"),
                "step_p50_ms": (p50, "ms"),
                "step_tail_ms": (tail_ms, "ms"),
                "naive_p50_ms": (naive_p50, "ms"),
            },
        )
        metrics = {
            "overhead_ratio": (overhead_ratio(plain, wl.kinds), "x"),
            "peak_rss_mb": (resource.getrusage(wl.rss_of).ru_maxrss * 1024 / 1e6, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        traced_ms = [s.tree_ns * 1e-6 for s, t in zip(steps, traced) if s.ok and t]
        if not wl.probe_each_step:
            tracer.step = -1
            for _ in range(PROBES):
                probe(tracer)
        checkout.WORK.mkdir(exist_ok=True)
        trace_file = checkout.WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_file)
        record["trace_file"] = str(trace_file.relative_to(checkout.ROOT))
        layer = spans.reduce(tracer.spans, wl.count_replays, wl.kinds)
        layer.update(spans.cli_metrics(tracer.spans))
        layer["naive.busy_ms"] = statistics.median(naive_ms)
        layer["trace.overhead_ratio"] = statistics.median(traced_ms) / p50
        metrics = {name: (layer[name], unit) for name, unit in spans.UNITS.items()}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
