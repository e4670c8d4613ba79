"""tensortree benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 10 --trace 0

Workloads: many-small, few-large, constrained-edit, cli-docs (see
README.md and BENCHMARK.json for why each is in the benchmark). Run from
the root of a checkout; the library is imported from its src/.

With --trace 0 the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.
The line before it is the run record: the resolved ``tensortree.__file__``,
commit, versions, nproc, platform, seed and the set-up rounds.

Set-up is measured ``SETUP_ROUNDS`` times, each in a fresh worker process
that stops after its warm-up; a further worker then runs the timed loop.
Workers run one at a time. A calibration process runs before the
first round and after each round. It starts the interpreter, imports numpy
and runs a fixed pure-Python loop, and uses none of the checkout's code.
Each round's wall time is divided by the mean of the two calibrations
around it and multiplied by ``CALIBRATION_REF_S``. ``setup_s`` is the median
of these, in seconds of a host on which the calibration takes
``CALIBRATION_REF_S``. The division cancels the drift of a shared host's
speed; the wall times and calibrations are in the run record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_ROUNDS = 3
CALIBRATION = "import numpy; d = {str(i): i for i in range(200000)}"
CALIBRATION_REF_S = 0.25  # about its time on a 2-vCPU 2.1 GHz Xeon VM
DEADLINE_S = 170  # a run must end within 180 s


def run_worker(argv, timeout):
    """Start one worker; return (seconds until READY, other stdout lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        sys.exit(f"perfbench: worker {' '.join(argv)} failed with exit code {proc.returncode}")
    return ready, lines


def calibrate(timeout) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CALIBRATION], check=True, timeout=timeout)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["many-small", "few-large", "constrained-edit", "cli-docs"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.perf_counter() + DEADLINE_S

    setup, calib = [], []
    if not args.trace:
        calib.append(calibrate(deadline - time.perf_counter()))
        for _ in range(SETUP_ROUNDS):
            setup.append(run_worker(common + ["--setup-only"], deadline - time.perf_counter())[0])
            calib.append(calibrate(deadline - time.perf_counter()))
    _, lines = run_worker(common, deadline - time.perf_counter())
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not args.trace:
        record.update(setup_rounds_s=setup, calibration_s=calib)
        scaled = [CALIBRATION_REF_S * s / ((a + b) / 2) for s, a, b in zip(setup, calib, calib[1:])]
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
