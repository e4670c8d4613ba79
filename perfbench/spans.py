"""Traced mode: spans recorded around the benchmark's calls into each layer,
kept in memory, written out when the run ends, and reduced to the
per-layer metrics.

A span is ``[name, t0_ns, t1_ns, parent, step, size, error]``. The roots
are the benchmark's own ops: ``step.<op>`` for the timed pipeline and
``replay.<op>`` for work re-run only to split a step's time (constrained
writes repeated on the unconstrained tree, CLI commands repeated in
process), and ``probe.interp``/``probe.import`` for the interpreter
probes. Library calls are children of a root and are named
``<layer>.<function>``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

LAYERS = ("leaf", "tree", "lift", "constraints", "functional", "padding", "io_formats")

NAME, T0, T1, PARENT, STEP, SIZE, ERROR = range(7)

UNITS = {  # every per-layer metric a traced run reports
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.busy_ms": "ms" for layer in LAYERS},
    "lift.leaves_per_ms": "1/ms",
    "leaf.bytes_computed": "B",
    "tree.build_ms": "ms",
    "tree.set_us": "us",
    "constraints.write_us": "us",
    "constraints.validate_ms": "ms",
    "constraints.attach_ms": "ms",
    "constraints.rejected_ratio": "ratio",
    "io_formats.parse_mb_per_s": "MB/s",
    "io_formats.serialize_mb_per_s": "MB/s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.cmd_ms": "ms",
    "cli.residual_ms": "ms",
    "naive.busy_ms": "ms",
    "trace.overhead_ratio": "x",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.open = -1  # index of the innermost open span
        self.step = -1

    def wrap(self, name: str, fn, size=None):
        spans, clock = self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, self.open, self.step, None, False]
            self.open = len(spans)
            spans.append(rec)
            rec[T0] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec[T1] = clock()
                rec[ERROR] = True
                self.open = rec[PARENT]
                raise
            rec[T1] = clock()
            self.open = rec[PARENT]
            if size is not None:
                rec[SIZE] = size(args, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _rate(work: float, time: float) -> float:
    return work / time if time else 0.0


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def reduce(spans, count_replays: bool, kinds: int) -> dict:
    """Per-layer metrics from the spans of the traced steps.

    Layer calls and busy time are summed over each cycle of the ``kinds``
    step kinds, divided by ``kinds``, and reported as the median over
    cycles: per step, but without hiding a layer that only some kinds call.
    A layer's busy time is its spans' self time. Replay spans count towards
    a layer only when ``count_replays`` is set, that is when the replay is
    the only place the step's in-process work can be seen (the CLI does its
    work in a subprocess).
    """
    roots = [0] * len(spans)
    child_ns = defaultdict(int)
    for i, s in enumerate(spans):
        parent = s[PARENT]
        roots[i] = i if parent < 0 else roots[parent]
        if parent >= 0:
            child_ns[parent] += s[T1] - s[T0]
    cycles = sorted({s[STEP] // kinds for s in spans if s[NAME].startswith("step.")})
    per_cycle = {c: defaultdict(float) for c in cycles}
    per_call = defaultdict(list)
    totals = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[T1] - s[T0]
        name = s[NAME]
        per_call[name].append(dur)
        root_name = spans[roots[i]][NAME]
        if roots[i] == i:
            continue
        if not (root_name.startswith("step.") or (count_replays and root_name.startswith("replay."))):
            continue
        layer = _layer(name)
        acc = per_cycle[s[STEP] // kinds]
        acc[layer + ".calls"] += 1
        acc[layer + ".busy_ns"] += dur - child_ns[i]
        if name == "tree.build_tree":
            acc["tree.build_ns"] += dur
        if layer == "leaf" and s[SIZE] is not None:
            acc["leaf.bytes"] += s[SIZE]
        if layer == "lift" and s[SIZE] is not None:
            totals["lift.leaves"] += s[SIZE]
            totals["lift.ns"] += dur
        for kind in ("parse", "serialize"):
            if name.startswith(f"io_formats.{kind}") and s[SIZE] is not None:
                totals[kind + ".bytes"] += s[SIZE]
                totals[kind + ".ns"] += dur

    def step_median(key, scale=1.0):
        return _median([per_cycle[c][key] * scale / kinds for c in cycles])

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = step_median(layer + ".calls")
        out[f"{layer}.busy_ms"] = step_median(layer + ".busy_ns", 1e-6)
    out["lift.leaves_per_ms"] = _rate(totals["lift.leaves"], totals["lift.ns"] * 1e-6)
    for kind in ("parse", "serialize"):  # bytes per ns * 1e3 = MB per s
        out[f"io_formats.{kind}_mb_per_s"] = _rate(totals[kind + ".bytes"] * 1e3, totals[kind + ".ns"])
    out["leaf.bytes_computed"] = step_median("leaf.bytes")
    out["tree.build_ms"] = step_median("tree.build_ns", 1e-6)
    out["tree.set_us"] = _median(per_call["tree.set"]) * 1e-3
    writes = per_call["constraints.set"] + per_call["constraints.remove"]
    out["constraints.write_us"] = _median(writes) * 1e-3
    out["constraints.validate_ms"] = _median(per_call["constraints.validate_full"]) * 1e-6
    out["constraints.attach_ms"] = _median(per_call["constraints.with_constraints"]) * 1e-6
    rejected = sum(1 for s in spans if s[NAME] in ("constraints.set", "constraints.remove") and s[ERROR])
    out["constraints.rejected_ratio"] = rejected / len(writes) if writes else 0.0
    return out


def cli_metrics(spans) -> dict:
    """CLI metrics from the CLI steps and the interpreter probes.

    ``probe.interp`` runs ``python -c pass``; ``probe.import`` runs
    ``python -c "import tensortree.cli"``. cli-docs probes once per traced
    step, so each step's residual (the CLI's own argument handling, file
    and pipe IO) is its wall time minus its in-process replay and its own
    import probe, which includes interpreter start.
    """
    durs = defaultdict(list)
    cmd, replay, imports = {}, defaultdict(int), {}
    for s in spans:
        if s[PARENT] >= 0:
            continue
        dur = s[T1] - s[T0]
        durs[s[NAME]].append(dur)
        if s[NAME].startswith("step."):
            cmd[s[STEP]] = dur
        elif s[NAME].startswith("replay."):
            replay[s[STEP]] += dur
        elif s[NAME] == "probe.import":
            imports[s[STEP]] = dur
    interp = _median(durs["probe.interp"])
    residual = [cmd[st] - replay[st] - imports[st] for st in cmd if st in imports]
    return {
        "cli.interp_ms": interp * 1e-6,
        "cli.import_ms": (_median(durs["probe.import"]) - interp) * 1e-6,
        "cli.cmd_ms": _median(list(cmd.values())) * 1e-6 if residual else 0.0,
        "cli.residual_ms": _median(residual) * 1e-6,
    }
