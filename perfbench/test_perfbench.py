"""Self-tests for the benchmark: deterministic inputs, tree and naive
pipelines that agree, rejections that really raise, comparison verdicts,
and a BENCHMARK.json that matches what the code reports.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkout  # noqa: E402

tt = checkout.import_library()

import check  # noqa: E402
import compare  # noqa: E402
import gen  # noqa: E402
import pipelines  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _plain(x):
    """Inputs -> nested lists/dicts of bytes, comparable with ==."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, frozenset)):
        return [_plain(v) for v in (sorted(x) if isinstance(x, frozenset) else x)]
    if hasattr(x, "__dict__"):
        return _plain(vars(x))
    return x


GENERATORS = {
    "many-small": gen.many_small,
    "few-large": gen.few_large,
    "constrained-edit": gen.constrained_edit,
    "cli-docs": gen.cli_docs,
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_deterministic(workload):
    make = GENERATORS[workload]
    assert _plain(make(7)) == _plain(make(7))
    assert _plain(make(7)) != _plain(make(8))


def test_generator_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2):
        b = gen.many_small(seed)
        assert len(b.paths) == 1024 and {a.shape for a in b.flats[0].values()} == {(16,)}
        e = gen.constrained_edit(seed)
        assert len(e.flat) == gen.N_EDIT_LEAVES
        for stream in e.streams:
            assert sum(op[3] for op in stream) == gen.REJECTED_WRITES
            assert len(stream) == sum(gen.WRITES.values()) + gen.REJECTED_WRITES + gen.GETS + gen.LEAVES_READS


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tree_and_naive_steps_agree(workload):
    wl = workloads.WORKLOADS[workload](workload, 3)
    calls = pipelines.layer_calls()
    failures = worker.Failures()
    try:
        for k in range(wl.kinds):
            step = worker.run_step(k, *wl.ops(k, calls, None), k % 2 == 0, None, failures)
            assert step.ok and step.failed == 0 and step.attempted > 0
    finally:
        wl.close()
    assert failures.logged == 0


def test_marked_writes_raise_and_the_others_do_not():
    inputs = gen.constrained_edit(3)
    side = pipelines.EditSide(inputs)
    for stream, values in zip(inputs.streams, side.values):
        for (kind, path, _, must_reject), leaf in zip(stream, values):
            if kind in ("get", "leaves"):
                continue
            apply = (lambda: tt.remove(side.base, path)) if kind == "remove" else \
                (lambda: tt.set(side.base, path, leaf))
            if must_reject:
                with pytest.raises(tt.errors.ConstraintViolation):
                    apply()
            else:
                apply()


def test_check_uses_nan_aware_equality():
    a = np.array([np.nan, 0.0, 1.0])
    assert check.same({("x",): a}, {("x",): a.copy()})
    assert check.same(a, np.array([np.nan, -0.0, 1.0]))  # bits differ, values equal
    assert not check.same(a, a.astype(np.float32))
    assert not check.same(a, np.array([np.nan, 0.0, 2.0]))
    big = np.arange(1 << 15, dtype=np.float64)
    assert check.same(big, big.copy())
    assert not check.same(big, big + 1)


def test_overhead_ratio_is_robust_to_the_mix_of_step_kinds():
    def step(kind, tree_ns, naive_ns):
        s = worker.Step(kind)
        s.tree_ns, s.naive_ns = tree_ns, naive_ns
        return s

    # kind 0 costs 4x its naive step, kind 1 costs 1x: the mean in logs is 2x,
    # however many steps of each kind the run happened to complete
    for n0, n1 in ((3, 3), (3, 2), (2, 3)):
        steps = [step(0, 400, 100)] * n0 + [step(1, 150, 150)] * n1
        assert worker.overhead_ratio(steps, 2) == pytest.approx(2.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = worker.tail(list(range(1, 101)))
    assert value == 90 and pct == 90.0
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_traced_spans_reduce_to_layer_metrics():
    tracer = spans.Tracer()
    calls = pipelines.layer_calls(tracer)
    inputs = gen.constrained_edit(3)
    side = pipelines.EditSide(inputs)
    tracer.step = 0
    ops = pipelines.edit_ops(calls, side, 0, inputs.streams[0],
                             lambda op, fn: tracer.wrap("replay." + op, fn)())
    out = None
    while True:
        try:
            name, fn, _ = ops.send(out)
        except StopIteration:
            break
        out = tracer.wrap("step." + name, fn)()
    m = spans.reduce(tracer.spans, count_replays=False, kinds=1)
    assert m["constraints.rejected_ratio"] == pytest.approx(gen.REJECTED_WRITES / 20)
    assert m["constraints.calls"] == 22  # 20 writes, validate_full, with_constraints
    assert m["tree.set_us"] > 0 and m["constraints.write_us"] > m["tree.set_us"]
    assert set(m) | {"cli.interp_ms", "cli.import_ms", "cli.cmd_ms", "cli.residual_ms",
                     "naive.busy_ms", "trace.overhead_ratio"} == set(spans.UNITS)


def _runs(values, workload="w", failed=0):
    return {(workload, seed): ({"workload": workload, "seed": seed},
                               {"attempted": 200, "failed": failed if seed == 0 else 0,
                                "metrics": {"t_ms": {"value": v}}})
            for seed, v in enumerate(values)}


@pytest.mark.parametrize("change,failed,expected", [
    ([90 + i * 0.1 for i in range(10)], 0, "improved"),
    ([100 + i * 0.1 for i in range(10)], 0, "unchanged"),
    ([130 + i * 0.1 for i in range(10)], 0, "worse"),
    ([60, 140] * 5, 0, "unresolved"),
    # one wrongly accepted write in 2000 operations: faster, but worse
    ([90 + i * 0.1 for i in range(10)], 1, "worse"),
    ([100 + i * 0.1 for i in range(10)], 1, "worse"),
])
def test_comparison_verdicts(change, failed, expected):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
    parent = _runs([100 + i * 0.1 for i in range(10)])
    (row,) = compare.compare(parent, _runs(change, failed=failed), spec)
    assert row["verdict"] == expected


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.UNITS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
