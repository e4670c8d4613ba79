"""tools/perop.py on one step of many-small, few-large and constrained-edit."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = ("build", "subside", "rise", "stack", "cat", "split", "neg", "add", "mulsub",
       "add_outer", "group_pad", "unpad", "filter", "set", "leaves", "rebuild")


def pipeline_rows(workload, seed, *flags) -> dict:
    """{op: [tree ms, naive ms, ratio, excess ms]} of one step of a workload
    of the many-small pipeline, with a row per op and one per step."""
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "perop.py"), workload,
                        "--seed", str(seed), "--steps", "1", *flags], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    clock = ", leaves read on the clock" if "--leaves" in flags else ""
    assert lines[0] == f"{workload} seed {seed}, 1 steps, medians{clock}"
    assert lines[1].split() == ["op", "tree", "ms", "naive", "ms", "ratio", "excess", "ms"]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert tuple(rows) == OPS + ("step",)
    for tree, naive, ratio, excess in rows.values():
        assert tree > 0 and naive > 0
        assert abs(excess - (tree - naive)) < 0.002
    assert abs(rows["step"][0] - sum(r[0] for op, r in rows.items() if op != "step")) < 0.02
    return rows


def test_perop_prints_a_row_per_op_and_one_per_step():
    for tree, naive, ratio, _ in pipeline_rows("many-small", 2).values():
        assert abs(ratio - tree / naive) < 0.01 * ratio + 0.01


def test_perop_runs_a_many_small_step_with_leaves_on_the_clock():
    for tree, naive, ratio, _ in pipeline_rows("many-small", 1, "--leaves").values():
        assert abs(ratio - tree / naive) < 0.01 * ratio + 0.01


def test_perop_runs_a_few_large_step():
    for tree, naive, ratio, _ in pipeline_rows("few-large", 1).values():
        if naive >= 0.01:  # printed to 0.001 ms: a ratio checks only where that is precise
            assert abs(ratio - tree / naive) < 0.1 * ratio + 0.01


def test_perop_rejects_an_unknown_workload():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "perop.py"), "nope"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2


EDIT_OPS = ("get", "remove", "leaves", "replace", "insert", "validate_full", "with_constraints")


def test_perop_runs_a_constrained_edit_step():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "perop.py"), "constrained-edit",
                        "--seed", "1", "--steps", "1"], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "constrained-edit seed 1, 1 steps, medians"
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert tuple(rows) == EDIT_OPS + ("step",)
    for tree, naive, ratio, excess in rows.values():
        assert tree > 0
        assert abs(excess - (tree - naive)) < 0.002
        if naive >= 0.01:  # printed to 0.001 ms: a ratio checks only where that is precise
            assert abs(ratio - tree / naive) < 0.1 * ratio + 0.01
    assert rows["step"][2] > 0
