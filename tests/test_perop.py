"""tools/perop.py on one step of many-small."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPS = ("build", "subside", "rise", "stack", "cat", "split", "neg", "add", "mulsub",
       "add_outer", "group_pad", "unpad", "filter", "set", "leaves", "rebuild")


def test_perop_prints_a_row_per_op_and_one_per_step():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "perop.py"), "many-small",
                        "--seed", "2", "--steps", "1"], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "many-small seed 2, 1 steps, medians"
    assert lines[1].split() == ["op", "tree", "ms", "naive", "ms", "ratio", "excess", "ms"]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert tuple(rows) == OPS + ("step",)
    for tree, naive, ratio, excess in rows.values():
        assert tree > 0 and naive > 0
        assert abs(ratio - tree / naive) < 0.01 * ratio + 0.01
        assert abs(excess - (tree - naive)) < 0.002
    step = rows.pop("step")
    assert abs(step[0] - sum(r[0] for r in rows.values())) < 0.02


def test_perop_rejects_an_unknown_workload():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "perop.py"), "nope"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
