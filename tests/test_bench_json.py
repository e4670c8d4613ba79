"""tools/bench_json.py on two hand-written sweeps of one workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("overhead_ratio", "setup_s", "peak_rss_mb", "ok_ratio")


def write_run(directory, seed, commit, ratio):
    record = {"workload": "many-small", "seed": seed, "commit": commit, "python": "3.11.7",
              "numpy": "2.4.6", "platform": "Linux-x86_64", "nproc": 2}
    metrics = {m: {"value": 1.0} for m in METRICS}
    metrics["overhead_ratio"] = {"value": ratio}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    directory.mkdir(exist_ok=True)
    (directory / f"many-small-{seed}.out").write_text(
        "some output\n" + json.dumps(record) + "\n" + json.dumps(result) + "\n"
    )


def test_bench_json_writes_provenance_and_one_row_per_metric(tmp_path):
    for seed in range(1, 11):
        write_run(tmp_path / "parent", seed, "aaa", 3.0 + 0.01 * seed)
        write_run(tmp_path / "change", seed, "bbb", 2.0 + 0.01 * seed)
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_json.py"),
                    str(tmp_path / "parent"), str(tmp_path / "change"), str(out)], check=True)
    doc = json.loads(out.read_text())
    assert doc["parent"] == {"commit": "aaa", "python": "3.11.7", "numpy": "2.4.6",
                             "platform": "Linux-x86_64", "nproc": 2, "seeds": list(range(1, 11))}
    assert doc["change"]["commit"] == "bbb"
    rows = {r["metric"]: r for r in doc["rows"]}
    assert sorted(rows) == sorted(METRICS)
    ratio = rows["overhead_ratio"]
    assert ratio["workload"] == "many-small" and ratio["unit"] == "x"
    assert ratio["parent"]["median"] == pytest.approx(3.055)
    assert ratio["parent"]["q1_q3"][0] < 3.05 < 3.06 < ratio["parent"]["q1_q3"][1]
    assert ratio["change"]["median"] == pytest.approx(2.055)
    assert (ratio["wins"], ratio["pairs"], ratio["verdict"]) == (10, 10, "improved")
    assert rows["setup_s"]["verdict"] == "unchanged" and rows["setup_s"]["wins"] == 0
