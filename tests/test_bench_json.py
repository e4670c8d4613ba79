"""tools/bench_json.py on two hand-written sweeps of one workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("overhead_ratio", "setup_s", "peak_rss_mb", "ok_ratio")


def write_run(directory, seed, commit, ratio, src="0123abcd"):
    record = {"workload": "many-small", "seed": seed, "commit": commit, "src_sha256": src,
              "python": "3.11.7", "numpy": "2.4.6", "platform": "Linux-x86_64", "nproc": 2}
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
    assert doc["parent"] == {"commit": "aaa", "src_sha256": "0123abcd", "python": "3.11.7",
                             "numpy": "2.4.6", "platform": "Linux-x86_64", "nproc": 2,
                             "seeds": list(range(1, 11))}
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


def test_bench_json_tells_apart_sides_without_a_commit_by_their_source_digest(tmp_path):
    # checkouts made with `git archive` have no .git, so every run records "unknown"
    for seed in range(1, 4):
        write_run(tmp_path / "parent", seed, "unknown", 3.0, src="aaaa1111")
        write_run(tmp_path / "change", seed, "unknown", 2.0, src="bbbb2222" if seed < 3 else "cccc3333")
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_json.py"),
                    str(tmp_path / "parent"), str(tmp_path / "change"), str(out)], check=True)
    doc = json.loads(out.read_text())
    assert doc["parent"]["commit"] == doc["change"]["commit"] == "unknown"
    assert doc["parent"]["src_sha256"] == "aaaa1111"
    assert doc["change"]["src_sha256"] == ["bbbb2222", "cccc3333"]  # the runs disagree
