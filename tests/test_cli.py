import json
import subprocess
import sys

import pytest

import tensortree as tt

CLI = [sys.executable, "-m", "tensortree.cli"]


def run(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, **kw
    )


@pytest.fixture
def paper_file(tmp_path):
    t = tt.build_tree({"a": 2, "b": 3, "x": {"c": 5, "d": 7}})
    f = tmp_path / "n.ttj"
    f.write_text(tt.serialize_tree(t))
    return f


def test_show_roundtrips(paper_file):
    r = run("show", str(paper_file))
    assert r.returncode == 0
    assert tt.parse_tree(r.stdout.strip()) == tt.parse_tree(paper_file.read_text())


def test_show_missing_file(tmp_path):
    r = run("show", str(tmp_path / "none.ttj"))
    assert r.returncode == 2


def test_show_bad_document(tmp_path):
    f = tmp_path / "bad.ttj"
    f.write_text("{broken")
    r = run("show", str(f))
    assert r.returncode == 2


def test_apply_pow2(paper_file):
    r = run("apply", "--fn", "pow2", str(paper_file))
    assert r.returncode == 0
    out = tt.parse_tree(r.stdout.strip())
    assert {p: l.item() for p, l in tt.leaves(out)} == {
        ("a",): 4, ("b",): 8, ("x", "c"): 32, ("x", "d"): 128
    }


def test_apply_add_two_files(tmp_path, paper_file):
    r = run("apply", "--fn", "add", str(paper_file), str(paper_file))
    assert r.returncode == 0
    out = tt.parse_tree(r.stdout.strip())
    assert tt.get(out, ["x", "d"]).leaf.item() == 14


def test_apply_policies(tmp_path):
    a = tmp_path / "a.ttj"
    b = tmp_path / "b.ttj"
    a.write_text(tt.serialize_tree(tt.build_tree({"p": 1.0, "q": 2.0})))
    b.write_text(tt.serialize_tree(tt.build_tree({"q": 3.0, "r": 4.0})))
    # strict disagreement is a domain error
    r = run("apply", "--fn", "add", str(a), str(b))
    assert r.returncode == 1
    r = run("apply", "--fn", "add", "--policy", "inner", str(a), str(b))
    assert r.returncode == 0
    out = tt.parse_tree(r.stdout.strip())
    assert [p for p, _ in tt.leaves(out)] == [("q",)]
    r = run("apply", "--fn", "add", "--policy", "outer", "--default", "0",
            str(a), str(b))
    assert r.returncode == 0
    out = tt.parse_tree(r.stdout.strip())
    assert {p: l.item() for p, l in tt.leaves(out)} == {
        ("p",): 1.0, ("q",): 5.0, ("r",): 4.0
    }


def test_apply_structural(tmp_path, paper_file):
    r = run("apply", "--fn", "stack", str(paper_file), str(paper_file))
    assert r.returncode == 0
    out = tt.parse_tree(r.stdout.strip())
    assert tt.get(out, ["a"]).leaf.shape == (2,)
    r = run("apply", "--fn", "shape", str(paper_file))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"a": [], "b": [], "x": {"c": [], "d": []}}


def test_apply_split(tmp_path):
    t = tt.build_tree({"s": tt.make_leaf((4,), "f64", [1, 2, 3, 4])})
    f = tmp_path / "t.ttj"
    f.write_text(tt.serialize_tree(t))
    r = run("apply", "--fn", "split", "--chunk", "2", str(f))
    assert r.returncode == 0
    docs = json.loads(r.stdout)
    assert len(docs) == 2
    pieces = [tt.parse_tree(json.dumps(d)) for d in docs]
    assert tt.lifted_cat(pieces) == t


def test_apply_unknown_fn(paper_file):
    r = run("apply", "--fn", "nosuch", str(paper_file))
    assert r.returncode == 2


def test_validate_ok_and_violation(tmp_path, paper_file):
    spec = tmp_path / "c.ttc"
    spec.write_text(json.dumps(
        [{"path": "", "inherit": True, "atoms": [{"kind": "dtype", "value": "i64"}]}]
    ))
    r = run("validate", "--constraints", str(spec), str(paper_file))
    assert r.returncode == 0
    assert "ok" in r.stdout
    bad = tmp_path / "bad.ttc"
    bad.write_text(json.dumps(
        [{"path": "", "inherit": True, "atoms": [{"kind": "dtype", "value": "f32"}]}]
    ))
    r = run("validate", "--constraints", str(bad), str(paper_file))
    assert r.returncode == 1
    assert r.stderr.strip()


def test_validate_bad_spec(tmp_path, paper_file):
    spec = tmp_path / "c.ttc"
    spec.write_text(json.dumps(
        [{"path": "", "inherit": True, "atoms": [{"kind": "mystery"}]}]
    ))
    r = run("validate", "--constraints", str(spec), str(paper_file))
    assert r.returncode == 2


def test_subside_rise_roundtrip(tmp_path):
    a = tt.build_tree({"p": 1.0})
    b = tt.build_tree({"p": 2.0})
    f = tmp_path / "outer.ttj"
    f.write_text(tt.serialize_outer([a, b]))
    r = run("subside", str(f))
    assert r.returncode == 0
    g = tmp_path / "tree.ttj"
    g.write_text(r.stdout.strip())
    r2 = run("rise", str(g))
    assert r2.returncode == 0
    assert tt.parse_outer(r2.stdout.strip()) == [a, b]


def test_pad_roundtrip(tmp_path):
    import numpy as np
    a = tt.build_tree({"s": np.arange(2.0)})
    b = tt.build_tree({"s": np.arange(5.0)})
    fa, fb = tmp_path / "a.ttj", tmp_path / "b.ttj"
    fa.write_text(tt.serialize_tree(a))
    fb.write_text(tt.serialize_tree(b))
    r = run("pad", "--fill", "0", str(fa), str(fb))
    assert r.returncode == 0
    g = tt.parse_padded_group(r.stdout.strip())
    assert tt.unpad(g) == [a, b]


def test_pad_fill_an_i64_leaf_cannot_hold_exits_1(tmp_path):
    import numpy as np
    files = []
    for n in (2, 5):
        f = tmp_path / f"{n}.ttj"
        f.write_text(tt.serialize_tree(tt.build_tree({"s": np.arange(n, dtype=np.int64)})))
        files.append(str(f))
    r = run("pad", "--fill", "nan", *files)
    assert r.returncode == 1
    assert r.stderr.strip().count("\n") == 0 and "Traceback" not in r.stderr
    assert "fill" in r.stderr


def test_bench_csv_header():
    r = run("bench", "--op", "get", "--leaves", "4", "--elems", "8",
            "--reps", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "op,n_leaves,leaf_elems,impl,mean_ns,stddev_ns,reps"
    assert len(lines) == 3
    impls = {l.split(",")[3] for l in lines[1:]}
    assert impls == {"tree", "naive"}


def test_usage_errors_exit_2():
    r = run("bench", "--op", "frobnicate")
    assert r.returncode == 2
    r = run("nosuchcmd")
    assert r.returncode == 2


def test_validate_negative_axis_spec_exits_2(tmp_path, paper_file):
    spec = tmp_path / "c.ttc"
    spec.write_text(json.dumps(
        [{"path": "", "inherit": True, "atoms": [{"kind": "dim_equals", "axis": -1, "value": 1}]}]
    ))
    r = run("validate", "--constraints", str(spec), str(paper_file))
    assert r.returncode == 2
    assert "must be >= 0" in r.stderr


def test_bench_cset_op():
    r = run("bench", "--op", "cset", "--leaves", "4", "--elems", "8", "--reps", "3")
    assert r.returncode == 0
    rows = [l.split(",") for l in r.stdout.strip().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("cset", "tree"), ("cset", "naive")]


@pytest.mark.parametrize(
    "args, files",
    [
        (["--fn", "add", "--policy", "outer"], 2),  # outer needs --default
        (["--fn", "add", "--policy", "left"], 2),
        (["--fn", "add", "--default", "0"], 2),  # strict forbids one
        (["--fn", "add", "--policy", "inner", "--default", "0"], 2),
        (["--fn", "add"], 1),  # add takes two files
        (["--fn", "pow2"], 2),
        (["--fn", "shape"], 2),  # shape takes one
        (["--fn", "split"], 2),
    ],
)
def test_apply_usage_errors_exit_2_with_one_line(paper_file, args, files):
    r = run("apply", *args, *[str(paper_file)] * files)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip().count("\n") == 0 and "Traceback" not in r.stderr
