"""Equality agrees with hashing, and malformed leaf documents are parse
errors (CLI exit 2) rather than silent truncations or tracebacks."""

import json
import subprocess
import sys

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import ParseError


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_signed_zeros_compare_and_hash_equal(dtype):
    pos, neg = tt.scalar(0.0, dtype), tt.scalar(-0.0, dtype)
    assert pos == neg and hash(pos) == hash(neg)
    a = tt.make_leaf((3,), dtype, [0.0, -0.0, 1.0])
    b = tt.make_leaf((3,), dtype, [-0.0, 0.0, 1.0])
    assert a == b and hash(a) == hash(b)
    ta, tb = tt.build_tree({"x": {"y": a}, "z": pos}), tt.build_tree({"x": {"y": b}, "z": neg})
    assert ta == tb and hash(ta.root) == hash(tb.root)
    assert len({ta.root, tb.root}) == 1


def test_hashing_leaves_their_array_untouched():
    a = np.array([-0.0, 2.0])
    leaf = tt.from_array(a)
    hash(leaf)
    assert np.signbit(leaf.array[0]) and not leaf.array.flags.writeable


def leaf_document(shape, dtype, data):
    return json.dumps({"a": {"__leaf__": True, "shape": shape, "dtype": dtype, "data": data}})


@pytest.mark.parametrize(
    "shape, dtype, data",
    [
        ([1.7], "f64", [1.0]),  # a fractional dimension, once read as 1
        (["a"], "f64", [1.0]),  # once a bare ValueError
        ([True], "f64", [1.0]),  # a bool is not a dimension
        ([1], "i64", [1.5]),  # once truncated to 1
        ([1], "i64", [True]),  # a bool is not an i64
        ([1], "i64", [2**70]),  # does not fit an i64
        ([1], "bool", [2]),  # once read as True
        ([1], "bool", [1]),
        ([1], "f64", ["x"]),  # once a bare ValueError
        ([2], "f64", "ab"),  # data must be a list
        ([-1], "f64", []),  # once ShapeDataMismatch, CLI exit 1
        ([2, -1], "i64", []),
        ([1], "f64", [None]),  # once read as NaN
        ([1], "f32", ["1.5"]),  # once read as 1.5
        ([1], "f64", [True]),  # once read as 1.0
        ([2], "f64", [[1], [2]]),  # once reshaped to [2]
    ],
)
def test_malformed_leaf_data_is_a_parse_error(shape, dtype, data):
    with pytest.raises(ParseError):
        tt.parse_tree(leaf_document(shape, dtype, data))


def test_well_formed_leaves_still_parse():
    t = tt.parse_tree(leaf_document([2], "i64", [-3, 4]))
    assert t == tt.build_tree({"a": tt.make_leaf((2,), "i64", [-3, 4])})
    assert tt.parse_tree(leaf_document([1], "bool", [True])).root.get("a").data == [True]
    # float leaves keep numpy's conversion: an integer is a valid f64
    assert tt.parse_tree(leaf_document([1, 1], "f64", [2])).root.get("a").data == [2.0]


@pytest.mark.parametrize(
    "shape, dtype, data",
    [
        (["a"], "f64", [1.0]), ([1.7], "f64", [1.0]), ([1], "i64", [1.5]), ([-1], "f64", []),
        ([1], "f64", [None]), ([1], "f32", ["1.5"]), ([1], "f64", [True]), ([2], "f64", [[1], [2]]),
    ],
)
def test_cli_exits_2_on_a_malformed_leaf(tmp_path, shape, dtype, data):
    f = tmp_path / "bad.ttj"
    f.write_text(leaf_document(shape, dtype, data))
    r = subprocess.run(
        [sys.executable, "-m", "tensortree.cli", "show", str(f)], capture_output=True, text=True
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "parse error" in r.stderr


def device_document(device):
    return json.dumps({"a": {"__leaf__": True, "shape": [1], "dtype": "f64", "data": [1.0],
                             "device": device}})


@pytest.mark.parametrize("device", [[1], None, 3], ids=["list", "null", "int"])
def test_a_device_that_is_not_a_string_is_a_parse_error(tmp_path, device):
    # a list once parsed, and then made hashing the leaf raise TypeError
    text = device_document(device)
    with pytest.raises(ParseError):
        tt.parse_tree(text)
    f = tmp_path / "bad.ttj"
    f.write_text(text)
    r = subprocess.run(
        [sys.executable, "-m", "tensortree.cli", "show", str(f)], capture_output=True, text=True
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "parse error" in r.stderr


def test_a_string_device_still_parses_and_hashes():
    t = tt.parse_tree(device_document("gpu0"))
    assert t.root.get("a").device == "gpu0"
    hash(t.root)


_LEAF = {"__leaf__": True, "shape": [1], "dtype": "f64", "data": [1.0]}
_TREE = {"a": _LEAF}
_LENGTHS = {"a": {"__leaf__": True, "shape": [1], "dtype": "i64", "data": [1]}}


@pytest.mark.parametrize(
    "parse, doc",
    [
        # a padded group missing a field, once a KeyError
        ("parse_padded_group", {"__padded_group__": True, "lengths": _LENGTHS, "fill": 0}),
        ("parse_padded_group", {"__padded_group__": True, "stacked": _TREE, "fill": 0}),
        ("parse_padded_group", {"__padded_group__": True, "stacked": _TREE, "lengths": _LENGTHS}),
        # an outer structure missing its contents, once a KeyError
        ("parse_outer", {"kind": "seq"}),
        ("parse_outer", {"kind": "map"}),
        ("parse_outer", {"kind": "tree"}),
        ("parse_outer", {"kind": "seq", "items": [{"kind": "tree"}]}),
        # a structured payload without its payload, once a KeyError
        ("parse_tree", {"a": {"__structured__": True}}),
        # an atom that is not an object, once an AttributeError
        ("parse_constraint_spec", [{"path": "", "atoms": [3]}]),
        ("parse_constraint_spec", [{"path": "", "atoms": "ab"}]),
        ("parse_constraint_spec", [{"path": "", "atoms": 3}]),
        # an inherit flag that is not a JSON bool, "false" once read as true
        ("parse_constraint_spec", [{"path": "", "inherit": "false", "atoms": []}]),
        ("parse_constraint_spec", [{"path": "", "inherit": 0, "atoms": []}]),
    ],
)
def test_malformed_documents_are_parse_errors(parse, doc):
    with pytest.raises(ParseError):
        getattr(tt, parse)(json.dumps(doc))


@pytest.mark.parametrize(
    "command, doc",
    [
        (["subside"], {"kind": "seq"}),
        (["subside"], {"kind": "tree"}),
        (["show"], {"a": {"__structured__": True}}),
        (["validate", "--constraints"], [{"path": "", "atoms": [3]}]),
        (["validate", "--constraints"], [{"path": "", "inherit": "false", "atoms": []}]),
    ],
)
def test_cli_exits_2_on_a_malformed_document(tmp_path, command, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    tree = tmp_path / "tree.ttj"
    tree.write_text(json.dumps(_TREE))
    args = [*command, str(f)] + ([str(tree)] if command[0] == "validate" else [])
    r = subprocess.run(
        [sys.executable, "-m", "tensortree.cli", *args], capture_output=True, text=True
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "parse error" in r.stderr
