import json
import random

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import DtypeUnknown, ParseError, UnknownAtomKind

from helpers import paper_tree, rand_tree, rand_tree_family


def test_roundtrip_paper_tree():
    t = paper_tree()
    text = tt.serialize_tree(t)
    assert tt.parse_tree(text) == t


def test_serialize_is_canonical_json():
    t = paper_tree()
    text = tt.serialize_tree(t)
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == text


def test_roundtrip_random_trees():
    rng = random.Random(71)
    for _ in range(100):
        t = rand_tree(rng)
        assert tt.parse_tree(tt.serialize_tree(t)) == t


def test_byte_determinism():
    rng = random.Random(72)
    for _ in range(30):
        t = rand_tree(rng)
        a = tt.serialize_tree(t)
        b = tt.serialize_tree(tt.parse_tree(a))
        assert a == b
        # key insertion order must not matter
        rebuilt = tt.rebuild(list(reversed(tt.leaves(t))))
        assert tt.serialize_tree(rebuilt) == a


def test_all_dtypes_roundtrip():
    t = tt.build_tree({
        "f32": tt.make_leaf((2,), "f32", [1.5, -2.5]),
        "f64": tt.make_leaf((2,), "f64", [1e-300, 3.141592653589793]),
        "i64": tt.make_leaf((2,), "i64", [-(2 ** 62), 2 ** 62]),
        "bool": tt.make_leaf((2,), "bool", [True, False]),
        "zero_d": tt.scalar(4.25),
        "empty": tt.make_leaf((0, 3), "f64", []),
    })
    assert tt.parse_tree(tt.serialize_tree(t)) == t


def test_constraints_roundtrip():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}})
    t = t.with_constraints({
        (): tt.inherit_atom(tt.DtypeIs("f64")),
        ("x",): tt.noninherit_atom(tt.LeafCountIs(1)),
    })
    back = tt.parse_tree(tt.serialize_tree(t))
    assert back == t
    assert tt.validate_full(back) == []


def test_stacked_leaf_roundtrip():
    t = tt.subside([tt.build_tree({"p": 1.0}), tt.build_tree({"p": 2.0})])
    back = tt.parse_tree(tt.serialize_tree(t))
    assert back == t
    assert isinstance(tt.get(back, ["p"]).leaf, tt.StackedLeaf)
    assert tt.rise(back) == tt.rise(t)


def test_structured_leaf_roundtrip():
    t = tt.subside([
        tt.build_tree({"p": np.arange(2.0)}),
        tt.build_tree({"p": np.arange(3.0)}),
    ])
    back = tt.parse_tree(tt.serialize_tree(t))
    assert back == t
    assert tt.rise(back) == tt.rise(t)


def test_outer_docs_roundtrip():
    a = tt.build_tree({"p": 1.0})
    b = tt.build_tree({"p": 2.0})
    for outer in ([a, b], {"one": a, "two": b}, a):
        text = tt.serialize_outer(outer)
        back = tt.parse_outer(text)
        if isinstance(outer, list):
            assert back == outer
        elif isinstance(outer, dict):
            assert back == outer
        else:
            assert back == outer


def test_padded_group_roundtrip():
    g = tt.group_pad(
        [tt.build_tree({"s": np.arange(2.0)}), tt.build_tree({"s": np.arange(5.0)})],
        fill=0.0,
    )
    back = tt.parse_padded_group(tt.serialize_padded_group(g))
    assert back.stacked == g.stacked
    assert back.lengths == g.lengths
    assert back.fill == g.fill
    assert tt.unpad(back) == tt.unpad(g)


def test_constraint_spec_parsing():
    spec = json.dumps([
        {"path": "", "inherit": True,
         "atoms": [{"kind": "dtype", "value": "f64"}, {"kind": "ndim", "value": 1}]},
        {"path": "x", "inherit": False,
         "atoms": [{"kind": "leaf_count", "value": 1}]},
    ])
    placements = tt.parse_constraint_spec(spec)
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}})
    t = t.with_constraints(placements)
    assert tt.validate_full(t) == []


def test_every_atom_kind_parses_to_its_atom_and_serializes_back():
    spec = [
        {"path": "", "inherit": True, "atoms": [
            {"kind": "device", "value": "cpu"}, {"kind": "dim_at_least", "axis": 0, "value": 1},
            {"kind": "dtype", "value": "f64"}, {"kind": "ndim", "value": 1}]},
        {"path": "x", "inherit": False, "atoms": [
            {"kind": "leaf_count", "value": 1}, {"kind": "shapes_equal", "paths": ["c"]},
            {"kind": "shared_prefix", "paths": ["c"], "k": 1}]},
        {"path": "x/c", "inherit": False, "atoms": [{"kind": "dim_equals", "axis": 0, "value": 3}]},
    ]
    placements = tt.parse_constraint_spec(json.dumps(spec))
    assert placements == {
        (): tt.Constraint([(True, tt.DeviceIs("cpu")), (True, tt.DimAtLeast(0, 1)),
                           (True, tt.DtypeIs("f64")), (True, tt.NdimIs(1))]),
        ("x",): tt.Constraint([(False, tt.LeafCountIs(1)), (False, tt.ShapesEqual((("c",),))),
                               (False, tt.SharedPrefix((("c",),), 1))]),
        ("x", "c"): tt.Constraint([(False, tt.DimEquals(0, 3))]),
    }
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}}).with_constraints(placements)
    text = tt.serialize_tree(t)
    entries = {(e["path"], e["inherit"]): e["atoms"] for e in json.loads(text)["__constraints__"]}
    for placement in spec:
        assert entries[placement["path"], placement["inherit"]] == placement["atoms"]
    assert tt.parse_tree(text) == t


def test_parse_errors():
    with pytest.raises(ParseError):
        tt.parse_tree("{not json")
    with pytest.raises(ParseError):
        tt.parse_tree(json.dumps([1, 2]))
    with pytest.raises(ParseError):
        tt.parse_tree(json.dumps({"a": {"__leaf__": True, "shape": [2], "dtype": "f64"}}))
    with pytest.raises(DtypeUnknown):
        tt.parse_tree(json.dumps(
            {"a": {"__leaf__": True, "shape": [1], "dtype": "f16", "data": [1], "device": "cpu"}}
        ))
    with pytest.raises(ParseError):
        tt.parse_constraint_spec(json.dumps(
            [{"path": "", "inherit": True, "atoms": [{"kind": "ndim"}]}]
        ))
    with pytest.raises(UnknownAtomKind):
        tt.parse_constraint_spec(json.dumps(
            [{"path": "", "inherit": True, "atoms": [{"kind": "no_such"}]}]
        ))


def test_leaf_flag_disambiguation():
    # shape/dtype/data keys without the leaf flag parse as a tree node
    leaf_doc = {"__leaf__": True, "shape": [], "dtype": "i64",
                "data": [7], "device": "cpu"}
    doc = {"a": {"shape": leaf_doc, "dtype": leaf_doc, "data": leaf_doc}}
    t = tt.parse_tree(json.dumps(doc))
    assert [p for p, _ in tt.leaves(t)] == [
        ("a", "data"), ("a", "dtype"), ("a", "shape")
    ]
