"""Equality agrees with hashing, NaN included, and malformed documents are
parse errors (CLI exit 2) with bounded text rather than silent truncations
or tracebacks."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree import io_formats
from tensortree.errors import (
    ConstraintViolation,
    CorruptLengths,
    LeafOpError,
    NonBooleanMask,
    ParseError,
    PathNotFound,
    StrictKeyMismatch,
    TensorTreeError,
    UnknownAtomKind,
)


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
        ([2], "f64", [1.0]),  # too few elements, once ShapeDataMismatch, CLI exit 1
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
        ([2], "f64", [1.0]),
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
        # a path that is not a string, once an AttributeError
        ("parse_constraint_spec", [{"path": "", "atoms": [{"kind": "shapes_equal", "paths": [3]}]}]),
        # a node atom inheriting by default, once a ValueError
        ("parse_constraint_spec", [{"path": "", "atoms": [{"kind": "leaf_count", "value": 1}]}]),
        # values of two JSON types for one field, once a TypeError in the canonical sort
        ("parse_constraint_spec", [{"path": "", "atoms": [{"kind": "dtype", "value": 3},
                                                          {"kind": "dtype", "value": "f64"}]}]),
        # a float where an integer belongs, once truncated
        ("parse_constraint_spec", [{"path": "", "atoms": [{"kind": "ndim", "value": 1.9}]}]),
        # outer contents of the wrong JSON type, once an AttributeError and a TypeError
        ("parse_outer", {"kind": "map", "entries": [1, 2]}),
        ("parse_outer", {"kind": "seq", "items": 3}),
        # constraints that are not a list, once silently dropped
        ("parse_tree", {**_TREE, "__constraints__": {}}),
        ("parse_tree", {**_TREE, "__constraints__": 0}),
        ("parse_tree", {**_TREE, "__constraints__": False}),
        ("parse_tree", {**_TREE, "__constraints__": ""}),
        ("parse_tree", {**_TREE, "__constraints__": None}),
        # a stacked_seq leaf without a sequence axis, once an IndexError in rise
        ("parse_tree", {"a": {**_LEAF, "shape": [], "stacked_seq": True}}),
        ("parse_tree", {"a": {"__structured__": True,
                              "payload": [{**_LEAF, "shape": [], "stacked_seq": True}]}}),
        # a stacked_seq flag that is not a JSON bool, "false" once read as true
        ("parse_tree", {"a": {**_LEAF, "stacked_seq": "false"}}),
        ("parse_tree", {"a": {**_LEAF, "stacked_seq": 1}}),
        ("parse_tree", {"a": {**_LEAF, "stacked_seq": "no"}}),
        ("parse_tree", {"a": {"__structured__": True, "payload": [{**_LEAF, "stacked_seq": "false"}]}}),
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
        (["validate", "--constraints"],
         [{"path": "", "atoms": [{"kind": "shapes_equal", "paths": [3]}]}]),
        (["validate", "--constraints"], [{"path": "", "atoms": [{"kind": "leaf_count", "value": 1}]}]),
        (["validate", "--constraints"], [{"path": "", "atoms": [{"kind": "dtype", "value": 3},
                                                                {"kind": "dtype", "value": "f64"}]}]),
        (["validate", "--constraints"], [{"path": "", "atoms": [{"kind": "ndim", "value": 1.9}]}]),
        (["subside"], {"kind": "map", "entries": [1, 2]}),
        (["subside"], {"kind": "seq", "items": 3}),
        (["rise"], {"a": {**_LEAF, "shape": [], "stacked_seq": True}}),
        (["rise"], {"a": {"__structured__": True,
                          "payload": [{**_LEAF, "shape": [], "stacked_seq": True}]}}),
        (["show"], {"a": {**_LEAF, "stacked_seq": "false"}}),
        (["show"], {"a": {**_LEAF, "stacked_seq": 1}}),
        (["rise"], {"a": {**_LEAF, "stacked_seq": "no"}}),
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


@pytest.mark.parametrize("kind", [["dtype"], {"dtype": 1}, 3, None])
def test_an_atom_kind_that_is_not_a_string_is_an_unknown_kind(kind):
    with pytest.raises(UnknownAtomKind):
        tt.parse_constraint_spec(json.dumps([{"path": "", "atoms": [{"kind": kind}]}]))


@pytest.mark.parametrize("field, value", [("value", True), ("value", None), ("value", "1"),
                                          ("axis", 0.0), ("axis", [0])])
def test_an_int_field_takes_only_a_json_integer(field, value):
    atom = {"kind": "dim_equals", "axis": 0, "value": 1, field: value}
    with pytest.raises(ParseError, match=repr(field)):
        tt.parse_constraint_spec(json.dumps([{"path": "", "inherit": False, "atoms": [atom]}]))


def nested_document(depth: int) -> str:
    """A tree document holding one leaf `depth` objects down, written as
    text: `json.dumps` itself recurses too deep for 5000."""
    return '{"k":' * depth + json.dumps(_LEAF) + "}" * depth


def show(tmp_path, text):
    f = tmp_path / "doc.ttj"
    f.write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "tensortree.cli", "show", str(f)], capture_output=True, text=True
    )


def test_a_document_100_deep_parses():
    text = nested_document(100)
    t = tt.parse_tree(text)
    assert tt.leaves(t)[0][0] == ("k",) * 100
    assert tt.parse_tree(tt.serialize_tree(t)) == t


@pytest.mark.parametrize("depth", [5000, 700])
def test_a_document_nested_too_deep_is_a_parse_error(depth):
    # 5000 is too deep for `json` itself, 700 for the walks after it
    with pytest.raises(ParseError):
        tt.parse_tree(nested_document(depth))


@pytest.mark.parametrize(
    "parse, text",
    [
        ("parse_outer", '{"kind":"seq","items":[' * 5000 + "]}" * 5000),
        ("parse_outer", '{"kind":"seq","items":[' * 700 + "]}" * 700),
        ("parse_constraint_spec", "[" * 5000 + "]" * 5000),
        ("parse_padded_group", '{"__padded_group__":true,"stacked":' + nested_document(5000)
         + ',"lengths":{},"fill":0}'),
    ],
    ids=["outer-5000", "outer-700", "spec-5000", "padded-5000"],
)
def test_every_document_parser_turns_deep_nesting_into_a_parse_error(parse, text):
    with pytest.raises(ParseError):
        getattr(tt, parse)(text)


@pytest.mark.parametrize("depth, code", [(100, 0), (5000, 2)])
def test_cli_show_of_a_deep_document(tmp_path, depth, code):
    r = show(tmp_path, nested_document(depth))
    assert r.returncode == code
    assert "Traceback" not in r.stderr
    if code:
        assert "parse error" in r.stderr


@pytest.mark.parametrize("key", ["__x", "", "a/b"])
def test_a_bad_key_in_a_document_is_a_parse_error(tmp_path, key):
    # build_tree itself still raises BadKey or EmptyKey (tests/test_tree.py)
    text = json.dumps({"a": {key: _LEAF}})
    with pytest.raises(ParseError, match="key"):
        tt.parse_tree(text)
    r = show(tmp_path, text)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "parse error" in r.stderr


# NaNs that differ in sign or payload, -0.0 and 0.0: the leaves of these
# compare equal exactly when they hold the same numbers, NaN counting as one
_SPECIAL = {
    "f64": np.array([np.nan, -np.nan, 0.0, -0.0, 1.0]
                    + [np.array(0x7FF8000000000001, np.uint64).view(np.float64)]),
    "f32": np.array([np.nan, -np.nan, 0.0, -0.0, 1.0]
                    + [np.array(0x7FC00001, np.uint32).view(np.float32)], dtype=np.float32),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(["f32", "f64"]), st.lists(st.integers(0, 5), max_size=4),
       st.lists(st.integers(0, 5), max_size=4))
def test_nan_and_signed_zero_leaves_compare_equal_exactly_when_they_hash_equal(dtype, i, j):
    pool = _SPECIAL[dtype]
    a, b = tt.TensorLeaf(pool[i]), tt.TensorLeaf(pool[j])
    numbers = lambda x: [None if np.isnan(v) else v for v in x.array.tolist()]  # noqa: E731
    assert (a == b) == (numbers(a) == numbers(b)) == (hash(a) == hash(b))
    assert (tt.build_tree({"x": a}) == tt.build_tree({"x": b})) == (a == b)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_a_tree_holding_nan_survives_a_round_trip(dtype):
    pool = _SPECIAL[dtype]
    t = tt.build_tree({"a": tt.TensorLeaf(pool), "b": {"c": tt.TensorLeaf(pool[:1].reshape(()))}})
    back = tt.parse_tree(tt.serialize_tree(t))
    assert back == t and hash(back.root) == hash(t.root)
    assert tt.get(back, ["a"]) != tt.get(tt.lift_unary("neg")(back), ["a"])


def strict_loads(text: str):
    """json.loads that rejects the bare NaN, Infinity and -Infinity tokens,
    which are not JSON."""
    def reject(token):
        raise ValueError(f"bare {token} is not JSON")
    return json.loads(text, parse_constant=reject)


NONFINITE = [np.nan, np.inf, -np.inf, 1.0]


def nonfinite_documents():
    """(name, serialize, parse, value) of each kind of document, each
    holding a NaN or an infinity."""
    f64 = tt.build_tree({"a": np.array(NONFINITE), "b": {"c": np.array(np.nan)}})
    f32 = tt.build_tree({"a": np.array(NONFINITE, np.float32).reshape(2, 2)})
    ragged = [tt.build_tree({"s": np.array(NONFINITE[:n])}) for n in (1, 3)]
    return [
        ("f64", tt.serialize_tree, tt.parse_tree, f64),
        ("f32", tt.serialize_tree, tt.parse_tree, f32),
        ("stacked_seq", tt.serialize_tree, tt.parse_tree, tt.subside([f64, f64])),
        ("structured", tt.serialize_tree, tt.parse_tree, tt.subside({"m": ragged})),
        ("outer", tt.serialize_outer, tt.parse_outer, [f64, {"m": tt.lift_unary("neg")(f64)}]),
        ("padded", tt.serialize_padded_group, tt.parse_padded_group, tt.group_pad(ragged, np.nan)),
    ]


@pytest.mark.parametrize("name, serialize, parse, value", nonfinite_documents(),
                         ids=[d[0] for d in nonfinite_documents()])
def test_documents_holding_nan_and_infinities_are_json_and_round_trip(name, serialize, parse, value):
    text = serialize(value)
    strict_loads(text)
    back = parse(text)
    assert serialize(back) == text
    if name not in ("outer", "padded"):
        assert back == value
    if name == "padded":
        assert np.isnan(back.fill) and back.stacked == value.stacked and back.lengths == value.lengths


@pytest.mark.parametrize("dtype", ["f32", "f64", "i64", "bool"])
def test_only_the_three_nonfinite_strings_parse_and_only_as_floats(dtype):
    for text in ("NaN", "Infinity", "-Infinity", "nan", "inf", "-inf", "+Infinity", "1.0", ""):
        doc = leaf_document([2], dtype, [text, 0])
        group = json.dumps({"__padded_group__": True, "fill": text, "stacked": {}, "lengths": {}})
        if dtype in ("f32", "f64") and text in ("NaN", "Infinity", "-Infinity"):
            value = float(text)
            got = tt.get(tt.parse_tree(doc), ["a"]).array[0]
            assert got == value or np.isnan(value) and np.isnan(got)
            fill = tt.parse_padded_group(group).fill
            assert fill == value or np.isnan(value) and np.isnan(fill)
        else:
            with pytest.raises(ParseError):
                tt.parse_tree(doc)
            if text not in ("NaN", "Infinity", "-Infinity"):
                with pytest.raises(ParseError):
                    tt.parse_padded_group(group)


_HUGE = {f"k{i}": {"x": {**_LEAF, "shape": [2000], "data": [1.0] * 2000}} for i in range(50)}


@pytest.mark.parametrize(
    "parse, doc, where",
    [
        ("parse_outer", _HUGE, "at /:"),
        ("parse_outer", {"kind": "seq", "items": [{"kind": "map", "entries": {"m": _HUGE}}]},
         "at /0/m/:"),
        ("parse_tree", {"a": {"__structured__": True, "payload": [{"b": "x" * 10**6}]}},
         "at payload/0/b:"),
        ("parse_constraint_spec", [{"path": "", "atoms": []}, _HUGE], "entry 1:"),
        ("parse_constraint_spec", [{"path": "p", "inherit": "no", "atoms": [_HUGE]}], "'p'"),
        ("parse_constraint_spec", [{"path": "p", "atoms": [[_HUGE]]}], "placement 'p'"),
        ("parse_constraint_spec", [{"path": "p", "atoms": [{"kind": "dtype", **_HUGE}]}],
         "placement 'p'"),
        ("parse_constraint_spec", [{"path": "x" * 10**6, "atoms": 3}], "xxx...xxx"),
        # a huge key on the way to the bad element
        ("parse_outer", {"kind": "map", "entries": {"k" * 10**6: 3}}, "at /kkk"),
        ("parse_tree", {"a": {"__structured__": True, "payload": {"k" * 10**6: 3}}},
         "at payload/kkk"),
        ("parse_tree", {"a": {**_LEAF, "dtype": "x" * 10**6}}, "unknown dtype"),
        ("parse_tree", {"a": {**_LEAF, "shape": ["s"] * 10**6}}, "shape"),
        # a leaf's error names its path, cut short if the path is long
        ("parse_tree", {"x": {"y": {**_LEAF, "device": [1]}}}, "leaf at x/y: 'device'"),
        ("parse_tree", {"x": {"y": {**_LEAF, "dtype": "f16"}}}, "leaf at x/y: unknown dtype"),
        ("parse_tree", {"x": {"y": {**_LEAF, "data": [True]}}}, "leaf at x/y: f64 data"),
        ("parse_tree", {"x": {"y": {**_LEAF, "stacked_seq": "false"}}}, "leaf at x/y: 'stacked_seq'"),
        ("parse_tree", {"k" * 10**6: {"y": {**_LEAF, "device": [1]}}}, "leaf at kkk"),
        ("parse_tree", {"x": {"y": 3}}, "at x/y, got int"),
        # a leaf in a structured payload is named by the structured leaf's path too
        ("parse_tree", {"x": {"y": {"__structured__": True, "payload": [{**_LEAF, "stacked_seq": 1}]}}},
         "leaf at x/y/payload/0: 'stacked_seq'"),
        ("parse_tree", {"k" * 10**6: {"__structured__": True, "payload": [{**_LEAF, "device": [1]}]}},
         "leaf at kkk"),
        # a shape whose element count is not the data's, once quoted whole
        ("parse_tree", {"x": {"y": {**_LEAF, "shape": [2] * 10**4}}}, "leaf at x/y: bad f64 data"),
    ],
)
def test_parse_errors_quote_a_bounded_repr_and_name_where(parse, doc, where):
    with pytest.raises(TensorTreeError) as e:
        getattr(tt, parse)(json.dumps(doc))
    assert where in str(e.value)
    assert len(str(e.value)) < io_formats._SHOWN + 100


# ---------------------------------------------------------------------------
# error messages quote a bounded path


LONG = "k" * 100000
BOUND = 300  # the message around a path and a key list of at most 200 characters each


def bounded(exc, path):
    assert exc.path == path  # the attribute stays whole
    assert len(str(exc)) < BOUND


def test_path_errors_quote_a_bounded_path():
    t = tt.build_tree({"a": np.zeros(2), "x": {"b": np.zeros(2)}})
    long_path = ("x", LONG)
    for fail in (lambda: t.with_constraints({long_path: tt.inherit_atom(tt.DtypeIs("f64"))}),
                 lambda: tt.get(t, long_path), lambda: tt.remove(t, long_path)):
        with pytest.raises(PathNotFound) as info:
            fail()
        bounded(info.value, long_path)


def test_strict_key_mismatch_quotes_a_bounded_path_and_key_list():
    t = tt.build_tree({"a": np.zeros(2), "x": {"b": np.zeros(2)}})
    with pytest.raises(StrictKeyMismatch) as info:
        tt.lift_multi("add")(t, tt.build_tree({"a": np.zeros(2), LONG: np.zeros(2)}))
    assert LONG in info.value.difference
    bounded(info.value, ())
    inner = tt.build_tree({LONG: {"a": np.zeros(2)}})
    with pytest.raises(StrictKeyMismatch) as info:
        tt.lift_multi("add")(inner, tt.build_tree({LONG: {"b": np.zeros(2)}}))
    bounded(info.value, (LONG,))


def test_leaf_op_errors_and_violations_quote_a_bounded_path():
    t = tt.build_tree({LONG: tt.make_leaf([1], "i64", [1])})
    with pytest.raises(LeafOpError) as info:
        tt.lift_multi("div")(t, tt.build_tree({LONG: tt.make_leaf([1], "i64", [0])}))
    bounded(info.value, (LONG,))
    with pytest.raises(ConstraintViolation) as info:
        t.with_constraints({(LONG,): tt.inherit_atom(tt.DtypeIs("f64"))})
    bounded(info.value, (LONG,))


def test_unpad_and_mask_errors_quote_a_bounded_path():
    def group(stacked, lengths):
        return tt.PaddedGroup(tt.build_tree({LONG: stacked}), tt.build_tree({LONG: lengths}), 0.0)

    one = tt.make_leaf([1], "i64", [1])
    for g in (group(np.zeros(3), one),  # no length dimension
              group(np.zeros((1, 2)), tt.make_leaf([1], "f64", [1.0])),  # lengths not i64
              group(np.zeros((1, 2)), tt.make_leaf([1], "i64", [5]))):  # a length past the end
        with pytest.raises(CorruptLengths) as info:
            tt.unpad(g)
        assert len(str(info.value)) < BOUND
    t = tt.build_tree({LONG: np.zeros(1)})
    with pytest.raises(NonBooleanMask) as info:
        tt.mask(t, t)
    assert len(str(info.value)) < BOUND


def test_unpad_quotes_a_bounded_lengths_list_and_batch_size_list():
    # a batch of 100000 lengths, each past the end of a length dimension of 2
    stacked = tt.build_tree({"a": np.zeros((100000, 2))})
    lengths = tt.build_tree({"a": tt.make_leaf([100000], "i64", [5] * 100000)})
    with pytest.raises(CorruptLengths, match="must lie in") as info:
        tt.unpad(tt.PaddedGroup(stacked, lengths, 0.0))
    assert len(str(info.value)) < BOUND
    # 2000 leaves, each with a batch size of its own
    stacked = tt.build_tree({f"k{i}": np.zeros((i + 1, 1)) for i in range(2000)})
    lengths = tt.build_tree({f"k{i}": tt.make_leaf([i + 1], "i64", [0] * (i + 1))
                             for i in range(2000)})
    with pytest.raises(CorruptLengths, match="inconsistent batch sizes") as info:
        tt.unpad(tt.PaddedGroup(stacked, lengths, 0.0))
    assert len(str(info.value)) < BOUND


@pytest.mark.parametrize("value", ["x" * 100000, -int("9" * 4000)], ids=["long-str", "long-int"])
def test_a_bad_atom_quotes_a_bounded_atom_path_and_cause(value):
    spec = [{"path": LONG, "atoms": [{"kind": "ndim", "value": value}]}]
    with pytest.raises(ParseError, match="bad atom") as info:
        tt.parse_constraint_spec(json.dumps(spec))
    assert len(str(info.value)) < BOUND


def test_cli_validate_of_a_long_missing_path_exits_1_with_one_bounded_line(tmp_path):
    doc, spec = tmp_path / "t.ttj", tmp_path / "c.ttc"
    doc.write_text(tt.serialize_tree(tt.build_tree({"x": {"b": np.zeros(2)}})))
    spec.write_text(json.dumps([{"path": "x/" + LONG, "inherit": True,
                                 "atoms": [{"kind": "dtype", "value": "f64"}]}]))
    r = subprocess.run([sys.executable, "-m", "tensortree.cli", "validate", "--constraints",
                        str(spec), str(doc)], capture_output=True, text=True)
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and len(lines[0]) < BOUND


def _ragged_pair():
    return [tt.build_tree({"s": np.arange(2.0), "m": np.ones(2, bool)}),
            tt.build_tree({"s": np.arange(3.0), "m": np.ones(3, bool)})]


@pytest.mark.parametrize("fill", [None, "1.5", 1 + 2j, [0], {}, np.array(0.0), np.complex64(1)],
                         ids=["none", "str", "complex", "list", "dict", "0d-array", "np-complex"])
def test_group_pad_rejects_a_fill_that_is_not_a_real_number(fill):
    with pytest.raises(TypeError, match="fill") as info:
        tt.group_pad(_ragged_pair(), fill)
    assert len(str(info.value)) < BOUND


@pytest.mark.parametrize("fill", [0, -1.5, True, np.float32(2.5), np.int64(-3), np.bool_(False)])
def test_group_pad_takes_any_real_number_as_its_fill(fill):
    g = tt.group_pad(_ragged_pair(), fill)
    assert g.fill is fill
    assert tt.get(g.stacked, ["s"]).leaf.data[2] == np.float64(fill)
    assert tt.unpad(g) == _ragged_pair()


@pytest.mark.parametrize("fill", ['"x"', "null", "[1]", "{}"])
def test_a_padded_group_document_with_a_fill_that_is_not_a_number_is_a_parse_error(fill):
    doc = json.loads(tt.serialize_padded_group(tt.group_pad(_ragged_pair(), 0.0)))
    doc["fill"] = json.loads(fill)
    with pytest.raises(ParseError, match="fill"):
        tt.parse_padded_group(json.dumps(doc))
    for good in (2, -0.5, True):
        doc["fill"] = good
        assert tt.parse_padded_group(json.dumps(doc)).fill == good
