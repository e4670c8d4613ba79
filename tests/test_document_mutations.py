"""Valid documents with one field mutated: every parser returns or raises a
TensorTreeError, a tree that parses has a canonical form that parses back
to itself, and rise of it returns or raises a TensorTreeError."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree.errors import TensorTreeError

PARSERS = (tt.parse_tree, tt.parse_outer, tt.parse_padded_group, tt.parse_constraint_spec)

SPEC = [
    {"path": "", "inherit": True, "atoms": [{"kind": "device", "value": "cpu"}]},
    {"path": "a", "inherit": False, "atoms": [
        {"kind": "dtype", "value": "f64"}, {"kind": "ndim", "value": 1},
        {"kind": "dim_equals", "axis": 0, "value": 2}, {"kind": "dim_at_least", "axis": 0, "value": 1}]},
    {"path": "b", "inherit": False, "atoms": [
        {"kind": "leaf_count", "value": 2}, {"kind": "shapes_equal", "paths": ["c"]},
        {"kind": "shared_prefix", "paths": ["c", "d"], "k": 0}]},
]


def _tree(x=1.0):
    return tt.build_tree({"a": tt.make_leaf([2], "f64", [x, -2.5]),
                          "b": {"c": tt.make_leaf([], "i64", [3]),
                                "d": tt.make_leaf([1, 2], "bool", [True, False])}})


def _documents():
    t = _tree()
    ragged = [tt.build_tree({"s": tt.make_leaf([n], "f32", [0.5] * n)}) for n in (1, 2)]
    return [
        tt.serialize_tree(t.with_constraints(tt.parse_constraint_spec(json.dumps(SPEC)))),
        tt.serialize_tree(tt.subside([t, _tree(4.0)])),  # stacked_seq leaves
        tt.serialize_tree(tt.subside([tt.build_tree({"z": tt.scalar(2.0)})])),  # a sequence of 1
        tt.serialize_tree(tt.subside({"m": ragged})),  # a structured payload
        tt.serialize_outer([t, {"m": ragged[0]}]),
        tt.serialize_padded_group(tt.group_pad(ragged, 0.0)),
        json.dumps(SPEC),
    ]


DOCUMENTS = [json.loads(text) for text in _documents()]
VALUES = (None, 0, 1.5, True, "x", [], {})  # [] as a shape makes a leaf 0-d


def _fields(doc, at=()):
    """The path of every object field in a JSON value."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield at + (k,)
            yield from _fields(v, at + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _fields(v, at + (i,))


def _mutated(doc, field, mutation):
    doc = json.loads(json.dumps(doc))
    *up, last = field
    parent = doc
    for step in up:
        parent = parent[step]
    if mutation == "delete":
        del parent[last]
    else:
        parent[last] = mutation
    return json.dumps(doc)


@st.composite
def mutations(draw):
    doc = draw(st.sampled_from(DOCUMENTS))
    field = draw(st.sampled_from(list(_fields(doc))))
    return _mutated(doc, field, draw(st.sampled_from(("delete",) + VALUES)))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(mutations())
@example(_mutated(DOCUMENTS[4], ("items", 1, "entries"), [1, 2]))  # once an AttributeError
@example(_mutated(DOCUMENTS[4], ("items",), 3))  # once a TypeError
@example(_mutated(DOCUMENTS[2], ("z", "shape"), []))  # a 0-d stacked_seq leaf, once an IndexError
def test_a_mutated_document_parses_or_is_an_error(text):
    for parse in PARSERS:
        try:
            out = parse(text)
        except TensorTreeError:
            continue
        if parse is tt.parse_tree:
            canon = tt.serialize_tree(out)
            assert tt.serialize_tree(tt.parse_tree(canon)) == canon
            try:
                tt.rise(out)
            except TensorTreeError:
                pass
