"""Valid documents with one field mutated: every parser returns or raises a
TensorTreeError, a tree that parses has a canonical form that parses back
to itself, and rise of it returns or raises a TensorTreeError. Every CLI
command run on such a document, or on one holding NaN or an infinity,
exits 0, 1 or 2 and lets no exception escape."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree import cli
from tensortree.errors import TensorTreeError
from test_hostile_inputs import nonfinite_documents

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


# ---------------------------------------------------------------------------
# the CLI's exit codes: 0, 1 or 2 on every document, never an exception

NONFINITE = [serialize(value) for _, serialize, _, value in nonfinite_documents()]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """(document path, the commands that read it): a valid tree and spec
    stand beside the document where a command takes two files."""
    d = tmp_path_factory.mktemp("cli")
    doc, tree, spec = (str(d / n) for n in ("doc.json", "tree.ttj", "spec.ttc"))
    (d / "tree.ttj").write_text(tt.serialize_tree(_tree()))
    (d / "spec.ttc").write_text(json.dumps(SPEC))
    return doc, [
        ["show", doc],
        ["apply", "--fn", "neg", doc],
        ["apply", "--fn", "add", "--policy", "outer", "--default", "0", doc, tree],
        ["apply", "--fn", "stack", doc, doc],
        ["apply", "--fn", "split", doc],
        ["apply", "--fn", "shape", doc],
        ["validate", "--constraints", spec, doc],  # the document as the tree
        ["validate", "--constraints", doc, tree],  # the document as the spec
        ["rise", doc],
        ["subside", doc],
        ["pad", "--fill", "0", doc, doc],
    ]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(mutations(), st.sampled_from(_documents() + NONFINITE)))
def test_every_cli_command_exits_0_1_or_2_on_a_mutated_document(cli_files, text):
    doc, commands = cli_files
    with open(doc, "w", encoding="utf-8") as fh:
        fh.write(text)
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
