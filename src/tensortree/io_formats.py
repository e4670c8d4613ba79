"""Textual (JSON) external representations.

Tree documents (`.ttj`): tree nodes are objects keyed by child name; value
nodes are objects with `"__leaf__": true` plus shape/dtype/data/device.
Without the `__leaf__` flag an object is always a tree node, even if its
children happen to be named shape/dtype/data. Constraint placements ride
along under the reserved top-level key `"__constraints__"`.

Constraint spec documents (`.ttc`): a JSON list of placements
`{"path": "x/c", "inherit": true, "atoms": [{"kind": ..., ...}]}`.
Axis indices are 0-based.

Serialization is canonical: children in ascending key order, minimal
separators, floats in shortest round-trip decimal form. Equal trees yield
byte-identical documents.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from . import constraints as _c
from .errors import _SHOWN, BadKey, BadPath, DtypeUnknown, EmptyKey, ParseError, UnknownAtomKind
from .errors import ShapeDataMismatch, _quoted, _shown, _where
from .functional import StackedLeaf, StructuredLeaf, nested_map
from .leaf import DTYPES, TensorLeaf, _new_leaf, make_leaf
from .node import Path, ValueNode, as_dict, path_from_string, path_to_string
from .padding import PaddedGroup
from .tree import TreeTensor, build_tree


def _document(parse):
    """`parse` raising ParseError for a bad key and for nesting deeper than
    the recursion limit allows, in `json` or in the walks after it."""
    @functools.wraps(parse)
    def wrapped(text: str):
        try:
            return parse(text)
        except (BadKey, EmptyKey, RecursionError) as exc:
            raise ParseError(str(exc)) from None
    return wrapped


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from exc


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


# JSON has no NaN or infinity: each is written as a string, by Python's name for it
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FROM_STRING = {text: float(name) for name, text in _NONFINITE.items()}


def _leaf_obj(leaf: TensorLeaf) -> dict:
    obj = {
        "__leaf__": True,
        "shape": list(leaf.shape),
        "dtype": leaf.dtype,
        "data": leaf.data if np.isfinite(leaf.array).all() else [_NONFINITE.get(str(x), x) for x in leaf.data],
        "device": leaf.device,
    }
    if isinstance(leaf, StackedLeaf):
        obj["stacked_seq"] = True
    return obj


def _payload_obj(leaf) -> dict:
    if isinstance(leaf, StructuredLeaf):
        return {"__structured__": True, "payload": nested_map(leaf.payload, _leaf_obj, TensorLeaf)}
    return _leaf_obj(leaf)


def _tree_obj(tree: TreeTensor) -> dict:
    td, payloads = tree._flat()
    return as_dict(td.key, map(_payload_obj, payloads))


# the JSON types a document field may have, by exact type: type(True) is
# bool, so a bool is never an int or a float; no types asks for any value
_ANY, _INT, _STR, _BOOL, _LIST, _DICT = (), (int,), (str,), (bool,), (list,), (dict,)
_MISSING = object()


def _field(obj: dict, name: str, types: tuple, where: str, default=_MISSING):
    """obj[name], or `default` when the field is absent; a ParseError naming
    the field at `where` when it is absent without a default, or when its
    value's type is not exactly one of `types`. The message quotes `where`
    at 150 characters and the value at 80, so it stays under 300."""
    value = obj.get(name, default)
    if value is _MISSING:
        raise ParseError(f"{_shown(where, 150)}: missing {name!r}")
    if types and type(value) not in types:
        what = " or ".join(t.__name__ for t in types)
        raise ParseError(f"{_shown(where, 150)}: {name!r} must be {what}, got {_quoted(value, 80)}")
    return value


# kind -> (atom class, {each field's name in a document: its JSON types}, in field order)
_ATOMS = {
    "dtype": (_c.DtypeIs, {"value": _STR}),
    "ndim": (_c.NdimIs, {"value": _INT}),
    "dim_equals": (_c.DimEquals, {"axis": _INT, "value": _INT}),
    "dim_at_least": (_c.DimAtLeast, {"axis": _INT, "value": _INT}),
    "device": (_c.DeviceIs, {"value": _STR}),
    "leaf_count": (_c.LeafCountIs, {"value": _INT}),
    "shapes_equal": (_c.ShapesEqual, {"paths": _LIST}),
    "shared_prefix": (_c.SharedPrefix, {"paths": _LIST, "k": _INT}),
}
_KINDS = {cls: kind for kind, (cls, _) in _ATOMS.items()}


def _atom_obj(atom) -> dict:
    """The document object of an atom."""
    kind = _KINDS[type(atom)]
    obj = {"kind": kind}
    for name, value in zip(_ATOMS[kind][1], vars(atom).values()):
        obj[name] = [path_to_string(p) for p in value] if isinstance(value, tuple) else value
    return obj


def _parse_atom(obj, where: str):
    """The atom of a document object; ParseError unless each field has its
    JSON type and the atom accepts its value."""
    if not isinstance(obj, dict):
        raise _bad_atom(obj, where, "not an object")
    kind = obj.get("kind")
    if type(kind) is not str or kind not in _ATOMS:
        raise UnknownAtomKind(f"unknown atom kind {_quoted(kind)}")
    cls, types = _ATOMS[kind]
    values = [_field(obj, name, t, f"bad atom {kind!r} at {where}") for name, t in types.items()]
    for name, value in zip(types, values):
        if type(value) is list and not all(type(p) is str for p in value):
            raise _bad_atom(obj, where, f"{name!r} must be a list of strings")
    try:
        return cls(*[tuple(map(path_from_string, v)) if type(v) is list else v for v in values])
    except ValueError as exc:  # a negative int field
        raise _bad_atom(obj, where, str(exc)) from exc


def _bad_atom(obj, where: str, why: str) -> ParseError:
    """The atom, its placement and the cause, each cut short enough that
    the message stays within about 280 characters."""
    return ParseError(f"bad atom {_quoted(obj, 80)} at {_shown(where, 80)}: {_shown(why, 100)}")


def _constraint_entries(tree: TreeTensor) -> list:
    """The effective constraint of every node, in pre-order, derived by
    walking the tree's structure (so equal trees give equal entries)."""
    if tree.constraints.is_trivial:
        return []
    entries, encoded = [], {}  # id(c) -> (c, its atom objects by flag): positions share constraints
    for path, c in _c.effective(tree, tree.constraints):
        if id(c) not in encoded:  # c is kept, so its id is not reused
            encoded[id(c)] = c, [(inh, [_atom_obj(a) for flag, a in c.entries if flag == inh])
                                 for inh in (False, True)]
        for inh, atoms in encoded[id(c)][1]:
            if atoms:
                entries.append({"path": path_to_string(path), "inherit": inh, "atoms": atoms})
    return entries


def serialize_tree(tree: TreeTensor) -> str:
    """Canonical document for a tree, constraints included."""
    doc = _tree_obj(tree)
    placements = _constraint_entries(tree)
    if placements:
        doc["__constraints__"] = placements
    return _dumps(doc)


# the exact JSON types an element of a leaf's data may have: type(True) is
# bool, so a bool is never an int or a float here
_DATA_TYPES = {
    "f32": frozenset((int, float)), "f64": frozenset((int, float)),
    "i64": frozenset((int,)), "bool": frozenset((bool,)),
}


def _parse_leaf(obj: dict, where: str) -> TensorLeaf:
    """The leaf of a document object; every error names it by `where`,
    quoted at 150 characters and its values at 80, so the message stays
    under 300."""
    where = _shown(where, 150)
    shape, dtype, data = (_field(obj, n, t, where) for n, t in
                          (("shape", _LIST), ("dtype", _ANY), ("data", _LIST)))
    if dtype not in DTYPES:
        raise DtypeUnknown(f"{where}: unknown dtype {_quoted(dtype, 80)}")
    if any(type(s) is not int or s < 0 for s in shape):  # a bool is not a dimension
        raise ParseError(f"{where}: shape must be a list of non-negative integers, got {_quoted(shape, 80)}")
    types = _DATA_TYPES[dtype]
    if not types.issuperset(map(type, data)):  # a string of _FROM_STRING gives a float
        data = [_FROM_STRING.get(x, x) if type(x) is str else x for x in data]
        if not types.issuperset(map(type, data)):
            names = " or ".join(sorted(t.__name__ for t in types))
            raise ParseError(f"{where}: {dtype} data must hold only {names} values")
    device = _field(obj, "device", _STR, where, "cpu")
    try:
        leaf = make_leaf(shape, dtype, data, device)
    except (TypeError, ValueError, OverflowError, ShapeDataMismatch) as exc:  # numpy's, or the count
        raise ParseError(f"{where}: bad {dtype} data: {_shown(str(exc), 80)}") from exc
    if _field(obj, "stacked_seq", _BOOL, where, False):
        if not shape:
            raise ParseError(f"{where}: stacked_seq needs a sequence axis, got shape []")
        leaf = _new_leaf(StackedLeaf, leaf.array, leaf.device, leaf.dtype)  # shares the array
    return leaf


def _parse_payload(obj, at: str, path: str = "payload"):
    """The payload of the structured leaf at `at`; a leaf in it is named
    by `at` and its `path` in the payload, a bad element by that path."""
    if isinstance(obj, list):
        return [_parse_payload(p, at, f"{path}/{i}") for i, p in enumerate(obj)]
    if isinstance(obj, dict):
        if obj.get("__leaf__") is True:
            return _parse_leaf(obj, f"leaf at {at}/{path}")
        return {k: _parse_payload(v, at, f"{path}/{k}") for k, v in obj.items()}
    raise ParseError(f"bad structured payload element at {path[:_SHOWN]}: {_quoted(obj)}")


def _parse_root(obj, what: str) -> TreeTensor:
    nested = _parse_obj(obj)
    if not isinstance(nested, dict):
        raise ParseError(f"{what} must be a tree node")
    return build_tree(nested)


def _parse_obj(obj, path: Path = ()):
    """The nested dicts of a tree document, a value node at each leaf; an
    error names the value's path."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object at {_where(path)}, got {type(obj).__name__}")
    if obj.get("__leaf__") is True:
        return _parse_leaf(obj, f"leaf at {_where(path)}")  # a TensorLeaf is its own value node
    if obj.get("__structured__") is True:
        payload = _field(obj, "payload", (list, dict), f"structured leaf at {_where(path)}")
        return ValueNode(StructuredLeaf(_parse_payload(payload, _where(path))))
    return {k: _parse_obj(v, path + (k,)) for k, v in obj.items()}


def _parse_placements(entries) -> dict[Path, _c.Constraint]:
    placements: dict[Path, _c.Constraint] = {}
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"bad placement entry {n}: {_quoted(entry)}")
        raw_path = _field(entry, "path", _ANY, f"placement entry {n}")
        if not isinstance(raw_path, str):
            raise BadPath(f"placement path must be a string, got {_quoted(raw_path)}")
        where = f"placement {_quoted(raw_path)}"
        inh = _field(entry, "inherit", _BOOL, where, True)
        atom_objs = _field(entry, "atoms", _LIST, where)
        path = path_from_string(raw_path)
        try:
            c = _c.Constraint([(inh, _parse_atom(a, where)) for a in atom_objs])
        except ValueError as exc:  # a node atom placed as inheriting
            raise ParseError(f"{where}: {exc}") from exc
        placements[path] = _c.c_sum([placements.get(path, _c.EMPTY), c])
    return placements


@_document
def parse_tree(text: str) -> TreeTensor:
    """Parse a tree document; inverse of serialize_tree."""
    obj = _loads(text)
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    entries = _field(obj, "__constraints__", _LIST, "tree document", [])
    obj.pop("__constraints__", None)
    tree = _parse_root(obj, "root")
    if entries:
        tree = tree.with_constraints(_parse_placements(entries))
    return tree


@_document
def parse_constraint_spec(text: str) -> dict[Path, _c.Constraint]:
    """Parse a standalone constraint spec document (.ttc)."""
    entries = _loads(text)
    if not isinstance(entries, list):
        raise ParseError("constraint spec must be a list of placements")
    return _parse_placements(entries)


# ---------------------------------------------------------------------------
# outer structures (subside/rise endpoints)


def _outer_obj(outer):
    if isinstance(outer, TreeTensor):
        return {"kind": "tree", "value": _tree_obj(outer)}
    if isinstance(outer, (list, tuple)):
        return {"kind": "seq", "items": [_outer_obj(x) for x in outer]}
    return {"kind": "map", "entries": {k: _outer_obj(v) for k, v in outer.items()}}


def serialize_outer(outer) -> str:
    """Document for an outer container of trees (lists/dicts/trees)."""
    return _dumps(_outer_obj(outer))


def _parse_outer_obj(obj, path: str = ""):  # path: item indices and entry keys, '/'-joined
    where = f"bad outer-structure element at /{path[:_SHOWN]}"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: {_quoted(obj)}")
    kind = _field(obj, "kind", _ANY, where)
    if kind == "tree":
        return _parse_root(_field(obj, "value", _DICT, where), "embedded tree")
    if kind == "seq":
        return [_parse_outer_obj(x, f"{path}{i}/") for i, x in enumerate(_field(obj, "items", _LIST, where))]
    if kind == "map":
        return {k: _parse_outer_obj(v, f"{path}{k}/") for k, v in _field(obj, "entries", _DICT, where).items()}
    raise ParseError(f"unknown outer kind {_quoted(kind)}")


@_document
def parse_outer(text: str):
    return _parse_outer_obj(_loads(text))


# ---------------------------------------------------------------------------
# padded groups


def serialize_padded_group(g: PaddedGroup) -> str:
    doc = {
        "__padded_group__": True,
        "stacked": _tree_obj(g.stacked),
        "lengths": _tree_obj(g.lengths),
        "fill": _NONFINITE.get(str(g.fill), g.fill),
    }
    return _dumps(doc)


@_document
def parse_padded_group(text: str) -> PaddedGroup:
    obj = _loads(text)
    if not isinstance(obj, dict) or obj.get("__padded_group__") is not True:
        raise ParseError("not a padded-group document")
    stacked, lengths = (_parse_root(_field(obj, n, _DICT, "padded group"), f"padded-group {n} tree")
                        for n in ("stacked", "lengths"))
    fill = obj.get("fill")
    if type(fill) is not str or fill not in _FROM_STRING:
        fill = _field(obj, "fill", (int, float, bool), "padded group")
    return PaddedGroup(stacked, lengths, _FROM_STRING.get(fill, fill))
