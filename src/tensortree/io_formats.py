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
from dataclasses import fields

from . import constraints as _c
from .errors import _SHOWN, BadKey, BadPath, DtypeUnknown, EmptyKey, ParseError, UnknownAtomKind
from .errors import _quoted, _shown
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
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _leaf_obj(leaf: TensorLeaf) -> dict:
    obj = {
        "__leaf__": True,
        "shape": list(leaf.shape),
        "dtype": leaf.dtype,
        "data": leaf.data,
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


# kind -> (atom class, its fields' names in a document, in field order)
_ATOMS = {
    "dtype": (_c.DtypeIs, ("value",)),
    "ndim": (_c.NdimIs, ("value",)),
    "dim_equals": (_c.DimEquals, ("axis", "value")),
    "dim_at_least": (_c.DimAtLeast, ("axis", "value")),
    "device": (_c.DeviceIs, ("value",)),
    "leaf_count": (_c.LeafCountIs, ("value",)),
    "shapes_equal": (_c.ShapesEqual, ("paths",)),
    "shared_prefix": (_c.SharedPrefix, ("paths", "k")),
}
_KINDS = {cls: kind for kind, (cls, _) in _ATOMS.items()}
# an atom field's annotation -> the JSON type of its document value (type(True) is bool)
_JSON = {"int": (int, "an integer"), "str": (str, "a string"),
         "tuple[Path, ...]": (list, "a list of strings")}


def _atom_obj(atom) -> dict:
    """The document object of an atom."""
    kind = _KINDS[type(atom)]
    obj = {"kind": kind}
    for name, value in zip(_ATOMS[kind][1], vars(atom).values()):
        obj[name] = [path_to_string(p) for p in value] if isinstance(value, tuple) else value
    return obj


def _parse_atom(obj, where: str):
    """The atom of a document object; ParseError unless each field has its
    annotation's JSON type and the atom accepts its value."""
    if not isinstance(obj, dict):
        raise _bad_atom(obj, where, "not an object")
    kind = obj.get("kind")
    if type(kind) is not str or kind not in _ATOMS:
        raise UnknownAtomKind(f"unknown atom kind {_quoted(kind)}")
    cls, names = _ATOMS[kind]
    values = [obj.get(name) for name in names]
    for name, value, f in zip(names, values, fields(cls)):
        t, what = _JSON[f.type]
        if type(value) is not t or t is list and not all(type(p) is str for p in value):
            raise _bad_atom(obj, where, f"{name!r} must be {what}")
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
    for path, _, c in _c.effective(tree, tree.constraints):
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


def _parse_leaf(obj: dict) -> TensorLeaf:
    for field in ("shape", "dtype", "data"):
        if field not in obj:
            raise ParseError(f"leaf object missing {field!r}")
    shape, dtype, data = obj["shape"], obj["dtype"], obj["data"]
    if dtype not in DTYPES:
        raise DtypeUnknown(f"unknown dtype {_quoted(dtype)}")
    # type(True) is bool, so the exact checks reject bools as shapes or i64 data
    if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
        raise ParseError(f"leaf shape must be a list of non-negative integers, got {_quoted(shape)}")
    if not isinstance(data, list):
        raise ParseError(f"leaf data must be a list, got {type(data).__name__}")
    types = _DATA_TYPES[dtype]
    if not types.issuperset(map(type, data)):
        names = " or ".join(sorted(t.__name__ for t in types))
        raise ParseError(f"{dtype} leaf data must hold only {names} values")
    device = obj.get("device", "cpu")
    if not isinstance(device, str):
        raise ParseError(f"leaf device must be a string, got {_quoted(device)}")
    try:
        leaf = make_leaf(shape, dtype, data, device)
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's conversion
        raise ParseError(f"bad {dtype} leaf data: {exc}") from exc
    if obj.get("stacked_seq"):
        leaf = _new_leaf(StackedLeaf, leaf.array, leaf.device, leaf.dtype)  # shares the array
    return leaf


def _parse_payload(obj, path: str = "payload"):
    if isinstance(obj, list):
        return [_parse_payload(p, f"{path}/{i}") for i, p in enumerate(obj)]
    if isinstance(obj, dict):
        if obj.get("__leaf__") is True:
            return _parse_leaf(obj)
        return {k: _parse_payload(v, f"{path}/{k}") for k, v in obj.items()}
    raise ParseError(f"bad structured payload element at {path[:_SHOWN]}: {_quoted(obj)}")


def _parse_root(obj, what: str) -> TreeTensor:
    nested = _parse_obj(obj)
    if not isinstance(nested, dict):
        raise ParseError(f"{what} must be a tree node")
    return build_tree(nested)


def _parse_obj(obj):
    """The nested dicts of a tree document, a value node at each leaf."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    if obj.get("__leaf__") is True:
        return _parse_leaf(obj)  # a TensorLeaf is its own value node
    if obj.get("__structured__") is True:
        return ValueNode(StructuredLeaf(_parse_payload(_field(obj, "payload"))))
    return {k: _parse_obj(v) for k, v in obj.items()}


def _field(obj: dict, name: str):
    if name not in obj:
        raise ParseError(f"object missing {name!r}")
    return obj[name]


def _parse_placements(entries) -> dict[Path, _c.Constraint]:
    if not isinstance(entries, list):
        raise ParseError("constraint spec must be a list of placements")
    placements: dict[Path, _c.Constraint] = {}
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict) or "path" not in entry or "atoms" not in entry:
            raise ParseError(f"bad placement entry {n}: {_quoted(entry)}")
        raw_path, inh, atom_objs = entry["path"], entry.get("inherit", True), entry["atoms"]
        if not isinstance(raw_path, str):
            raise BadPath(f"placement path must be a string, got {_quoted(raw_path)}")
        where = f"placement {_quoted(raw_path)}"
        if type(inh) is not bool or not isinstance(atom_objs, list):
            raise ParseError(f"{where}: inherit must be a bool and atoms a list")
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
    entries = obj.pop("__constraints__", None)
    tree = _parse_root(obj, "root")
    if entries:
        tree = tree.with_constraints(_parse_placements(entries))
    return tree


@_document
def parse_constraint_spec(text: str) -> dict[Path, _c.Constraint]:
    """Parse a standalone constraint spec document (.ttc)."""
    return _parse_placements(_loads(text))


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
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad outer-structure element at /{path[:_SHOWN]}: {_quoted(obj)}")
    kind = obj["kind"]
    if kind == "tree":
        return _parse_root(_field(obj, "value"), "embedded tree")
    if kind == "seq":
        return [_parse_outer_obj(x, f"{path}{i}/") for i, x in enumerate(_field(obj, "items"))]
    if kind == "map":
        return {k: _parse_outer_obj(v, f"{path}{k}/") for k, v in _field(obj, "entries").items()}
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
        "fill": g.fill,
    }
    return _dumps(doc)


@_document
def parse_padded_group(text: str) -> PaddedGroup:
    obj = _loads(text)
    if not isinstance(obj, dict) or obj.get("__padded_group__") is not True:
        raise ParseError("not a padded-group document")
    stacked = _parse_root(_field(obj, "stacked"), "padded-group stacked tree")
    lengths = _parse_root(_field(obj, "lengths"), "padded-group lengths tree")
    fill = _field(obj, "fill")
    if not isinstance(fill, (int, float)):  # a JSON number or bool
        raise ParseError(f"padded-group fill must be a number, got {_quoted(fill)}")
    return PaddedGroup(stacked, lengths, fill)
