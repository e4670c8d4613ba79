"""TreeTensor: a tree in flat form (a structure object, `TreeDef`, and the
leaf payloads in flatten order) paired with a sparse trie of constraint
placements.

Values are persistent: every mutator returns a new TreeTensor that shares
all untouched leaves with the original. The flat form is the only form a
TreeTensor holds, and every operation runs on it: lifting, the other
leafwise operations, IO, `get`, `set`/`remove` and the constraint checks.
In depth-first key order each subtree is a contiguous range of the leaf
list, found by bisecting the treedef's sorted leaf paths, so an edit
splices that range, the paths and the structure key along the path.
`TreeTensor(root)` flattens its root once. `.root` is a node view, built on
first access and then kept. A constrained `set`/`remove` checks only what
the edit can break: the ancestors' node atoms and the written subtree.

A tree whose leaves share one dtype, device, class and small shape, or
small shapes of one ndim (a segmented column), may be packed: its leaf list
is a `leaf.Column`, one buffer whose leaf objects are made on first index
or iteration. `build_tree` packs small raw arrays of one dtype and ndim;
batched lifts, stack/cat/split and subside/rise of packed trees give packed
trees, and group_pad/unpad of segmented trees segmented ones. Everything
that reads leaves one by one sees an ordinary list.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping

import numpy as np

from . import constraints as _c
from .errors import BadPath, ConstraintViolation, PathNotFound
from .leaf import BATCH_MAX_ELEMENTS, Column, TensorLeaf, _new_leaf, _pack, _tag, from_array, kinds, make_leaf, pack
from .node import Node, Path, TreeDef, TreeNode, ValueNode, check_key, flatten, leaf_range
from .node import _paths_into, subkey, treedef, unflatten

_REPR_LEAVES = 8


class TreeTensor:
    """A tree in flat form and the constraints it carries.

    A constrained tree built here with a constraint tree is normalized to
    the sparse trie, but its validity is not checked: its first constrained
    write checks the whole tree. Trees the library builds itself are known
    to be valid and check only what each edit can break.
    """

    __slots__ = ("_root", "_treedef", "_leaves", "_base", "constraints", "_checked", "__weakref__")

    def __init__(self, root: TreeNode, constraints: _c.ConstraintTree | None = None):
        if not isinstance(root, TreeNode):
            raise TypeError("TreeTensor root must be a tree node")
        key, self._leaves = flatten(root)
        self._root, self._treedef, self._base = root, treedef(key), None
        self._treedef.paths  # the rest of the flat form: what a get or an edit bisects
        if constraints is None or constraints.is_trivial:
            self.constraints, self._checked = _c.TRIVIAL, True
        else:
            self.constraints, self._checked = _c.sparse(constraints, key), False

    @classmethod
    def _of(cls, td: TreeDef, leaves: list, constraints=_c.TRIVIAL, checked: bool = True,
            base: "weakref.ref | None" = None):
        """Internal: the tree of a tree structure and its payloads in flatten
        order, a list or a `Column`; the list is the tree's own from here on,
        never mutated. A
        `base`, a weak reference to a tree of the same structure, lends that
        tree's root to this one's while it lives."""
        tree = cls.__new__(cls)
        tree._root, tree._treedef, tree._leaves, tree._base = None, td, leaves, base
        tree.constraints, tree._checked = constraints, checked
        return tree

    @property
    def root(self) -> TreeNode:
        """The node view, built on first access and then kept: every inner
        node made anew or, for a tree that `set` wrote leaves into while the
        tree it wrote into lives, that tree's root copied along the paths of
        the leaves that differ, so the two share every untouched subtree."""
        if self._root is None:
            base = self._base and self._base()
            if base is None:
                self._root = unflatten(self._treedef.key, self._leaves)
            else:
                root, paths = base.root, self._treedef.paths
                for i, (new, old) in enumerate(zip(self._leaves, base._leaves)):
                    if new is not old:
                        root = _replace(root, paths[i], ValueNode(new))
                self._root, self._base = root, None
        return self._root

    def __reduce__(self):  # a weak `_base` does not pickle
        return TreeTensor._of, (self._treedef, self._leaves, self.constraints, self._checked)

    @property
    def treedef(self) -> TreeDef:
        return self._treedef

    def _flat(self) -> tuple[TreeDef, list]:
        return self._treedef, self._leaves

    def __eq__(self, other):
        if not isinstance(other, TreeTensor):
            return NotImplemented
        return (self._treedef == other._treedef and self._leaves == other._leaves
                and self.constraints == other.constraints)

    def __repr__(self):
        td, payloads = self._flat()
        shown = [f"{'/'.join(p)}: {_summary(payloads, i)}" for i, p in enumerate(td.paths[:_REPR_LEAVES])]
        if len(payloads) > _REPR_LEAVES:
            shown.append("…")
        return f"TreeTensor({len(payloads)} leaves: {{{', '.join(shown)}}})"

    def with_constraints(self, placements: Mapping[Path, _c.Constraint]) -> "TreeTensor":
        """Attach constraints built from placements; validates in full."""
        ct = _c.build_constraint_tree(self, dict(placements))
        return TreeTensor._of(self._treedef, self._leaves, ct)


def _summary(payloads, i: int) -> str:
    """`shape dtype` of leaf i, read off a column without making its leaves."""
    kind = kinds(payloads, i, i + 1)[0]
    return f"{list(kind[2])} {kind[0]}" if kind else type(payloads[i]).__name__


class _Flat:
    """The flat form of a value, made in one walk: `key`, the structure key
    of the node the value stands for (None for a value node), and `leaves`,
    its payloads in flatten order, an exact ndarray in a dict as it is
    (`build_tree` or `_leaf_list` copies it). `rect` holds while every
    payload is an exact ndarray of the first one's `dtype` and `shape`.

    Each mapping's sorted keys are queued, and one C-level scan checks them
    all at the end: `check_key` runs on each in order only if the scan
    flags one (a key holding a NUL may be flagged, and then passes), a key
    is not a str, or the walk raised. So a bad key queued before a value
    that raised wins, as when each mapping's keys are checked first."""

    __slots__ = ("key", "leaves", "keys", "dtype", "shape", "rect")

    def __init__(self, value):
        self.leaves, self.keys, self.dtype, self.shape, self.rect, failed = [], [], None, None, True, None
        try:
            self.key = self.node_key(value)
            s = "\0" + "\0".join(self.keys) + "\0" if self.keys else ""  # a TypeError if a key is not a str
        except Exception as exc:
            failed, s = exc, "/"
        if "/" in s or "\0\0" in s or "\0__" in s:
            for k in self.keys:
                check_key(k)
        if failed is not None:
            raise failed

    def node_key(self, value) -> tuple | None:
        # the cheap exact checks first: the Mapping ABC check is slow
        if isinstance(value, TreeNode):
            key, payloads = flatten(value)
        elif isinstance(value, Node):
            key, payloads = None, [value.leaf]  # a TensorLeaf is its own value node
        elif isinstance(value, np.ndarray):
            key, payloads = None, [from_array(value)]
        elif isinstance(value, TreeTensor):
            key, payloads = value._flat()[0].key, value._flat()[1]
        elif isinstance(value, (int, float)):  # a bool is an int
            tag = "bool" if isinstance(value, bool) else "i64" if isinstance(value, int) else "f64"
            key, payloads = None, [make_leaf((), tag, [value])]
        elif isinstance(value, Mapping):
            return self.items_key(value)
        else:
            raise TypeError(f"cannot build a node from {type(value).__name__}")
        self.leaves += payloads
        self.rect = self.rect and not payloads  # an empty node adds no payload
        return key

    def items_key(self, mapping) -> tuple:
        """`node_key` of a mapping, one call per inner mapping: a dict, exact
        ndarray or TensorLeaf value needs no call of its own. An exact
        ndarray whose dtype object or shape is not the first one's has its
        dtype tag checked, and keeps `rect` if the two are equal."""
        ks = sorted(mapping)
        self.keys += ks
        leaves, structure = self.leaves, []
        for k in ks:
            v = mapping[k]
            t = type(v)
            if t is dict:
                structure.append((k, self.items_key(v)))
            elif t is np.ndarray or t is TensorLeaf:
                if t is TensorLeaf:
                    self.rect = False
                elif v.dtype is not self.dtype or v.shape != self.shape:
                    _tag(v.dtype)  # DtypeUnsupported
                    if self.dtype is None:
                        self.dtype, self.shape = v.dtype, v.shape
                    self.rect = self.rect and v.dtype == self.dtype and v.shape == self.shape
                leaves.append(v)
                structure.append((k, None))
            else:
                structure.append((k, self.node_key(v)))
        return tuple(structure)


def build_tree(pairs: Mapping) -> TreeTensor:
    """Build a TreeTensor (empty constraints) from a nested mapping.

    Values may be leaves, nodes, nested mappings, numpy arrays or python
    scalars (which become scalar leaves). Arrays are copied; when every
    value is a small plain ndarray of one dtype and ndim, into one column:
    a rectangle when their shapes agree too, else `leaf.pack`'s segmented
    column.
    """
    flat = _Flat(dict(pairs))
    items, shape = flat.leaves, flat.rect and flat.shape
    if shape and 0 < items[0].size <= BATCH_MAX_ELEMENTS:
        leaves = Column(_pack(items).reshape((len(items),) + shape), TensorLeaf, _tag(flat.dtype), "cpu")
    else:
        leaves = pack(items) or _leaf_list(items)
    return TreeTensor._of(treedef(flat.key), leaves)


def _leaf_list(items: list) -> list:
    """`items` with each exact ndarray a leaf of its own row-major copy
    (copy() gives C order, as from_array does)."""
    return [_new_leaf(TensorLeaf, v.copy(), "cpu") if type(v) is np.ndarray else v for v in items]


def _as_path(path: Iterable[str]) -> Path:
    if isinstance(path, str):
        raise TypeError(
            f"path {path!r} is a str, not a sequence of keys; "
            "split an 'a/b' string with path_from_string"
        )
    return tuple(path)


def get(tree: TreeTensor, path: Iterable[str]) -> Node:
    """Return the node at path, shared with the tree: a leaf's value node,
    or an inner node of the node view `.root`."""
    path = _as_path(path)
    paths, payloads = tree.treedef.paths, tree._leaves
    i = bisect_left(paths, path)
    if i < len(paths) and paths[i] == path:
        leaf = payloads[i]  # a TensorLeaf is its own value node, without ValueNode's call
        return leaf if isinstance(leaf, Node) else ValueNode(leaf)
    subkey(tree.treedef.key, path)  # PathNotFound unless an inner node is there
    node = tree.root
    for key in path:
        node = node.get(key)
    return node


def _replace(node: TreeNode, path: Path, value: Node, i: int = 0) -> TreeNode:
    """Copy of `node` with the existing position at `path[i:]` set to
    `value`, copying only the nodes on the path: `.root`'s lending copy."""
    children = dict(node._children)
    key = path[i]
    children[key] = value if i + 1 == len(path) else _replace(children[key], path, value, i + 1)
    return TreeNode._from_validated(children)


_GONE = object()  # the structure of a removed or absent position


def _splice(key: tuple, path: Path, new, i: int = 0) -> tuple:
    """`key` with the position at `path[i:]` holding the structure `new`,
    or removed when `new` is _GONE, copying only the tuples on the path.
    PathNotFound names the whole path for a removal and the parent's path
    for a set; a new key must pass `check_key`."""
    k = path[i]
    held = dict(key).get(k, _GONE)
    if i + 1 < len(path):
        if held is None or held is _GONE:
            raise PathNotFound(path if new is _GONE else path[:-1])
        new = _splice(held, path, new, i + 1)
    elif held is _GONE:
        if new is _GONE:
            raise PathNotFound(path)
        check_key(k)
    j = bisect_left(key, (k,))  # (k,) sorts just before (k, child)
    return key[:j] + (() if new is _GONE else ((k, new),)) + key[j + (held is not _GONE):]


def _write(tree: TreeTensor, path: Path, sub, payloads: list) -> TreeTensor:
    """The tree after the position at `path` gets the structure `sub` and
    `payloads`, or is removed when `sub` is _GONE: a splice of the leaves
    under `path`. Raises ConstraintViolation, leaving `tree` untouched, if
    the edit breaks one. A leaf over a leaf keeps the treedef, and its
    result lends its root from the nearest living tree up its chain of such
    writes that has a root or no lender, so no earlier tree is kept alive."""
    td, leaves = tree._flat()
    paths = td.paths
    lo, hi = leaf_range(paths, path)
    new = list(leaves)  # copied and assigned: a third of the cost of two slices and a join
    new[lo:hi] = payloads
    if sub is None and hi == lo + 1 and paths[lo] == path:
        base = tree._root is None and tree._base and tree._base()
        out = TreeTensor._of(td, new, base=weakref.ref(base or tree))
    else:
        added = [path] if sub is None else []
        if sub is not None and sub is not _GONE:
            _paths_into(sub, path, added)
        # the edited structure is not interned: hashing the whole key costs more than the edit
        new_td = TreeDef(_splice(td.key, path, sub) if path else sub)
        new_paths = list(paths)
        new_paths[lo:hi] = added
        new_td._paths = tuple(new_paths)
        out = TreeTensor._of(new_td, new)
    ct = tree.constraints
    if ct.is_trivial:
        return out
    edited = _c.edit(ct, path, sub is not _GONE)
    bad = _c.first_violation(out, edited, path if tree._checked else ())
    if bad:
        raise ConstraintViolation(*bad)
    out.constraints = edited
    return out


def set(tree: TreeTensor, path: Iterable[str], value) -> TreeTensor:
    """Persistent set; validates what the write can break and fails atomically."""
    path = _as_path(path)
    flat = _Flat(value)
    if not path and flat.key is None:
        raise PathNotFound(path, "cannot replace the root with a value node")
    return _write(tree, path, flat.key, _leaf_list(flat.leaves))


def remove(tree: TreeTensor, path: Iterable[str]) -> TreeTensor:
    """Persistent removal of the node at path."""
    path = _as_path(path)
    if not path:
        raise PathNotFound(path, "cannot remove the root")
    return _write(tree, path, _GONE, [])


def _key(x):
    return x._flat()[0].key if isinstance(x, TreeTensor) else flatten(x)[0]


def structure_equal(a, b) -> bool:
    """Recursive key-set equality (equal structure keys); accepts trees or
    bare nodes."""
    return _key(a) == _key(b)


def leaves(tree) -> list[tuple[Path, object]]:
    """Depth-first, key-ascending (path, leaf) pairs: the flat form's leaves
    beside its treedef's paths. A bare tree node is flattened first."""
    td, payloads = (tree if isinstance(tree, TreeTensor) else TreeTensor(tree))._flat()
    return list(zip(td.paths, payloads))


def deep_copy(tree: TreeTensor) -> TreeTensor:
    """A tree sharing no leaf storage with the original; a packed tree
    stays packed."""
    td, payloads = tree._flat()
    copied = payloads.copy() if type(payloads) is Column else [leaf.copy() for leaf in payloads]
    return TreeTensor._of(td, copied, tree.constraints, tree._checked)


def validate_full(tree: TreeTensor) -> list[tuple[Path, _c.Constraint]]:
    """All constraint violations; empty list means ok."""
    return _c.violations(tree, tree.constraints)


# (leaf count, last leaf path) -> the structure `rebuild` last made of such
# paths; a lookup compares its paths. Hashing every path would add a fifth
# to computing them. Weak, so a structure lives only as long as a tree of it does.
_BY_PATHS: "weakref.WeakValueDictionary[tuple, TreeDef]" = weakref.WeakValueDictionary()


def rebuild(pairs: list[tuple[Path, object]]) -> TreeTensor:
    """Build a tree from (path, leaf) pairs (inverse of leaves()); of two
    pairs with one path the later wins."""
    payloads = {tuple(path): leaf for path, leaf in pairs}
    if () in payloads:
        raise PathNotFound((), "leaf at empty path")
    paths = sorted(payloads)
    slot = (len(paths), *paths[-1:])  # (0,) without paths
    td = _BY_PATHS.get(slot)
    if td is None or td.paths != tuple(paths):
        _BY_PATHS[slot] = td = treedef(_paths_key(paths, 0))
    out = [payloads[p] for p in paths]
    if {*map(type, out)} - {TensorLeaf}:  # unwrap a value node around a payload
        out = [ValueNode(p).leaf for p in out]
    return TreeTensor._of(td, out)


def _paths_key(paths: list, depth: int) -> tuple:
    """The structure key of sorted leaf paths that share their first `depth`
    keys; in each group of one next key the shortest path comes first."""
    items = []
    for key, group in groupby(paths, itemgetter(depth)):
        group = list(group)
        if len(group[0]) > depth + 1:
            items.append((check_key(key), _paths_key(group, depth + 1)))
        elif len(group) == 1:
            items.append((check_key(key), None))
        else:
            below, leaf = "/".join(group[1]), "/".join(group[0])
            raise BadPath(f"leaf at {below} lies below the leaf at {leaf}")
    return tuple(items)
