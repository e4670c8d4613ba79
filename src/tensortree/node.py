"""Tree nodes: value nodes holding a leaf payload, tree nodes mapping keys
to children.

A `TensorLeaf` is its own value node (`ValueNode` subclass, `leaf.leaf is
leaf`), so a tree holds one object per tensor leaf. `ValueNode` itself
wraps only the payloads that are not tensors (a `StructuredLeaf` from
subside); `ValueNode(tensor_leaf)` returns the leaf.

Nodes never reference their parents, so a node may be shared by any number
of trees. Children iterate in ascending lexicographic key order.

`flatten` splits a node into a structure key and its leaf payloads, and
`unflatten` inverts it. The key is a hashable nested tuple, so two nodes
have the same structure exactly when their keys compare equal. A `TreeDef`
wraps a key with, once asked for, its sorted leaf paths; it is the
structure half of a TreeTensor's flat form (a treedef and a leaf list), on
which every operation in the package runs; nodes are only its view. A
subtree's leaves are contiguous, and `leaf_range` bisects the paths for
them. `as_dict` turns a key and its leaves into nested dicts or nodes.
"""

from __future__ import annotations

import itertools
import weakref
from bisect import bisect_left
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import BadKey, EmptyKey, PathNotFound

PATH_SEP = "/"
_RESERVED_PREFIX = "__"

Path = tuple[str, ...]


def check_key(key) -> str:
    if not isinstance(key, str) or key == "":
        raise EmptyKey(f"keys must be non-empty strings, got {key!r}")
    if PATH_SEP in key:
        raise BadKey(f"key {key!r} contains reserved separator {PATH_SEP!r}")
    if key.startswith(_RESERVED_PREFIX):
        raise BadKey(f"key {key!r} uses reserved prefix {_RESERVED_PREFIX!r}")
    return key


def path_from_string(s: str) -> Path:
    return tuple(p for p in s.split(PATH_SEP) if p != "") if s else ()


def path_to_string(p: Path) -> str:
    return PATH_SEP.join(p)


class Node:
    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        return isinstance(self, ValueNode)


class ValueNode(Node):
    """A value position. A TensorLeaf subclasses it and is its own value
    node; an instance of ValueNode itself wraps a payload that is not a
    tensor (a StructuredLeaf from subside)."""

    __slots__ = ("leaf",)

    def __new__(cls, leaf):
        if isinstance(leaf, ValueNode):
            return leaf  # a TensorLeaf: one representation, no wrapper
        node = object.__new__(cls)
        node.leaf = leaf
        return node

    def __reduce__(self):
        return type(self), (self.leaf,)

    def __eq__(self, other):
        if not isinstance(other, ValueNode):
            return NotImplemented
        return self.leaf == other.leaf

    def __hash__(self):
        return hash(("value", self.leaf))

    def __repr__(self):
        return f"ValueNode({self.leaf!r})"


class TreeNode(Node):
    """An ordered mapping from keys to child nodes."""

    __slots__ = ("_children",)

    def __init__(self, children: Mapping[str, Node] | None = None):
        items = sorted((children or {}).items())
        for k, _ in items:
            check_key(k)
        self._children = dict(items)

    @classmethod
    def _from_validated(cls, children: dict) -> "TreeNode":
        """Internal: children dict already key-checked and in sorted order."""
        node = cls.__new__(cls)
        node._children = children
        return node

    @property
    def children(self) -> Mapping[str, Node]:
        return MappingProxyType(self._children)

    def get(self, key: str) -> Node | None:
        return self._children.get(key)

    def keys(self):
        return self._children.keys()

    def __len__(self):
        return len(self._children)

    def __iter__(self):
        return iter(self._children)

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return self._children == other._children

    def __hash__(self):
        return hash(("tree", tuple(self._children.items())))

    def __repr__(self):
        return f"TreeNode({self._children!r})"


def flatten(node: Node) -> tuple[tuple | None, list]:
    """(structure, leaves): the payloads in depth-first, key-ascending order
    and a structure key that is None for a value node and a tuple of (key,
    child structure) pairs for a tree node."""
    if type(node) is not TreeNode:
        return None, [node.leaf]
    leaves: list = []
    return _flatten_into(node, leaves), leaves


def _flatten_into(node: TreeNode, leaves: list) -> tuple:
    # value children are handled in the loop: a call per tree node only
    structure = []
    for k, child in node._children.items():
        if type(child) is TreeNode:
            structure.append((k, _flatten_into(child, leaves)))
        else:
            leaves.append(child.leaf)
            structure.append((k, None))
    return tuple(structure)


def unflatten(structure, leaves) -> Node:
    """The node with this structure key holding `leaves` in flatten order;
    a TensorLeaf goes in as itself, any other payload wrapped."""
    return as_dict(structure, map(ValueNode, leaves), TreeNode._from_validated)


def as_dict(structure, items: Iterator, wrap=None):
    """The nested dicts of a structure key, the next of `items` at each
    value position; `wrap`, if given, is applied to each dict."""
    if structure is None:
        return next(items)
    d = {k: as_dict(s, items, wrap) for k, s in structure}
    return d if wrap is None else wrap(d)


class TreeDef:
    """The structure of a node: its `flatten` key and, built on first use
    and then kept, its leaf paths in flatten order. Two structures are
    equal when they are one object or their keys compare equal; `treedef`
    interns them, so usually the first."""

    __slots__ = ("key", "serial", "_paths", "_merges", "__weakref__")

    def __init__(self, key: tuple):
        self.key, self.serial, self._merges = key, next(_SERIALS), {}  # _merges: lift's memo
        self._paths = None

    def __eq__(self, other):
        if not isinstance(other, TreeDef):
            return NotImplemented
        return self is other or self.key == other.key

    def __reduce__(self):  # unpickles interned
        return treedef, (self.key,)

    @property
    def paths(self) -> tuple[Path, ...]:
        if self._paths is None:
            paths: list = []
            _paths_into(self.key, (), paths)
            self._paths = tuple(paths)
        return self._paths

    @property
    def count(self) -> int:
        return len(self.paths)


def _paths_into(key: tuple, prefix: Path, out: list) -> None:
    """Appends the leaf paths of `key`."""
    for k, s in key:
        if s is None:
            out.append(prefix + (k,))
        else:
            _paths_into(s, prefix + (k,), out)


_SERIALS = itertools.count()  # TreeDef.serial: never reused, unlike id()
# weak, so a structure lives only as long as a tree of it does
_TREEDEFS: "weakref.WeakValueDictionary[tuple, TreeDef]" = weakref.WeakValueDictionary()


def treedef(key: tuple) -> TreeDef:
    """The interned TreeDef of a tree node's structure key.
    Two threads may intern one key twice; equality then falls back to the
    keys, which costs a comparison and nothing else."""
    td = _TREEDEFS.get(key)
    if td is None:
        _TREEDEFS[key] = td = TreeDef(key)
    return td


def leaf_range(paths, path: Path) -> tuple[int, int]:
    """(lo, hi): where in sorted leaf `paths` the leaves under `path` lie.
    They are contiguous, and `s + "\\0"` is the least string after `s`."""
    if not path:
        return 0, len(paths)
    return bisect_left(paths, path), bisect_left(paths, path[:-1] + (path[-1] + "\0",))


def subkey(key, path: Path):
    """The structure key at `path` under `key`; PathNotFound if none is."""
    try:
        for k in path:
            key = dict(key)[k]  # a value position's None has no children either
    except (KeyError, TypeError):
        raise PathNotFound(path) from None
    return key
