"""Tree nodes: value nodes holding a leaf payload, tree nodes mapping keys
to children.

A `TensorLeaf` is its own value node (`ValueNode` subclass, `leaf.leaf is
leaf`), so a tree holds one object per tensor leaf. `ValueNode` itself
wraps only the payloads that are not tensors (a `StructuredLeaf` from
subside); `ValueNode(tensor_leaf)` returns the leaf.

Nodes never reference their parents, so a node may be shared by any number
of trees; all mutation elsewhere in the package is copy-on-path. Children
iterate in ascending lexicographic key order.

`flatten` splits a node into a structure key and its leaf payloads, and
`unflatten` inverts it. The key is a hashable nested tuple, so two nodes
have the same structure exactly when their keys compare equal; every
same-structure zip, map or unzip in the package is flatten, one `==`, a
pass over the leaf lists, and unflatten. `leaf_path` maps a position in
the leaf list back to its path, for error messages.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import BadKey, EmptyKey

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
    (the order of `iter_leaves`) and a structure key that is None for a
    value node and a tuple of (key, child structure) pairs for a tree node."""
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
    if structure is None:
        (leaf,) = leaves
        return ValueNode(leaf)
    return _unflatten(structure, iter(leaves))


def _unflatten(structure: tuple, leaves: Iterator) -> TreeNode:
    children = {}
    for k, s in structure:
        if s is None:
            children[k] = ValueNode(next(leaves))
        else:
            children[k] = _unflatten(s, leaves)
    return TreeNode._from_validated(children)


def leaf_path(node: Node, i: int) -> Path:
    """The path of the i-th leaf in flatten order; a walk, so callers look
    it up only to report an error there."""
    return list(iter_leaves(node))[i][0]


def iter_leaves(node: Node, prefix: Path = ()) -> Iterator[tuple[Path, object]]:
    """Depth-first, key-ascending (path, payload) pairs."""
    if isinstance(node, ValueNode):
        yield prefix, node.leaf
    else:
        for k, child in node.children.items():
            yield from iter_leaves(child, prefix + (k,))


def get_node(node: Node, path: Path) -> Node | None:
    """Follow a path; None if it does not exist."""
    cur = node
    for key in path:
        if not isinstance(cur, TreeNode):
            return None
        cur = cur.get(key)
        if cur is None:
            return None
    return cur
