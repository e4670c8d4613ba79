"""TreeTensor: a tree-node root paired with a sparse trie of constraint
placements.

Values are persistent: every mutator returns a new TreeTensor that shares
all untouched subtrees with the original. A constrained `set`/`remove`
checks only what the edit can break: the ancestors' node atoms and the
written subtree.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from . import constraints as _c
from .errors import ConstraintViolation, PathNotFound
from .leaf import TensorLeaf, from_array, make_leaf
from .node import Node, Path, TreeNode, ValueNode, flatten, get_node, iter_leaves, unflatten


class TreeTensor:
    """A tree-node root and the constraints it carries.

    A constrained tree built here with a constraint tree is normalized to
    the sparse trie, but its validity is not checked: its first constrained
    write checks the whole tree. Trees the library builds itself are known
    to be valid and check only what each edit can break.
    """

    __slots__ = ("root", "constraints", "_checked")

    def __init__(self, root: TreeNode, constraints: _c.ConstraintTree | None = None):
        if not isinstance(root, TreeNode):
            raise TypeError("TreeTensor root must be a tree node")
        self.root = root
        if constraints is None or constraints.is_trivial:
            self.constraints, self._checked = _c.TRIVIAL, True
        else:
            self.constraints, self._checked = _c.sparse(constraints, root), False

    @classmethod
    def _make(cls, root: TreeNode, constraints: _c.ConstraintTree, checked: bool = True):
        """Internal: `constraints` is already a sparse trie over `root`."""
        tree = cls.__new__(cls)
        tree.root, tree.constraints, tree._checked = root, constraints, checked
        return tree

    def __eq__(self, other):
        if not isinstance(other, TreeTensor):
            return NotImplemented
        return self.root == other.root and self.constraints == other.constraints

    def __repr__(self):
        items = ", ".join(f"{'/'.join(p)}: {l!r}" for p, l in iter_leaves(self.root))
        return f"TreeTensor({{{items}}})"

    def with_constraints(self, placements: Mapping[Path, _c.Constraint]) -> "TreeTensor":
        """Attach constraints built from placements; validates in full."""
        return TreeTensor._make(self.root, _c.build_constraint_tree(self.root, dict(placements)))


def _coerce(value) -> Node:
    if isinstance(value, Node):
        return value
    if isinstance(value, TreeTensor):
        return value.root
    if isinstance(value, TensorLeaf):
        return ValueNode(value)
    if isinstance(value, Mapping):
        return TreeNode({k: _coerce(v) for k, v in value.items()})
    if isinstance(value, np.ndarray):
        return ValueNode(from_array(value))
    if isinstance(value, bool):
        return ValueNode(make_leaf((), "bool", [value]))
    if isinstance(value, int):
        return ValueNode(make_leaf((), "i64", [value]))
    if isinstance(value, float):
        return ValueNode(make_leaf((), "f64", [value]))
    raise TypeError(f"cannot build a node from {type(value).__name__}")


def build_tree(pairs: Mapping) -> TreeTensor:
    """Build a TreeTensor (empty constraints) from a nested mapping.

    Values may be leaves, nodes, nested mappings, numpy arrays or python
    scalars (which become scalar leaves).
    """
    root = _coerce(dict(pairs))
    return TreeTensor(root)


def _str_path(path: str) -> TypeError:
    return TypeError(
        f"path {path!r} is a str, not a sequence of keys; "
        "split an 'a/b' string with path_from_string"
    )


def get(tree: TreeTensor, path: Iterable[str]) -> Node:
    """Return the node at path (shared with the tree, not copied)."""
    if isinstance(path, str):
        raise _str_path(path)
    cur: Node = tree.root
    try:
        for key in path:
            cur = cur._children[key]
    except (AttributeError, KeyError):
        raise PathNotFound(tuple(path)) from None
    return cur


def _set_node(node: TreeNode, path: Path, value: Node) -> TreeNode:
    key, rest = path[0], path[1:]
    children = dict(node.children)
    if rest:
        child = children.get(key)
        if not isinstance(child, TreeNode):
            raise PathNotFound(path)
        children[key] = _set_node(child, rest, value)
    else:
        children[key] = value
    return TreeNode(children)


def _remove_node(node: TreeNode, path: Path) -> TreeNode:
    key, rest = path[0], path[1:]
    children = dict(node.children)
    if key not in children:
        raise PathNotFound(path)
    if rest:
        child = children[key]
        if not isinstance(child, TreeNode):
            raise PathNotFound(path)
        children[key] = _remove_node(child, rest)
    else:
        del children[key]
    return TreeNode(children)


def _edited(tree: TreeTensor, new_root: TreeNode, path: Path, new: Node | None) -> TreeTensor:
    """The tree after the edit at path (new is None for a removal); raises
    ConstraintViolation, leaving `tree` untouched, if the edit breaks one."""
    ct = tree.constraints
    if ct.is_trivial:
        return TreeTensor(new_root)
    edited = _c.edit(ct, path, new is not None)
    if tree._checked:
        old = get_node(tree.root, path)
        bad = _c.write_violation(new_root, ct, path, old, new)
    else:
        bad = _c.first_violation(new_root, edited)
    if bad:
        raise ConstraintViolation(*bad)
    return TreeTensor._make(new_root, edited)


def set(tree: TreeTensor, path: Iterable[str], value) -> TreeTensor:
    """Persistent set; validates what the write can break and fails atomically."""
    if isinstance(path, str):
        raise _str_path(path)
    path = tuple(path)
    node = _coerce(value)
    if not path:
        if not isinstance(node, TreeNode):
            raise PathNotFound(path, "cannot replace the root with a value node")
        new_root = node
    else:
        # parent must exist
        get(tree, path[:-1])
        new_root = _set_node(tree.root, path, node)
    return _edited(tree, new_root, path, node)


def remove(tree: TreeTensor, path: Iterable[str]) -> TreeTensor:
    """Persistent removal of the node at path."""
    if isinstance(path, str):
        raise _str_path(path)
    path = tuple(path)
    if not path:
        raise PathNotFound(path, "cannot remove the root")
    get(tree, path)
    return _edited(tree, _remove_node(tree.root, path), path, None)


def structure_equal(a, b) -> bool:
    """Recursive key-set equality (equal structure keys); accepts trees or
    bare nodes."""
    na = a.root if isinstance(a, TreeTensor) else a
    nb = b.root if isinstance(b, TreeTensor) else b
    return flatten(na)[0] == flatten(nb)[0]


def leaves(tree) -> list[tuple[Path, object]]:
    """Depth-first, key-ascending (path, leaf) pairs."""
    node = tree.root if isinstance(tree, TreeTensor) else tree
    return list(iter_leaves(node))


def deep_copy(tree: TreeTensor) -> TreeTensor:
    """A tree sharing no leaf storage with the original."""
    structure, leaves = flatten(tree.root)
    root = unflatten(structure, [leaf.copy() for leaf in leaves])
    return TreeTensor._make(root, tree.constraints, tree._checked)


def validate_full(tree: TreeTensor) -> list[tuple[Path, _c.Constraint]]:
    """All constraint violations; empty list means ok."""
    return _c.violations(tree.root, tree.constraints)


def rebuild(pairs: list[tuple[Path, object]]) -> TreeTensor:
    """Build a tree from (path, leaf) pairs (inverse of leaves())."""
    nested: dict = {}
    for path, leaf in pairs:
        cur = nested
        for key in path[:-1]:
            cur = cur.setdefault(key, {})
        if not path:
            raise PathNotFound(path, "leaf at empty path")
        cur[path[-1]] = ValueNode(leaf)
    return build_tree(nested)
