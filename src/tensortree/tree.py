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
from .leaf import from_array, make_leaf
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
    # the cheap exact checks first: the Mapping ABC check is slow
    if isinstance(value, Node):
        return value  # a TensorLeaf is its own value node
    if isinstance(value, np.ndarray):
        return from_array(value)
    if isinstance(value, dict):
        return TreeNode({k: _coerce(v) for k, v in value.items()})
    if isinstance(value, TreeTensor):
        return value.root
    if isinstance(value, bool):
        return make_leaf((), "bool", [value])
    if isinstance(value, int):
        return make_leaf((), "i64", [value])
    if isinstance(value, float):
        return make_leaf((), "f64", [value])
    if isinstance(value, Mapping):
        return TreeNode({k: _coerce(v) for k, v in value.items()})
    raise TypeError(f"cannot build a node from {type(value).__name__}")


def build_tree(pairs: Mapping) -> TreeTensor:
    """Build a TreeTensor (empty constraints) from a nested mapping.

    Values may be leaves, nodes, nested mappings, numpy arrays or python
    scalars (which become scalar leaves).
    """
    root = _coerce(dict(pairs))
    return TreeTensor(root)


def _as_path(path: Iterable[str]) -> Path:
    if isinstance(path, str):
        raise TypeError(
            f"path {path!r} is a str, not a sequence of keys; "
            "split an 'a/b' string with path_from_string"
        )
    return tuple(path)


def get(tree: TreeTensor, path: Iterable[str]) -> Node:
    """Return the node at path (shared with the tree, not copied)."""
    path = _as_path(path)
    node = get_node(tree.root, path)
    if node is None:
        raise PathNotFound(path)
    return node


def _replace(node: TreeNode, path: Path, value: Node | None, i: int = 0) -> TreeNode:
    """Copy of `node` with `path[i:]` set to `value`, or removed when `value`
    is None, copying only the nodes on the path. PathNotFound names the
    whole path for a removal and the parent's path for a set."""
    key = path[i]
    children = dict(node._children)
    if i + 1 < len(path):
        child = children.get(key)
        if not isinstance(child, TreeNode):
            raise PathNotFound(path if value is None else path[:-1])
        children[key] = _replace(child, path, value, i + 1)
    elif value is not None:
        children[key] = value
    elif children.pop(key, None) is None:
        raise PathNotFound(path)
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
    path = _as_path(path)
    node = _coerce(value)
    if not path:
        if not isinstance(node, TreeNode):
            raise PathNotFound(path, "cannot replace the root with a value node")
        new_root = node
    else:
        new_root = _replace(tree.root, path, node)
    return _edited(tree, new_root, path, node)


def remove(tree: TreeTensor, path: Iterable[str]) -> TreeTensor:
    """Persistent removal of the node at path."""
    path = _as_path(path)
    if not path:
        raise PathNotFound(path, "cannot remove the root")
    return _edited(tree, _replace(tree.root, path, None), path, None)


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
