"""TreeTensor: a tree in flat form (a structure object, `TreeDef`, and the
leaf payloads in flatten order) paired with a sparse trie of constraint
placements.

Values are persistent: every mutator returns a new TreeTensor that shares
all untouched leaves and subtrees with the original. The flat form is the
canonical one: lifting under every policy, the other leafwise operations
and IO run on it and never build a `TreeNode`. `.root`, the node view that
`get`, structural edits and the constraint checks walk, is built from it on
first access and kept, which is safe because a TreeTensor never changes. A tree made from a root
derives its flat form with one `flatten` when an operation first needs it.
A constrained `set`/`remove` checks only what the edit can break: the
ancestors' node atoms and the written subtree.
"""

from __future__ import annotations

import weakref
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping

import numpy as np

from . import constraints as _c
from .errors import BadPath, ConstraintViolation, PathNotFound
from .leaf import from_array, make_leaf
from .node import Node, Path, TreeDef, TreeNode, ValueNode, check_key, flatten, get_node
from .node import treedef, unflatten

_REPR_LEAVES = 8


class TreeTensor:
    """A tree in flat form, or a tree-node root until an operation needs the
    flat form, and the constraints it carries.

    A constrained tree built here with a constraint tree is normalized to
    the sparse trie, but its validity is not checked: its first constrained
    write checks the whole tree. Trees the library builds itself are known
    to be valid and check only what each edit can break.
    """

    __slots__ = ("_root", "_treedef", "_leaves", "_base", "constraints", "_checked", "__weakref__")

    def __init__(self, root: TreeNode, constraints: _c.ConstraintTree | None = None):
        if not isinstance(root, TreeNode):
            raise TypeError("TreeTensor root must be a tree node")
        self._root, self._treedef, self._leaves, self._base = root, None, None, None
        if constraints is None or constraints.is_trivial:
            self.constraints, self._checked = _c.TRIVIAL, True
        else:
            self.constraints, self._checked = _c.sparse(constraints, root), False

    @classmethod
    def _make(cls, root: TreeNode, constraints: _c.ConstraintTree, checked: bool = True):
        """Internal: `constraints` is already a sparse trie over `root`."""
        tree = cls._of(None, None, constraints, checked)
        tree._root = root
        return tree

    @classmethod
    def _of(cls, td: TreeDef, leaves: list, constraints=_c.TRIVIAL, checked: bool = True,
            base: "weakref.ref | None" = None):
        """Internal: the tree of a tree structure and its payloads in flatten
        order; the list is the tree's own from here on, never mutated. A
        `base`, a weak reference to a tree of the same structure, lends that
        tree's root to this one's while it lives."""
        tree = cls.__new__(cls)
        tree._root, tree._treedef, tree._leaves, tree._base = None, td, leaves, base
        tree.constraints, tree._checked = constraints, checked
        return tree

    @property
    def root(self) -> TreeNode:
        """The node view, built on first access and then kept: a walk that
        makes every inner node or, for a tree that `set` wrote leaves into
        while the tree it wrote into lives, a copy of that tree's root along
        the paths of the leaves that differ, so the two share every
        untouched subtree."""
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

    def __reduce__(self):  # a weak `_base` does not pickle; the node view does
        return TreeTensor._make, (self.root, self.constraints, self._checked)

    @property
    def treedef(self) -> TreeDef:
        return self._flat()[0]

    def _flat(self) -> tuple[TreeDef, list]:
        """(treedef, leaves): derived from the root by one flatten when the
        tree was made from a root, then kept."""
        if self._leaves is None:
            key, leaves = flatten(self._root)
            self._treedef, self._leaves = treedef(key), leaves
        return self._treedef, self._leaves

    def __eq__(self, other):
        if not isinstance(other, TreeTensor):
            return NotImplemented
        (td, ls), (other_td, other_ls) = self._flat(), other._flat()
        return td == other_td and ls == other_ls and self.constraints == other.constraints

    def __repr__(self):
        pairs = leaves(self)
        shown = [f"{'/'.join(p)}: {_summary(l)}" for p, l in pairs[:_REPR_LEAVES]]
        if len(pairs) > _REPR_LEAVES:
            shown.append("…")
        return f"TreeTensor({len(pairs)} leaves: {{{', '.join(shown)}}})"

    def with_constraints(self, placements: Mapping[Path, _c.Constraint]) -> "TreeTensor":
        """Attach constraints built from placements; validates in full."""
        return TreeTensor._make(self.root, _c.build_constraint_tree(self.root, dict(placements)))


def _summary(payload) -> str:
    if hasattr(payload, "shape"):
        return f"{list(payload.shape)} {payload.dtype}"
    return type(payload).__name__


def _flat_into(value, leaves: list) -> tuple | None:
    """The structure key of the node `value` stands for (None for a value
    node), its payloads appended to `leaves` in flatten order. A mapping's
    keys are sorted and checked as `TreeNode` does."""
    # the cheap exact checks first: the Mapping ABC check is slow
    if isinstance(value, TreeNode):
        key, payloads = flatten(value)
        leaves.extend(payloads)
        return key
    if isinstance(value, Node):
        leaves.append(value.leaf)  # a TensorLeaf is its own value node
    elif isinstance(value, np.ndarray):
        leaves.append(from_array(value))
    elif isinstance(value, dict):
        return _items_key(value, leaves)
    elif isinstance(value, TreeTensor):
        leaves.extend(value._flat()[1])
        return value._flat()[0].key
    elif isinstance(value, bool):
        leaves.append(make_leaf((), "bool", [value]))
    elif isinstance(value, int):
        leaves.append(make_leaf((), "i64", [value]))
    elif isinstance(value, float):
        leaves.append(make_leaf((), "f64", [value]))
    elif isinstance(value, Mapping):
        return _items_key(value, leaves)
    else:
        raise TypeError(f"cannot build a node from {type(value).__name__}")
    return None


def _items_key(mapping, leaves: list) -> tuple:
    items = sorted(mapping.items())
    for k, _ in items:
        check_key(k)
    return tuple([(k, _flat_into(v, leaves)) for k, v in items])


def _coerce(value) -> Node:
    if isinstance(value, Node):
        return value
    if isinstance(value, TreeTensor):
        return value.root
    leaves: list = []
    return unflatten(_flat_into(value, leaves), leaves)


def build_tree(pairs: Mapping) -> TreeTensor:
    """Build a TreeTensor (empty constraints) from a nested mapping.

    Values may be leaves, nodes, nested mappings, numpy arrays or python
    scalars (which become scalar leaves).
    """
    leaves: list = []
    key = _flat_into(dict(pairs), leaves)
    return TreeTensor._of(treedef(key), leaves)


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
    """Persistent set; validates what the write can break and fails atomically.

    A value written over an existing leaf of an unconstrained tree in flat
    form copies the leaf list and keeps the structure; any other write
    copies the nodes on the path. The result of the first kind holds a weak
    reference to the nearest living tree up its chain of such writes that
    has a root or no such reference itself, and builds its root from that
    tree's root, so a loop of writes keeps no earlier tree alive."""
    path = _as_path(path)
    node = _coerce(value)
    if tree._leaves is not None and tree.constraints.is_trivial and not isinstance(node, TreeNode):
        i = tree._treedef.index.get(path)
        if i is not None:
            payloads = list(tree._leaves)
            payloads[i] = node.leaf
            base = tree._root is None and tree._base and tree._base()
            return TreeTensor._of(tree._treedef, payloads, base=weakref.ref(base or tree))
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
    """A tree sharing no leaf storage with the original."""
    td, payloads = tree._flat()
    return TreeTensor._of(td, [leaf.copy() for leaf in payloads], tree.constraints, tree._checked)


def validate_full(tree: TreeTensor) -> list[tuple[Path, _c.Constraint]]:
    """All constraint violations; empty list means ok."""
    return _c.violations(tree.root, tree.constraints)


def rebuild(pairs: list[tuple[Path, object]]) -> TreeTensor:
    """Build a tree from (path, leaf) pairs (inverse of leaves()); of two
    pairs with one path the later wins."""
    payloads = {}
    for path, leaf in pairs:
        if not path:
            raise PathNotFound(path, "leaf at empty path")
        payloads[tuple(path)] = ValueNode(leaf).leaf
    paths = sorted(payloads)
    return TreeTensor._of(treedef(_paths_key(paths, 0)), [payloads[p] for p in paths])


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
