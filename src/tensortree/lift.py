"""Function lifting: turn leaf-level operations into tree-level ones.

A lifted function recurses over tree nodes, preserving structure, and
applies the underlying leaf function once all arguments at a position are
leaves. Key-set disagreements between tree arguments are resolved by a
mismatch policy (strict / inner / outer / left).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from typing import Callable, Sequence

from . import leaf as _lf
from .constraints import first_violation
from .errors import (
    ArityMismatch,
    ConstraintViolation,
    EmptyInput,
    InvalidChunk,
    LeafOpError,
    MissingDefault,
    ShapeMismatchLeaf,
    StrictKeyMismatch,
    TensorTreeError,
)
from .leaf import TensorLeaf
from .node import Node, Path, TreeNode, ValueNode
from .tree import TreeTensor

POLICIES = ("strict", "inner", "outer", "left")


@dataclass(frozen=True)
class MismatchPolicy:
    """Key-merge rule plus the default leaf required by outer/left."""

    kind: str = "strict"
    default: TensorLeaf | None = None

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.kind in ("outer", "left"):
            if self.default is None:
                raise MissingDefault(f"{self.kind} policy requires a default leaf")
        elif self.default is not None:
            raise ValueError(f"{self.kind} policy forbids a default leaf")


STRICT = MismatchPolicy("strict")
INNER = MismatchPolicy("inner")


def merge_keys(children_maps: Sequence, policy: MismatchPolicy) -> list[str]:
    """Resolve the output key set of tree-node arguments under a policy."""
    if not children_maps:
        raise EmptyInput("merge_keys of zero tree nodes")
    if policy.kind == "strict":
        # fast path: dict key views compare as sets in C
        first = children_maps[0].keys()
        if all(m.keys() == first for m in children_maps[1:]):
            return list(first)
    key_sets = [set(m.keys()) for m in children_maps]
    if policy.kind == "strict":
        union = set().union(*key_sets)
        inter = set.intersection(*key_sets)
        if union != inter:
            raise StrictKeyMismatch(union - inter)
        keys = union
    elif policy.kind == "inner":
        keys = set.intersection(*key_sets)
    elif policy.kind == "outer":
        keys = set().union(*key_sets)
    else:  # left
        keys = key_sets[0]
    return sorted(keys)


def _wrap_leaf_error(path: Path, exc: TensorTreeError) -> LeafOpError:
    return LeafOpError(path, exc)


def _apply_nodes(
    nodes: Sequence[Node],
    policy: MismatchPolicy,
    fn: Callable[[Sequence[TensorLeaf]], TensorLeaf],
    path: Path = (),
) -> Node:
    tree_nodes = [n for n in nodes if isinstance(n, TreeNode)]
    if not tree_nodes:
        payloads = [n.leaf for n in nodes]
        try:
            return ValueNode(fn(payloads))
        except LeafOpError:
            raise
        except TensorTreeError as exc:
            raise _wrap_leaf_error(path, exc) from exc
    try:
        keys = merge_keys([t._children for t in tree_nodes], policy)
    except StrictKeyMismatch as exc:
        raise StrictKeyMismatch(exc.difference, path) from exc
    flags = [isinstance(n, TreeNode) for n in nodes]
    children = {}
    for k in keys:
        sub = []
        for n, is_tree in zip(nodes, flags):
            if is_tree:
                child = n._children.get(k)
                if child is None:
                    if policy.default is None:
                        raise MissingDefault(
                            f"no child {k!r} at {'/'.join(path) or '<root>'} "
                            "and the policy carries no default"
                        )
                    child = ValueNode(policy.default)
                sub.append(child)
            else:
                # value nodes and raw leaves broadcast into every branch
                sub.append(n)
        children[k] = _apply_nodes(sub, policy, fn, path + (k,))
    return TreeNode._from_validated(children)


def _as_node(arg) -> Node:
    if isinstance(arg, TreeTensor):
        return arg.root
    if isinstance(arg, Node):
        return arg
    if isinstance(arg, TensorLeaf):
        return ValueNode(arg)
    raise TypeError(f"cannot lift over a {type(arg).__name__}")


def lift_unary(fn_id: str) -> Callable[[TreeTensor], TreeTensor]:
    """Lift a registered unary leaf function to trees."""
    _lf.fn_arity(fn_id)  # fail fast on unknown ids

    def lifted(tree: TreeTensor, *, carry_constraints: bool = False) -> TreeTensor:
        """With carry_constraints, the result keeps the input's constraints
        and is validated in full; a violation raises ConstraintViolation."""
        root = _apply_nodes(
            [_as_node(tree)], STRICT, lambda ls: _lf.ew_unary(fn_id, ls[0])
        )
        if not (carry_constraints and isinstance(tree, TreeTensor)):
            return TreeTensor(root)
        bad = first_violation(root, tree.constraints)
        if bad:
            raise ConstraintViolation(*bad)
        # strict lifting keeps the structure, so the trie still fits the root
        return TreeTensor._make(root, tree.constraints)

    return lifted


def lift_multi(fn_id: str, policy: MismatchPolicy = STRICT) -> Callable[..., TreeTensor]:
    """Lift a registered function of any arity; arguments may be trees or
    raw leaves (raw leaves broadcast like value nodes)."""
    arity = _lf.fn_arity(fn_id)

    def lifted(*args) -> TreeTensor:
        if len(args) != arity:
            raise ArityMismatch(f"{fn_id} takes {arity} arguments, got {len(args)}")
        if not any(isinstance(a, (TreeTensor, Node)) for a in args):
            raise ArityMismatch("at least one argument must be a tree")
        nodes = [_as_node(a) for a in args]
        if arity == 1:
            root = _apply_nodes(nodes, policy, lambda ls: _lf.ew_unary(fn_id, ls[0]))
        else:
            root = _apply_nodes(nodes, policy, lambda ls: _lf.ew_nary(fn_id, ls))
        if not isinstance(root, TreeNode):
            raise ArityMismatch("at least one tree-rooted argument is required")
        return TreeTensor(root)

    return lifted


# ---------------------------------------------------------------------------
# structural lifted ops


def _join_fallback(nodes, arrays_join, axis, path):
    """Generic policy machinery handles the asymmetric / error cases."""

    def fn(leaves):
        d0 = leaves[0]._array.dtype
        for l in leaves[1:]:
            if l._array.dtype is not d0:
                raise ShapeMismatchLeaf("leaves differ in dtype")
        try:
            out = arrays_join([l._array for l in leaves], axis)
        except ValueError as exc:
            raise ShapeMismatchLeaf(str(exc)) from exc
        return TensorLeaf(out, device=leaves[0].device)

    return _apply_nodes(nodes, STRICT, fn, path)


def _join_nodes(nodes: Sequence[Node], arrays_join, axis, path: Path = ()) -> Node:
    """Strict recursion fused with the leaf join (hot path); falls back to
    the generic policy machinery on any asymmetry."""
    first = nodes[0]
    if type(first) is ValueNode:
        l0 = first.leaf
        d0 = l0._array.dtype
        arrays = [l0._array]
        for n in nodes[1:]:
            if type(n) is not ValueNode:
                return _join_fallback(nodes, arrays_join, axis, path)
            a = n.leaf._array
            if a.dtype is not d0:
                raise _wrap_leaf_error(path, ShapeMismatchLeaf("leaves differ in dtype"))
            arrays.append(a)
        try:
            out = arrays_join(arrays, axis)
        except ValueError as exc:
            raise _wrap_leaf_error(path, ShapeMismatchLeaf(str(exc))) from exc
        return ValueNode(TensorLeaf(out, device=l0._device))
    if type(first) is TreeNode:
        keys = first._children.keys()
        for n in nodes[1:]:
            if type(n) is not TreeNode or n._children.keys() != keys:
                return _join_fallback(nodes, arrays_join, axis, path)
        return TreeNode._from_validated(
            {
                k: _join_nodes([n._children[k] for n in nodes], arrays_join, axis, path + (k,))
                for k in keys
            }
        )
    return _join_fallback(nodes, arrays_join, axis, path)


def lifted_stack(trees: Sequence[TreeTensor], axis: int = 0) -> TreeTensor:
    """Per-position leaf stack of structurally equal trees."""
    if not trees:
        raise EmptyInput("stack of zero trees")
    nodes = [_as_node(t) for t in trees]
    if not 0 <= axis:
        raise ShapeMismatchLeaf(f"negative stack axis {axis}")
    root = _join_nodes(nodes, np.stack, axis)
    return TreeTensor(root)


def lifted_cat(trees: Sequence[TreeTensor], axis: int = 0) -> TreeTensor:
    if not trees:
        raise EmptyInput("cat of zero trees")
    nodes = [_as_node(t) for t in trees]
    if not 0 <= axis:
        raise ShapeMismatchLeaf(f"negative cat axis {axis}")
    root = _join_nodes(nodes, np.concatenate, axis)
    return TreeTensor(root)


def _split_node(node: Node, chunk: int, axis: int, path: Path = ()):
    """Returns (piece_count, node builder list)."""
    if isinstance(node, ValueNode):
        leaf = node.leaf
        arr = leaf.array
        if arr.ndim == 0 or not 0 <= axis < arr.ndim:
            raise _wrap_leaf_error(
                path, ShapeMismatchLeaf(f"axis {axis} out of range for ndim {arr.ndim}")
            )
        size = arr.shape[axis]
        if size == 0:
            return []
        dev = leaf.device
        prefix = (slice(None),) * axis
        # pieces are read-only views; immutability makes sharing safe
        return [
            ValueNode(TensorLeaf(arr[prefix + (slice(i, i + chunk),)], device=dev))
            for i in range(0, size, chunk)
        ]
    per_key = {k: _split_node(c, chunk, axis, path + (k,)) for k, c in node._children.items()}
    counts = {len(v) for v in per_key.values()}
    if len(counts) > 1:
        raise LeafOpError(path, TensorTreeError(
            f"split piece counts disagree across children: {sorted(counts)}"
        ))
    n = counts.pop() if counts else 0
    return [
        TreeNode._from_validated({k: per_key[k][i] for k in per_key})
        for i in range(n)
    ]


def lifted_split(tree: TreeTensor, chunk: int, axis: int = 0) -> list[TreeTensor]:
    """Split every leaf; regroup piece i of each leaf into tree i."""
    if chunk < 1:
        raise InvalidChunk(f"chunk must be >= 1, got {chunk}")
    node = _as_node(tree)
    if not any(True for _ in node.children):
        return []
    pieces = _split_node(node, chunk, axis)
    return [TreeTensor(p) for p in pieces]


def lifted_shape(tree: TreeTensor):
    """Tree of shape descriptors as a nested plain dict."""

    def walk(node: Node):
        if isinstance(node, ValueNode):
            return list(node.leaf.shape)
        return {k: walk(c) for k, c in node.children.items()}

    return walk(_as_node(tree))


def lifted_surface() -> dict:
    """Catalogue of every lifted operation, keyed by stable fn_id.

    Elementwise entries are factories taking a policy; structural entries
    are the lifted callables themselves.
    """
    surface: dict[str, dict] = {}
    for fn_id in _lf.UNARY_FN_IDS:
        surface[fn_id] = {
            "kind": "unary",
            "arity": 1,
            "make": (lambda f: lambda policy=STRICT: lift_multi(f, policy))(fn_id),
        }
    for fn_id in _lf.BINARY_FN_IDS + _lf.NARY_FN_IDS:
        surface[fn_id] = {
            "kind": "elementwise",
            "arity": _lf.fn_arity(fn_id),
            "make": (lambda f: lambda policy=STRICT: lift_multi(f, policy))(fn_id),
        }
    surface["stack"] = {"kind": "structural", "fn": lifted_stack}
    surface["cat"] = {"kind": "structural", "fn": lifted_cat}
    surface["split"] = {"kind": "structural", "fn": lifted_split}
    surface["shape"] = {"kind": "query", "fn": lifted_shape}
    return surface
