"""Functional utilities over trees: mask, filter, reduce, subside, rise.

Subside sinks an outer container of structurally equal trees (nested lists
and dicts with trees at the bottom) into the leaves of a single tree; rise
inverts it. A flat list of trees whose corresponding leaves align in shape
is sunk eagerly into stacked leaves (`StackedLeaf`); anything ragged or
nested is kept as a `StructuredLeaf`, which only rise and serialization
consume.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .errors import (
    InconsistentInnerStructure,
    LeafOpError,
    NoEmbeddedTree,
    NonBooleanMask,
    StructureMismatch,
    TensorTreeError,
)
from .leaf import TensorLeaf, _new_leaf, stack_axis0
from .node import Node, Path, TreeNode, ValueNode, flatten, iter_leaves, unflatten
from .tree import TreeTensor, structure_equal


class StackedLeaf(TensorLeaf):
    """A leaf produced by sinking a flat sequence of shape-aligned leaves.

    Behaves exactly like the stacked TensorLeaf (axis 0 = sequence index);
    the subclass itself is the marker that rise uses to unstack.
    """

    __slots__ = ()

    @property
    def seq_len(self) -> int:
        return self.shape[0]


class StructuredLeaf:
    """Opaque container-of-leaves payload for ragged or nested subside."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    def __eq__(self, other):
        if not isinstance(other, StructuredLeaf):
            return NotImplemented
        return _payload_equal(self.payload, other.payload)

    def __hash__(self):
        return 0  # payloads contain unhashable lists; rarely hashed

    def copy(self) -> "StructuredLeaf":
        return StructuredLeaf(_payload_map(self.payload, lambda l: l.copy()))

    def __repr__(self):
        return f"StructuredLeaf({self.payload!r})"


def _payload_equal(a, b) -> bool:
    if isinstance(a, TensorLeaf) and isinstance(b, TensorLeaf):
        return a == b
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_payload_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_payload_equal(a[k], b[k]) for k in a)
    return False


def _payload_map(payload, f):
    if isinstance(payload, TensorLeaf):
        return f(payload)
    if isinstance(payload, (list, tuple)):
        return [_payload_map(p, f) for p in payload]
    return {k: _payload_map(v, f) for k, v in payload.items()}


# ---------------------------------------------------------------------------
# mask / filter / reduce


def _filter_node(node: Node, pred, path: Path) -> Node | None:
    if isinstance(node, ValueNode):
        return node if pred(path, node.leaf) else None
    had_children = len(node) > 0
    kept = {}
    for k, child in node.children.items():
        out = _filter_node(child, pred, path + (k,))
        if out is not None:
            kept[k] = out
    if had_children and not kept:
        return None
    return TreeNode(kept)


def filter(tree: TreeTensor, predicate: Callable[[Path, TensorLeaf], bool]) -> TreeTensor:
    """Keep leaves where predicate(path, leaf) holds; prune the subtrees
    that removal empties (a subtree empty to begin with stays)."""
    out = _filter_node(tree.root, predicate, ())
    return TreeTensor(out if out is not None else TreeNode({}))


def mask(tree: TreeTensor, sel: TreeTensor) -> TreeTensor:
    """Keep leaves whose scalar-bool selector is true; pruning as in filter."""
    if not structure_equal(tree, sel):
        raise StructureMismatch("mask selector structure differs from tree")
    flags = dict(iter_leaves(sel.root))
    for path, flag in flags.items():
        if not isinstance(flag, TensorLeaf) or flag.dtype != "bool" or flag.shape != ():
            raise NonBooleanMask(
                f"mask leaf at {'/'.join(path) or '<root>'} must be a scalar bool"
            )
    return filter(tree, lambda path, _leaf: flags[path].item())


def reduce(tree: TreeTensor, binop: Callable, init):
    """Fold over leaves in canonical depth-first key order."""
    acc = init
    for path, leaf in iter_leaves(tree.root):
        try:
            acc = binop(acc, leaf)
        except TensorTreeError as exc:
            raise LeafOpError(path, exc) from exc
    return acc


# ---------------------------------------------------------------------------
# subside / rise


def _collect_trees(outer, out: list):
    if isinstance(outer, TreeTensor):
        out.append(outer)
    elif isinstance(outer, (list, tuple)):
        for item in outer:
            _collect_trees(item, out)
    elif isinstance(outer, Mapping):
        for v in outer.values():
            _collect_trees(v, out)
    else:
        raise InconsistentInnerStructure(
            f"outer structures may hold only lists, dicts and trees, "
            f"not {type(outer).__name__}"
        )
    return out


def _outer_map(outer, f):
    if isinstance(outer, TreeTensor):
        return f(outer)
    if isinstance(outer, (list, tuple)):
        return [_outer_map(item, f) for item in outer]
    return {k: _outer_map(v, f) for k, v in outer.items()}


def subside(outer) -> TreeTensor:
    """Sink an outer container of structurally equal trees into the leaves.

    The StackedLeaf outputs of a flat list are copies; when every column
    aligns they are read-only views into one buffer per dtype
    (`leaf.stack_axis0`), so one surviving leaf keeps its dtype's whole
    buffer alive until `leaf.copy()` or `deep_copy` detaches it.
    """
    trees = _collect_trees(outer, [])
    if not trees:
        raise NoEmbeddedTree("no tree inside the outer structure")
    if isinstance(outer, TreeTensor):
        return outer
    flat = [flatten(t.root) for t in trees]
    structure = flat[0][0]
    if any(s != structure for s, _ in flat[1:]):
        raise StructureMismatch("embedded trees differ in structure")
    lists = [leaves for _, leaves in flat]
    is_flat_seq = isinstance(outer, (list, tuple)) and all(
        isinstance(x, TreeTensor) for x in outer
    )
    if is_flat_seq:
        sunk = stack_axis0(lists, StackedLeaf)
        if sunk is not None:
            return TreeTensor(unflatten(structure, sunk))
    sunk = []
    for parts in zip(*lists):
        # a flat list with a ragged column still stacks every column that aligns
        stacked = stack_axis0([[p] for p in parts], StackedLeaf) if is_flat_seq else None
        if stacked:
            sunk.append(stacked[0])
        else:
            # _outer_map visits the trees in _collect_trees order
            column = iter(parts)
            sunk.append(StructuredLeaf(_outer_map(outer, lambda _t: next(column))))
    return TreeTensor(unflatten(structure, sunk))


def _skeleton(leaf):
    if isinstance(leaf, StackedLeaf):
        return ("seq", ["leaf"] * leaf.seq_len)
    if isinstance(leaf, StructuredLeaf):
        return _payload_skeleton(leaf.payload)
    if isinstance(leaf, TensorLeaf):
        return "leaf"
    raise InconsistentInnerStructure(f"unriseable leaf payload {type(leaf).__name__}")


def _payload_skeleton(payload):
    if isinstance(payload, TensorLeaf):
        return "leaf"
    if isinstance(payload, (list, tuple)):
        return ("seq", [_payload_skeleton(p) for p in payload])
    if isinstance(payload, dict):
        return ("map", {k: _payload_skeleton(v) for k, v in payload.items()})
    raise InconsistentInnerStructure(f"bad payload element {type(payload).__name__}")


def _payload(leaf):
    """The nested lists and dicts of leaves that rise indexes into: a
    StackedLeaf is copied once and split into its rows."""
    if isinstance(leaf, StackedLeaf):
        rows = leaf._array.copy()
        rows.setflags(False)
        # rows[i, ...] is a 0-d array where rows[i] would be a numpy scalar
        return [_new_leaf(TensorLeaf, rows[i, ...], leaf._device) for i in range(len(rows))]
    return leaf.payload


def _component(payload, sigma):
    for step in sigma:
        payload = payload[step]
    return payload


def rise(tree: TreeTensor):
    """Lift the common per-leaf inner structure back above the tree.

    The component leaves are copies of the input; the k rows of one
    StackedLeaf share one read-only buffer."""
    structure, leaves = flatten(tree.root)
    if not leaves:
        return tree
    skels = [_skeleton(l) for l in leaves]
    if any(s != skels[0] for s in skels[1:]):
        raise InconsistentInnerStructure("leaf inner structures disagree")
    spec = skels[0]
    if spec == "leaf":
        return tree
    return _rise_build(structure, [_payload(l) for l in leaves], spec, ())


def _rise_build(structure, payloads: list, s, sigma):
    """The outer structure of skeleton `s` below position `sigma`.

    A module-level function rather than a recursive closure: a closure that
    calls itself is a reference cycle, which would keep the leaves alive
    until the next full garbage collection.
    """
    if s == "leaf":
        return TreeTensor(unflatten(structure, [_component(p, sigma) for p in payloads]))
    kind, parts = s
    if kind == "seq":
        return [_rise_build(structure, payloads, sub, sigma + (i,)) for i, sub in enumerate(parts)]
    return {k: _rise_build(structure, payloads, sub, sigma + (k,)) for k, sub in parts.items()}
