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
    _where,
)
from .leaf import Column, TensorLeaf, _new_leaf, stack_axis0
from .node import Path, treedef
from .tree import TreeTensor, leaves, structure_equal


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
        try:
            # as lists and dicts of leaves, which compare by TensorLeaf ==
            a, b = (nested_map(x.payload, lambda l: l, TensorLeaf) for x in (self, other))
        except InconsistentInnerStructure:
            return False
        return a == b

    def __hash__(self):
        return 0  # payloads contain unhashable lists; rarely hashed

    def copy(self) -> "StructuredLeaf":
        return StructuredLeaf(nested_map(self.payload, TensorLeaf.copy, TensorLeaf))

    def __repr__(self):
        return f"StructuredLeaf({self.payload!r})"


def nested_map(x, f, leaf_type):
    """The nested lists and dicts of `x` with f(v) in place of each element
    `v` of `leaf_type`; a tuple becomes a list. Any other element raises
    InconsistentInnerStructure."""
    if isinstance(x, leaf_type):
        return f(x)
    if isinstance(x, (list, tuple)):
        return [nested_map(v, f, leaf_type) for v in x]
    if isinstance(x, Mapping):
        return {k: nested_map(v, f, leaf_type) for k, v in x.items()}
    raise InconsistentInnerStructure(
        f"nested lists and dicts may hold only {leaf_type.__name__}s, not {type(x).__name__}"
    )


# ---------------------------------------------------------------------------
# mask / filter / reduce


def filter(tree: TreeTensor, predicate: Callable[[Path, TensorLeaf], bool]) -> TreeTensor:
    """Keep leaves where predicate(path, leaf) holds; prune the subtrees
    that removal empties (a subtree empty to begin with stays)."""
    td, payloads = tree._flat()
    return _keep(td, payloads, [predicate(p, leaf) for p, leaf in zip(td.paths, payloads)])


def _keep(td, payloads: list, keep: list) -> TreeTensor:
    if all(keep):
        return TreeTensor._of(td, payloads)
    kept = [leaf for leaf, k in zip(payloads, keep) if k]
    return TreeTensor._of(treedef(_kept(td.key, iter(keep)) or ()), kept)


def _kept(key: tuple, keep) -> tuple | None:
    """The structure key without the leaves whose next `keep` flag is false,
    or None if that empties a subtree that had children."""
    items = []
    for k, s in key:
        if s is None:
            if next(keep):
                items.append((k, None))
        else:
            sub = _kept(s, keep)
            if sub is not None:
                items.append((k, sub))
    if key and not items:
        return None
    return tuple(items)


def mask(tree: TreeTensor, sel: TreeTensor) -> TreeTensor:
    """Keep leaves whose scalar-bool selector is true; pruning as in filter."""
    if not structure_equal(tree, sel):
        raise StructureMismatch("mask selector structure differs from tree")
    td, flags = sel._flat()
    for i, flag in enumerate(flags):
        if not isinstance(flag, TensorLeaf) or flag.dtype != "bool" or flag.shape != ():
            raise NonBooleanMask(
                f"mask leaf at {_where(td.paths[i])} must be a scalar bool"
            )
    return _keep(*tree._flat(), [flag.item() for flag in flags])


def reduce(tree: TreeTensor, binop: Callable, init):
    """Fold over leaves in canonical depth-first key order."""
    acc = init
    for path, leaf in leaves(tree):
        try:
            acc = binop(acc, leaf)
        except TensorTreeError as exc:
            raise LeafOpError(path, exc) from exc
    return acc


# ---------------------------------------------------------------------------
# subside / rise


def subside(outer) -> TreeTensor:
    """Sink an outer container of structurally equal trees into the leaves.

    The StackedLeaf outputs of a flat list are copies; when every column
    aligns they are read-only views into one buffer per dtype
    (`leaf.stack_axis0`; packed trees give one stack of their buffers), so
    one surviving leaf, or one component of its `rise` (which views it),
    keeps its dtype's whole buffer alive until `leaf.copy()` or `deep_copy`
    detaches it.
    """
    trees: list[TreeTensor] = []
    nested_map(outer, trees.append, TreeTensor)
    if not trees:
        raise NoEmbeddedTree("no tree inside the outer structure")
    if isinstance(outer, TreeTensor):
        return outer
    flat = [t._flat() for t in trees]
    td = flat[0][0]
    if any(other != td for other, _ in flat[1:]):
        raise StructureMismatch("embedded trees differ in structure")
    lists = [payloads for _, payloads in flat]
    is_flat_seq = isinstance(outer, (list, tuple)) and all(
        isinstance(x, TreeTensor) for x in outer
    )
    if is_flat_seq:
        sunk = stack_axis0(lists, StackedLeaf)
        if sunk is not None:
            return TreeTensor._of(td, sunk)
    sunk = []
    for parts in zip(*lists):
        # a flat list with a ragged column still stacks every column that aligns
        stacked = stack_axis0([[p] for p in parts], StackedLeaf) if is_flat_seq else None
        if stacked:
            sunk.append(stacked[0])
        else:
            # nested_map visits the trees in the order it collected them
            column = iter(parts)
            sunk.append(StructuredLeaf(nested_map(outer, lambda _t: next(column), TreeTensor)))
    return TreeTensor._of(td, sunk)


def _skeleton(leaf):
    """The nested lists and dicts of "leaf" that `leaf` holds, or "leaf"."""
    if isinstance(leaf, StackedLeaf):
        return ["leaf"] * leaf.seq_len
    if isinstance(leaf, StructuredLeaf):
        return nested_map(leaf.payload, lambda _l: "leaf", TensorLeaf)
    if isinstance(leaf, TensorLeaf):
        return "leaf"
    raise InconsistentInnerStructure(f"unriseable leaf payload {type(leaf).__name__}")


def _payload(leaf):
    """The nested lists and dicts of leaves that rise indexes into: a
    StackedLeaf is split into read-only views of its rows."""
    if isinstance(leaf, StackedLeaf):
        rows, dtype, device = leaf._array, leaf._dtype, leaf._device
        # rows[i, ...] is a 0-d array where rows[i] would be a numpy scalar
        return [_new_leaf(TensorLeaf, rows[i, ...], device, dtype) for i in range(len(rows))]
    return leaf.payload


def _component(payload, sigma):
    for step in sigma:
        payload = payload[step]
    return payload


def rise(tree: TreeTensor):
    """Lift the common per-leaf inner structure back above the tree.

    Nothing is copied: component i's leaves are read-only views of row i of
    each StackedLeaf, and of a packed tree of StackedLeafs of ndim >= 2,
    component i is a column over a strided view of its buffer. So one
    surviving component keeps the stacked buffers alive until `leaf.copy()`
    or `deep_copy` detaches it."""
    td, payloads = tree._flat()
    if type(payloads) is Column and payloads.cls is StackedLeaf and payloads.shapes is None \
            and payloads.buf.ndim > 2:
        rows = payloads.buf.swapaxes(0, 1)  # component i is rows[i]
        return [TreeTensor._of(td, Column(r, TensorLeaf, payloads.dtype, payloads.device))
                for r in rows]
    if not payloads:
        return tree
    skels = [_skeleton(l) for l in payloads]
    if any(s != skels[0] for s in skels[1:]):
        raise InconsistentInnerStructure("leaf inner structures disagree")
    spec = skels[0]
    if spec == "leaf":
        return tree
    return _rise_build(td, [_payload(l) for l in payloads], spec, ())


def _rise_build(td, payloads: list, s, sigma):
    """The outer structure of skeleton `s` below position `sigma`.

    A module-level function rather than a recursive closure: a closure that
    calls itself is a reference cycle, which would keep the leaves alive
    until the next full garbage collection.
    """
    if s == "leaf":
        return TreeTensor._of(td, [_component(p, sigma) for p in payloads])
    if isinstance(s, list):
        return [_rise_build(td, payloads, sub, sigma + (i,)) for i, sub in enumerate(s)]
    return {k: _rise_build(td, payloads, sub, sigma + (k,)) for k, sub in s.items()}
