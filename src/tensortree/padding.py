"""Group padding: batch structurally equal trees whose leaves vary along
dimension 0, padding each path to its maximum length and recording the
original lengths as a sibling tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CorruptLengths,
    DtypeUnsupported,
    EmptyInput,
    LeafOpError,
    StructureMismatch,
    TailShapeMismatch,
)
from .leaf import TensorLeaf
from .node import flatten, leaf_path, unflatten
from .tree import TreeTensor


@dataclass(frozen=True)
class PaddedGroup:
    stacked: TreeTensor   # per leaf: [k, L_max(path), *tail]
    lengths: TreeTensor   # per leaf: i64 vector of k original lengths
    fill: float | int


def group_pad(trees: Sequence[TreeTensor], fill) -> PaddedGroup:
    """Pad dim 0 of every leaf to the per-path maximum and stack the batch.

    `fill` is cast to each leaf's dtype as numpy casts it (fractions
    truncate toward zero in i64 leaves; any nonzero fill is True in bool
    leaves). An i64 leaf that needs padding rejects a fill it cannot hold
    (NaN, an infinity, or a value outside the i64 range).
    """
    if not trees:
        raise EmptyInput("group_pad of zero trees")
    flat = [flatten(t.root) for t in trees]
    structure = flat[0][0]
    if any(s != structure for s, _ in flat[1:]):
        raise StructureMismatch("group_pad needs structurally equal trees")
    stacked, lengths = [], []
    for i, parts in enumerate(zip(*(leaves for _, leaves in flat))):
        f0 = parts[0]
        if f0.ndim == 0:
            raise TailShapeMismatch(
                leaf_path(trees[0].root, i), "leaves must have a length dimension"
            )
        tail, dtype = f0.shape[1:], f0.array.dtype
        if any(p.ndim != f0.ndim or p.shape[1:] != tail or p.array.dtype != dtype for p in parts):
            raise TailShapeMismatch(leaf_path(trees[0].root, i))
        sizes = [p.shape[0] for p in parts]
        shape = (len(parts), max(sizes)) + tail
        if min(sizes) == shape[1]:
            out = np.empty(shape, dtype)  # nothing to pad: every cell is copied below
        elif dtype.kind == "i" and not -(2**63) <= fill < 2**63:
            # numpy would write INT64_MIN (NaN, infinities) or raise a bare error
            raise LeafOpError(leaf_path(trees[0].root, i), DtypeUnsupported(
                f"fill {fill!r} does not fit an i64 leaf"
            ))
        else:
            out = np.full(shape, fill, dtype)
        for j, p in enumerate(parts):
            out[j, : sizes[j]] = p.array
        stacked.append(TensorLeaf(out, device=f0.device))
        lengths.append(TensorLeaf(np.asarray(sizes, dtype=np.int64)))
    return PaddedGroup(
        TreeTensor(unflatten(structure, stacked)), TreeTensor(unflatten(structure, lengths)), fill
    )


def unpad(g: PaddedGroup) -> list[TreeTensor]:
    """Recover the original trees exactly."""
    structure, stacked = flatten(g.stacked.root)
    lengths_structure, lengths = flatten(g.lengths.root)
    if lengths_structure != structure:
        raise StructureMismatch("stacked and lengths trees differ in structure")
    ks = {l.shape[0] for l in stacked}
    if len(ks) > 1:
        raise CorruptLengths(f"inconsistent batch sizes {sorted(ks)}")
    k = ks.pop() if ks else 0
    for i, (leaf, l) in enumerate(zip(stacked, lengths)):
        if l.dtype != "i64" or l.shape != (k,):
            raise CorruptLengths(
                f"lengths at {'/'.join(leaf_path(g.lengths.root, i))} must be an i64 vector "
                f"of {k} entries"
            )
        if k and (l.array.min() < 0 or l.array.max() > leaf.shape[1]):
            raise CorruptLengths(
                f"lengths at {'/'.join(leaf_path(g.lengths.root, i))} must lie in "
                f"[0, {leaf.shape[1]}], got {l.data}"
            )
    return [
        TreeTensor(unflatten(structure, [
            TensorLeaf(np.ascontiguousarray(leaf.array[j, : l.array[j]]), device=leaf.device)
            for leaf, l in zip(stacked, lengths)
        ]))
        for j in range(k)
    ]
