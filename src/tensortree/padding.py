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
    _where,
)
from .leaf import TensorLeaf, _new_leaf
from .lift import _check_tensors
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
    flat = [t._flat() for t in trees]
    td = flat[0][0]
    if any(other != td for other, _ in flat[1:]):
        raise StructureMismatch("group_pad needs structurally equal trees")
    stacked, lengths = [], []
    try:
        for i, parts in enumerate(zip(*(leaves for _, leaves in flat))):
            f0 = parts[0]
            tail, tag, dtype = f0._array.shape[1:], f0._dtype, f0._array.dtype
            arrays, sizes = [], []
            for p in parts:
                a = p._array
                if not a.shape or a.shape[1:] != tail or p._dtype != tag:
                    why = None if a.shape else "leaves must have a length dimension"
                    raise TailShapeMismatch(td.paths[i], why)
                arrays.append(a)
                sizes.append(a.shape[0])
            shape = (len(parts), max(sizes)) + tail
            if min(sizes) == shape[1]:
                out = np.empty(shape, dtype)  # nothing to pad: every cell is copied below
            elif dtype.kind == "i" and not -(2**63) <= fill < 2**63:
                # numpy would write INT64_MIN (NaN, infinities) or raise a bare error
                raise LeafOpError(td.paths[i], DtypeUnsupported(
                    f"fill {fill!r} does not fit an i64 leaf"
                ))
            else:
                out = np.full(shape, fill, dtype)
            for row, n, a in zip(out, sizes, arrays):
                row[:n] = a
            stacked.append(_new_leaf(TensorLeaf, out, f0._device))
            lengths.append(_new_leaf(TensorLeaf, np.asarray(sizes, dtype=np.int64), "cpu"))
    except AttributeError:
        _check_tensors(td.paths[i], parts)
        raise
    return PaddedGroup(TreeTensor._of(td, stacked), TreeTensor._of(td, lengths), fill)


def unpad(g: PaddedGroup) -> list[TreeTensor]:
    """Recover the original trees exactly.

    The recovered leaves are read-only views of `g.stacked` (of a row-major
    copy if a stacked leaf is not row-major), so one surviving leaf keeps
    its whole padded buffer alive; `leaf.copy()` or `deep_copy` detaches it.
    """
    td, stacked = g.stacked._flat()
    lengths_td, lengths = g.lengths._flat()
    if lengths_td != td:
        raise StructureMismatch("stacked and lengths trees differ in structure")
    try:
        arrays = [leaf._array for leaf in stacked]
        counts = [(l._dtype, l._array) for l in lengths]
    except AttributeError:
        for i, pair in enumerate(zip(stacked, lengths)):
            _check_tensors(td.paths[i], pair)
        raise
    for i, a in enumerate(arrays):
        if a.ndim < 2:
            raise CorruptLengths(
                f"stacked leaf at {_where(td.paths[i])} needs a batch "
                f"and a length dimension, got shape {list(a.shape)}"
            )
    ks = {a.shape[0] for a in arrays}
    if len(ks) > 1:
        raise CorruptLengths(f"inconsistent batch sizes {sorted(ks)}")
    k = ks.pop() if ks else 0
    columns = []
    for i, (a, leaf, (tag, lens)) in enumerate(zip(arrays, stacked, counts)):
        if tag != "i64" or lens.shape != (k,):
            raise CorruptLengths(
                f"lengths at {_where(td.paths[i])} must be an i64 vector "
                f"of {k} entries"
            )
        n = lens.tolist()
        if k and (min(n) < 0 or max(n) > a.shape[1]):
            raise CorruptLengths(
                f"lengths at {_where(td.paths[i])} must lie in "
                f"[0, {a.shape[1]}], got {n}"
            )
        a = np.ascontiguousarray(a)  # a itself when contiguous, else a copy
        a.setflags(False)
        columns.append((a, n, leaf._device, leaf._dtype))
    return [
        TreeTensor._of(td, [_new_leaf(TensorLeaf, a[j, : n[j]], dev, tag)
                            for a, n, dev, tag in columns])
        for j in range(k)
    ]
