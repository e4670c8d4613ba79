"""Group padding: batch structurally equal trees whose leaves vary along
dimension 0, padding each path to its maximum length and recording the
original lengths as a sibling tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import (
    CorruptLengths,
    DtypeUnsupported,
    EmptyInput,
    LeafOpError,
    StructureMismatch,
    TailShapeMismatch,
    _quoted,
    _where,
)
from .leaf import Column, TensorLeaf, _leaf_views, _new_leaf
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
    (NaN, an infinity, or a value outside the i64 range); a fill that is
    not a real number is a TypeError. The stacked leaves are views of one
    read-only buffer when they all have one dtype and device, else each has
    its own; the lengths tree is one packed i64 column.
    """
    if not isinstance(fill, (int, float, np.integer, np.floating, np.bool_)):
        raise TypeError(f"fill must be a real number, got {_quoted(fill)}")
    if not trees:
        raise EmptyInput("group_pad of zero trees")
    flat = [t._flat() for t in trees]
    td = flat[0][0]
    if any(other != td for other, _ in flat[1:]):
        raise StructureMismatch("group_pad needs structurally equal trees")
    arrays, lens, blocks, runs = [], [], [], {}  # parts, lengths (leaf-major); per leaf; per tag
    try:
        for i, parts in enumerate(zip(*(leaves for _, leaves in flat))):
            f0 = parts[0]
            tail, tag = f0._array.shape[1:], f0._dtype
            sizes = []
            for p in parts:
                a = p._array
                s = a.shape
                if not s or s[1:] != tail or p._dtype != tag:
                    why = None if s else "leaves must have a length dimension"
                    raise TailShapeMismatch(td.paths[i], why)
                arrays.append(a)
                sizes.append(s[0])
            if max(sizes) > min(sizes) and tag not in runs:
                if tag == "i64" and not -(2**63) <= fill < 2**63:
                    # numpy would write INT64_MIN (NaN, infinities) or raise a bare error
                    raise LeafOpError(td.paths[i], DtypeUnsupported(
                        f"fill {fill!r} does not fit an i64 leaf"
                    ))
                runs[tag] = np.full(1, fill, f0._array.dtype)  # numpy's cast, once a dtype
            lens += sizes
            blocks.append((tail, tag, f0._device))
    except AttributeError:
        _check_tensors(td.paths[i], parts)
        raise
    k = len(trees)
    n = np.array(lens, np.int64).reshape(-1, k)
    if len({b[1:] for b in blocks}) == 1:  # one dtype and device
        stacked = _stack(arrays, n, blocks, runs)
    else:
        # a buffer a leaf, filled, then copied into: on mixed f32 and f64 leaves of
        # 8 x 65536 elements this ran 1-2 ms of 30 faster than a concatenate a leaf
        stacked = []
        for i, (tail, tag, device) in enumerate(blocks):
            sizes = lens[i * k: (i + 1) * k]
            shape = (k, max(sizes)) + tail
            pad = min(sizes) < shape[1]
            out = np.full(shape, runs[tag][0]) if pad else np.empty(shape, arrays[i * k].dtype)
            for row, size, a in zip(out, sizes, arrays[i * k: (i + 1) * k]):
                row[:size] = a
            stacked.append(_new_leaf(TensorLeaf, out, device))
    lengths = Column(n, TensorLeaf, "i64", "cpu") if blocks else []
    return PaddedGroup(TreeTensor._of(td, stacked), TreeTensor._of(td, lengths), fill)


def _stack(arrays: list, n: np.ndarray, blocks: list, runs: dict) -> list:
    """The stacked leaves of `blocks`, (tail, tag, device) per leaf, all of
    one dtype and device, from their parts `arrays`, leaf-major, of axis-0
    lengths `n`, one row a leaf: views of one read-only buffer that one
    concatenate fills, each part followed by its padding (a slice of one run
    of the fill cast in `runs`), so that each leaf is a C-contiguous block.
    A `b"".join` is faster but leaves a buffer descriptor on every part."""
    k, longest = n.shape[1], n.max(1)
    row = np.array([math.prod(tail) for tail, _, _ in blocks], np.int64)
    gaps = ((longest[:, None] - n) * row[:, None]).ravel().tolist()
    chunks, most = arrays, max(gaps)
    if most:
        run = np.broadcast_to(runs[blocks[0][1]], (most,))  # no copy: one element, stride 0
        cut = {w: run[:w] for w in set(gaps)}
        chunks = [None] * (2 * len(arrays))
        chunks[::2], chunks[1::2] = arrays, map(cut.__getitem__, gaps)
    buf = np.concatenate(chunks, axis=None)
    buf.setflags(False)
    size = k * longest * row
    offsets = ((np.cumsum(size) - size) * buf.itemsize).tolist()
    views = [np.ndarray((k, m) + tail, buf.dtype, buf, o)
             for m, (tail, _, _), o in zip(longest.tolist(), blocks, offsets)]
    return _leaf_views(TensorLeaf, views, repeat(blocks[0][1]), repeat(blocks[0][2]))


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
        per_leaf = _packed_lengths(arrays, lengths)
        if per_leaf is None:
            counts = [(l._dtype, l._array) for l in lengths]
    except AttributeError:
        for i, pair in enumerate(zip(stacked, lengths)):
            _check_tensors(td.paths[i], pair)
        raise
    if per_leaf is None:
        for i, a in enumerate(arrays):
            if a.ndim < 2:
                raise CorruptLengths(
                    f"stacked leaf at {_where(td.paths[i])} needs a batch "
                    f"and a length dimension, got shape {list(a.shape)}"
                )
        ks = {a.shape[0] for a in arrays}
        if len(ks) > 1:
            raise CorruptLengths(f"inconsistent batch sizes {_quoted(sorted(ks))}")
        k = ks.pop() if ks else 0
        per_leaf = []
        for i, (a, (tag, lens)) in enumerate(zip(arrays, counts)):
            if tag != "i64" or lens.shape != (k,):
                raise CorruptLengths(
                    f"lengths at {_where(td.paths[i])} must be an i64 vector "
                    f"of {k} entries"
                )
            n = lens.tolist()
            if k and (min(n) < 0 or max(n) > a.shape[1]):
                raise CorruptLengths(
                    f"lengths at {_where(td.paths[i])} must lie in "
                    f"[0, {a.shape[1]}], got {_quoted(n)}"
                )
            per_leaf.append(n)
    for i, a in enumerate(arrays):
        arrays[i] = a = np.ascontiguousarray(a)  # a itself when contiguous, else a copy
        a.setflags(False)
    tags, devices = [leaf._dtype for leaf in stacked], [leaf._device for leaf in stacked]
    return [TreeTensor._of(td, _leaf_views(TensorLeaf, [a[j, :n] for a, n in zip(arrays, ns)], tags, devices))
            for j, ns in enumerate(zip(*per_leaf))]


def _packed_lengths(arrays: list, lengths) -> list | None:
    """A packed i64 lengths column as one list of lengths per leaf, checked
    in one numpy pass. None, having raised nothing, unless every stacked
    array has ndim >= 2 and k rows and every length lies in [0, L]; the
    per-leaf checks then raise."""
    if type(lengths) is not Column or lengths.dtype != "i64" or lengths.buf.ndim != 2:
        return None
    n = lengths.buf
    if any(a.ndim < 2 or a.shape[0] != n.shape[1] for a in arrays):
        return None
    room = np.array([a.shape[1] for a in arrays], np.int64)[:, None]
    return n.tolist() if (n >= 0).all() and (n <= room).all() else None
