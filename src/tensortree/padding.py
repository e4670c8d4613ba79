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
from .leaf import Column, TensorLeaf, _leaf_views
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
    leaves). A leaf that needs padding rejects a fill its dtype cannot hold
    (for i64: NaN, an infinity, or a value outside the i64 range); a fill
    that is not a real number is a TypeError. The stacked leaves of one
    dtype and device are views of one read-only buffer; the lengths tree is
    one packed i64 column of shape (leaf count, k).
    """
    if not isinstance(fill, (int, float, np.integer, np.floating, np.bool_)):
        raise TypeError(f"fill must be a real number, got {_quoted(fill)}")
    if not trees:
        raise EmptyInput("group_pad of zero trees")
    flat = [t._flat() for t in trees]
    td = flat[0][0]
    if any(other != td for other, _ in flat[1:]):
        raise StructureMismatch("group_pad needs structurally equal trees")
    lens, buckets, runs = [], {}, {}  # part lengths, leaf-major; per (tag, device); per tag
    try:
        for i, parts in enumerate(zip(*(leaves for _, leaves in flat))):
            f0 = parts[0]
            tail, tag, device = f0._array.shape[1:], f0._dtype, f0._device
            ids, tails, arrays = buckets.setdefault((tag, device), ([], [], []))  # leaves and parts
            sizes = []
            for p in parts:
                a = p._array
                s = a.shape
                if not s or s[1:] != tail or p._dtype != tag:
                    raise TailShapeMismatch(td.paths[i], None if s else "leaves must have a length dimension")
                if p._device != device:
                    raise TailShapeMismatch(td.paths[i], f"devices differ at {_where(td.paths[i])}: "
                                                         f"{_quoted(device)} and {_quoted(p._device)}")
                arrays.append(a)
                sizes.append(s[0])
            if max(sizes) > min(sizes) and tag not in runs:
                try:  # numpy's cast, once a dtype; it writes INT64_MIN for an i64 NaN or infinity
                    if tag == "i64" and not -(2**63) <= fill < 2**63:
                        raise OverflowError
                    runs[tag] = np.full(1, fill, f0._array.dtype)
                except OverflowError:
                    raise LeafOpError(td.paths[i], DtypeUnsupported(
                        f"fill {fill!r} does not fit {'a' if tag == 'bool' else 'an'} {tag} leaf"
                    )) from None
            ids.append(i)
            tails.append(tail)
            lens += sizes
    except AttributeError:
        _check_tensors(td.paths[i], parts)
        raise
    n = np.array(lens, np.int64).reshape(-1, len(trees))
    stacked = [None] * td.count
    for (tag, device), (ids, tails, arrays) in buckets.items():
        views = _stack(arrays, n[ids], tails, runs.get(tag))
        for i, leaf in zip(ids, _leaf_views(TensorLeaf, views, repeat(tag), repeat(device))):
            stacked[i] = leaf
    lengths = Column(n, TensorLeaf, "i64", "cpu")
    return PaddedGroup(TreeTensor._of(td, stacked), TreeTensor._of(td, lengths), fill)


def _stack(arrays: list, n: np.ndarray, tails: list, run: np.ndarray | None) -> list:
    """The stacked arrays of leaves of one dtype, of tails `tails`, from
    their parts `arrays`, leaf-major, of axis-0 lengths `n`, one row a leaf:
    views of one read-only buffer that one concatenate fills, each part
    followed by its padding (a slice of a broadcast of `run`, the fill cast
    to the dtype), so that each leaf is a C-contiguous block. A `b"".join`
    is faster but leaves a buffer descriptor on every part."""
    k, longest = n.shape[1], n.max(1)
    row = np.array([math.prod(tail) for tail in tails], np.int64)
    gaps = ((longest[:, None] - n) * row[:, None]).ravel().tolist()
    chunks, most = arrays, max(gaps)
    if most:
        run = np.broadcast_to(run, (most,))  # no copy: one element, stride 0
        cut = {w: run[:w] for w in set(gaps)}
        chunks = [None] * (2 * len(arrays))
        chunks[::2], chunks[1::2] = arrays, map(cut.__getitem__, gaps)
    buf = np.concatenate(chunks, axis=None)
    buf.setflags(False)
    size = k * longest * row
    offsets = ((np.cumsum(size) - size) * buf.itemsize).tolist()
    return [np.ndarray((k, m) + tail, buf.dtype, buf, o)
            for m, tail, o in zip(longest.tolist(), tails, offsets)]


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
    packed = type(lengths) is Column
    try:
        arrays = [leaf._array for leaf in stacked]
        counts = None if packed else [(l._dtype, l._array) for l in lengths]
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
        raise CorruptLengths(f"inconsistent batch sizes {_quoted(sorted(ks))}")
    k = ks.pop() if ks else (lengths.buf.shape[1] if packed else 0)  # a leafless group's k is its column's
    # the lengths as one (leaves, k) i64 array, up to the first leaf that is
    # not an i64 vector of k entries: all of a packed column's leaves or none
    if packed:
        good = len(lengths) if lengths.dtype == "i64" and lengths.buf.shape[1:] == (k,) else 0
        n = lengths.buf[:good]
    else:
        good = next((i for i, (tag, a) in enumerate(counts) if tag != "i64" or a.shape != (k,)),
                    len(counts))
        n = np.array([a for _, a in counts[:good]], np.int64).reshape(good, k)
    room = np.array([a.shape[1] for a in arrays[:good]], np.int64)
    out = ((n < 0) | (n > room[:, None])).any(1)
    if out.any():
        i = int(out.argmax())
        raise CorruptLengths(
            f"lengths at {_where(td.paths[i])} must lie in "
            f"[0, {room[i]}], got {_quoted(n[i].tolist())}"
        )
    if good < len(arrays):
        raise CorruptLengths(
            f"lengths at {_where(td.paths[good])} must be an i64 vector of {k} entries"
        )
    for i, a in enumerate(arrays):
        arrays[i] = a = np.ascontiguousarray(a)  # a itself when contiguous, else a copy
        a.setflags(False)
    tags, devices = [leaf._dtype for leaf in stacked], [leaf._device for leaf in stacked]
    return [TreeTensor._of(td, _leaf_views(TensorLeaf, [a[j, :m] for a, m in zip(arrays, ms)], tags, devices))
            for j, ms in enumerate(n.T.tolist())]
