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
from .leaf import Column, TensorLeaf, _leaf_views, _spread, _starts
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
    dtype and device are views of one read-only buffer, a segmented column
    when every input is one; the lengths tree is one packed i64 column of
    shape (leaf count, k).
    """
    if not isinstance(fill, (int, float, np.integer, np.floating, np.bool_)):
        raise TypeError(f"fill must be a real number, got {_quoted(fill)}")
    if not trees:
        raise EmptyInput("group_pad of zero trees")
    flat = [t._flat() for t in trees]
    td = flat[0][0]
    if any(other != td for other, _ in flat[1:]):
        raise StructureMismatch("group_pad needs structurally equal trees")
    columns = [leaves for _, leaves in flat]
    c0 = columns[0]  # segmented columns of one dtype, device and ndim pad at once if their tails agree
    if all(type(c) is Column and c.shapes is not None and c.dtype == c0.dtype and c.device == c0.device
           and c.shapes.shape == c0.shapes.shape for c in columns):
        shapes = np.stack([c.shapes for c in columns])  # (k, leaves, ndim)
        if (shapes[:, :, 1:] == shapes[0, :, 1:]).all():
            return _pad_columns(td, columns, shapes, fill)
    lens, buckets, runs = [], {}, {}  # part lengths, leaf-major; per (tag, device); per tag
    try:
        for i, parts in enumerate(zip(*columns)):
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
            if max(sizes) > min(sizes) and tag not in runs:  # numpy's cast, once a dtype
                runs[tag] = _fill_run(fill, tag, f0._array.dtype, td.paths[i])
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


def _fill_run(fill, tag: str, dtype: np.dtype, path) -> np.ndarray:
    """`fill` cast to `dtype` as one element, or LeafOpError at `path` if a
    leaf of tag `tag` cannot hold it (numpy writes INT64_MIN for an i64 NaN
    or infinity)."""
    try:
        if tag == "i64" and not -(2**63) <= fill < 2**63:
            raise OverflowError
        return np.full(1, fill, dtype)
    except OverflowError:
        raise LeafOpError(path, DtypeUnsupported(
            f"fill {fill!r} does not fit {'a' if tag == 'bool' else 'an'} {tag} leaf")) from None


def _pad_columns(td, columns: list, shapes: np.ndarray, fill) -> PaddedGroup:
    """group_pad of segmented columns of one dtype and device whose rows'
    shapes `shapes` (k, leaves, ndim) agree past axis 0 leaf by leaf:
    `_stack`'s layout, made by one fill and one scatter of each tree's rows."""
    c0, k = columns[0], len(columns)
    n = np.ascontiguousarray(shapes[:, :, 0].T)  # the lengths, (leaves, k)
    tails, longest = shapes[0, :, 1:], n.max(1)
    row = tails.prod(1)
    width, pad = longest * row, longest > n.min(1)  # elements of one padded part; leaves to pad
    block, size, dtype = _starts(k * width), k * width.sum(), c0.buf.dtype
    # the fill is cast, and may fail, only if a leaf pads
    out = np.full(size, _fill_run(fill, c0.dtype, dtype, td.paths[pad.argmax()]), dtype) if pad.any() \
        else np.empty(size, dtype)
    for j, c in enumerate(columns):
        out[_spread(block + j * width, n[:, j] * row)] = c._rows()[1]
    stacked = Column(out, TensorLeaf, c0.dtype, c0.device,
                     np.column_stack([np.full(len(n), k), longest, tails]), block)
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
    A segmented stacked column gives k segmented columns over its buffer.
    """
    td, stacked = g.stacked._flat()
    lengths_td, lengths = g.lengths._flat()
    if lengths_td != td:
        raise StructureMismatch("stacked and lengths trees differ in structure")
    segmented = type(stacked) is Column and stacked.shapes is not None
    packed = type(lengths) is Column and lengths.shapes is None
    try:
        arrays = None if segmented else [leaf._array for leaf in stacked]
        shapes = stacked.shapes.tolist() if segmented else [a.shape for a in arrays]
        counts = None if packed else [(l._dtype, l._array) for l in lengths]
    except AttributeError:
        for i, pair in enumerate(zip(stacked, lengths)):
            _check_tensors(td.paths[i], pair)
        raise
    for i, s in enumerate(shapes):
        if len(s) < 2:
            raise CorruptLengths(
                f"stacked leaf at {_where(td.paths[i])} needs a batch "
                f"and a length dimension, got shape {list(s)}"
            )
    ks = {s[0] for s in shapes}
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
    room = np.array([s[1] for s in shapes[:good]], np.int64)
    out = ((n < 0) | (n > room[:, None])).any(1)
    if out.any():
        i = int(out.argmax())
        raise CorruptLengths(
            f"lengths at {_where(td.paths[i])} must lie in "
            f"[0, {room[i]}], got {_quoted(n[i].tolist())}"
        )
    if good < len(shapes):
        raise CorruptLengths(
            f"lengths at {_where(td.paths[good])} must be an i64 vector of {k} entries"
        )
    if segmented:  # tree j's row i: (n[i, j], *tail) at stacked row i's offset plus j padded parts
        tails = stacked.shapes[:, 2:]
        width = stacked.shapes[:, 1] * tails.prod(1)
        return [TreeTensor._of(td, Column(stacked.buf, TensorLeaf, stacked.dtype, stacked.device,
                                          np.column_stack([m, tails]), stacked.offsets + j * width))
                for j, m in enumerate(n.T)]
    for i, a in enumerate(arrays):
        arrays[i] = a = np.ascontiguousarray(a)  # a itself when contiguous, else a copy
        a.setflags(False)
    tags, devices = [leaf._dtype for leaf in stacked], [leaf._device for leaf in stacked]
    return [TreeTensor._of(td, _leaf_views(TensorLeaf, [a[j, :m] for a, m in zip(arrays, ms)], tags, devices))
            for j, ms in enumerate(n.T.tolist())]
