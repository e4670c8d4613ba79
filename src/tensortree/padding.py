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
from .leaf import _NP_DTYPE, Column, TensorLeaf, _check_tensors, _leaf_views, _sizes, _spread, _starts, kinds
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
    when every input is a column; the lengths tree is one packed i64 column of
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
    c0 = columns[0]  # columns of one dtype, device and row ndim pad at once if their tails agree
    if all(type(c) is Column and c.dtype == c0.dtype and c.device == c0.device for c in columns):
        shapes, values = zip(*[c._rows() for c in columns])
        if all(np.array_equal(s[:, 1:], shapes[0][:, 1:]) for s in shapes):
            return _pad_columns(td, c0, np.stack(shapes), values, fill)
    lens, buckets, runs = [], {}, {}  # part lengths, leaf-major; per (tag, device); per tag
    for i, parts in enumerate(zip(*columns)):
        ks = kinds(parts, 0, len(parts))
        tag, device, shape = ks[0] or (None, None, ())  # a None kind raises below, at its part
        for kind in ks:  # the first part at fault decides; before a None, every part is a tensor
            t, d, s = kind or _check_tensors(td.paths[i], parts)
            if not s or s[1:] != shape[1:] or t != tag:
                raise TailShapeMismatch(td.paths[i], None if s else "leaves must have a length dimension")
            if d != device:
                raise TailShapeMismatch(td.paths[i], f"devices differ at {_where(td.paths[i])}: "
                                                     f"{_quoted(device)} and {_quoted(d)}")
        sizes = [s[0] for _, _, s in ks]
        if max(sizes) > min(sizes) and tag not in runs:  # numpy's cast, once a dtype
            runs[tag] = _fill_run(fill, tag, td.paths[i])
        ids, tails, arrays = buckets.setdefault((tag, device), ([], [], []))  # leaves and parts
        ids.append(i)
        tails.append(shape[1:])
        arrays += [p._array for p in parts]
        lens += sizes
    n = np.array(lens, np.int64).reshape(-1, len(trees))
    stacked = [None] * td.count
    for (tag, device), (ids, tails, arrays) in buckets.items():
        views = _stack(arrays, n[ids], tails, runs.get(tag))
        for i, leaf in zip(ids, _leaf_views(TensorLeaf, views, repeat(tag), repeat(device))):
            stacked[i] = leaf
    lengths = Column(n, TensorLeaf, "i64", "cpu")
    return PaddedGroup(TreeTensor._of(td, stacked), TreeTensor._of(td, lengths), fill)


def _fill_run(fill, tag: str, path) -> np.ndarray:
    """`fill` cast to the dtype of tag `tag` as one element, or LeafOpError
    at `path` if a leaf of that tag cannot hold it (numpy writes INT64_MIN
    for an i64 NaN or infinity)."""
    try:
        if tag == "i64" and not -(2**63) <= fill < 2**63:
            raise OverflowError
        return np.full(1, fill, _NP_DTYPE[tag])
    except OverflowError:
        raise LeafOpError(path, DtypeUnsupported(
            f"fill {fill!r} does not fit {'a' if tag == 'bool' else 'an'} {tag} leaf")) from None


def _pad_columns(td, c0: Column, shapes: np.ndarray, values: tuple, fill) -> PaddedGroup:
    """group_pad of columns of `c0`'s dtype and device whose rows, of
    shapes `shapes` (k, leaves, ndim) that agree past axis 0 leaf by leaf,
    lie end to end in `values`, one flat array a tree: `_stack`'s layout,
    made by one fill and one scatter of each tree's rows."""
    k = len(values)
    n = np.ascontiguousarray(shapes[:, :, 0].T)  # the lengths, (leaves, k)
    tails, longest = shapes[0, :, 1:], n.max(1)
    row = _sizes(tails)
    width, pad = longest * row, longest > n.min(1)  # elements of one padded part; leaves to pad
    block, size, dtype = _starts(k * width), k * width.sum(), values[0].dtype
    # the fill is cast, and may fail, only if a leaf pads
    out = np.full(size, _fill_run(fill, c0.dtype, td.paths[pad.argmax()]), dtype) if pad.any() \
        else np.empty(size, dtype)
    for j, v in enumerate(values):
        out[_spread(block + j * width, n[:, j] * row)] = v
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
    A stacked column gives k segmented columns over its rows.
    """
    td, stacked = g.stacked._flat()
    lengths_td, lengths = g.lengths._flat()
    if lengths_td != td:
        raise StructureMismatch("stacked and lengths trees differ in structure")
    column = type(stacked) is Column
    try:  # values: a column's rows end to end, or each stacked leaf's array
        rows, values = stacked._rows() if column else (None, [leaf._array for leaf in stacked])
        counts = None if type(lengths) is Column else [(l._dtype, l._array) for l in lengths]
    except AttributeError:
        for i, pair in enumerate(zip(stacked, lengths)):
            _check_tensors(td.paths[i], pair)
        raise
    shapes = rows.tolist() if column else [a.shape for a in values]
    for i, s in enumerate(shapes):
        if len(s) < 2:
            raise CorruptLengths(
                f"stacked leaf at {_where(td.paths[i])} needs a batch "
                f"and a length dimension, got shape {list(s)}"
            )
    ks = {s[0] for s in shapes}
    if len(ks) > 1:
        raise CorruptLengths(f"inconsistent batch sizes {_quoted(sorted(ks))}")
    # a leafless group's k is its lengths column's width: no row carries it
    k = ks.pop() if ks else (lengths.buf.shape[1] if counts is None else 0)
    # the lengths as one (leaves, k) i64 array, up to the first leaf that is
    # not an i64 vector of k entries
    if counts is None:
        sizes, flat = lengths._rows()
        ok = (sizes == k).all(1) & (sizes.shape[1] == 1 and lengths.dtype == "i64")
        good = next(iter(np.flatnonzero(~ok)), len(ok))
        n = flat[:good * k].reshape(good, k)
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
    if column:  # tree j's row i: (n[i, j], *tail) at stacked row i's start plus j padded parts
        tails, width = rows[:, 2:], _sizes(rows[:, 1:])  # a part's shape past axis 0; its room
        starts = _starts(k * width)
        return [TreeTensor._of(td, Column(values, TensorLeaf, stacked.dtype, stacked.device,
                                          np.column_stack([m, tails]), starts + j * width))
                for j, m in enumerate(n.T)]
    for i, a in enumerate(values):
        values[i] = a = np.ascontiguousarray(a)  # a itself when contiguous, else a copy
        a.setflags(False)
    tags, devices = [leaf._dtype for leaf in stacked], [leaf._device for leaf in stacked]
    return [TreeTensor._of(td, _leaf_views(TensorLeaf, [a[j, :m] for a, m in zip(values, ms)], tags, devices))
            for j, ms in enumerate(n.T.tolist())]
