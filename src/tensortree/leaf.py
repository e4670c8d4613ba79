"""Dense array kernel: the leaf values stored at tree value-node positions.

Leaves are immutable after construction; every operation returns a new leaf.
Only scalar broadcasting is supported at this level.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import is_
from typing import Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    DtypeUnsupported,
    EmptyInput,
    InvalidChunk,
    LeafOpError,
    ShapeDataMismatch,
    ShapeMismatchLeaf,
    UnknownFunction,
)
from .node import ValueNode

_NP_DTYPE = {
    "f32": np.float32,
    "f64": np.float64,
    "i64": np.int64,
    "bool": np.bool_,
}
DTYPES = tuple(_NP_DTYPE)
_DTYPE_NAME = {np.dtype(v): k for k, v in _NP_DTYPE.items()}


class TensorLeaf(ValueNode):
    """An immutable dense array with shape, dtype tag and inert device tag.

    A leaf is its own value node in a tree (`leaf.leaf is leaf`). Data is
    held row-major. Equality is by value (shape, dtype, device and
    element-wise exact contents). The constructor holds a read-only
    row-major copy of `array`, as `from_array` does, and raises
    DtypeUnsupported for a numpy dtype without a tag.
    """

    __slots__ = ("_array", "_dtype", "_device")

    # built in __new__: ValueNode(leaf) returns the leaf, after which Python
    # would run an __init__ again on it
    def __new__(cls, array: np.ndarray, device: str = "cpu"):
        return _new_leaf(cls, np.array(array, order="C"), device)

    def __reduce__(self):
        return _new_leaf, (type(self), self._array, self._device)

    @property
    def leaf(self) -> "TensorLeaf":
        return self

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def dtype(self) -> str:
        return self._dtype

    @property
    def device(self) -> str:
        return self._device

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the data."""
        return self._array

    @property
    def data(self) -> list:
        """Flat row-major element list (python scalars)."""
        return self._array.reshape(-1).tolist()

    def copy(self) -> "TensorLeaf":
        """An independent leaf sharing no storage with this one."""
        return _new_leaf(type(self), self._array.copy(), self._device)

    def item(self):
        return self._array.reshape(-1)[0].item() if self.size else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorLeaf):
            return NotImplemented
        return (
            self._dtype == other._dtype
            and self._device == other._device
            and self._array.shape == other._array.shape
            and np.array_equal(self._array, other._array, self._dtype in ("f32", "f64"))
        )

    def __hash__(self):
        arr = self._array
        if self._dtype in ("f32", "f64"):  # leaves that compare equal hash equal:
            arr = np.where(np.isnan(arr), np.nan, arr + 0.0)  # one NaN; -0.0 + 0.0 is 0.0
        return hash((self._array.shape, self._dtype, self._device, arr.tobytes()))

    def __repr__(self):
        flat = self._array.reshape(-1)
        data = ", ".join(map(repr, flat[:_REPR_ELEMENTS].tolist()))
        more = ", …" if flat.size > _REPR_ELEMENTS else ""
        return f"TensorLeaf(shape={list(self.shape)}, dtype={self.dtype}, data=[{data}{more}])"


_object_new = object.__new__
_REPR_ELEMENTS = 6


def _tag(dtype: np.dtype) -> str:
    try:
        return _DTYPE_NAME[dtype]
    except KeyError:
        raise DtypeUnsupported(f"unsupported numpy dtype {dtype}") from None


def _new_leaf(cls, array: np.ndarray, device: str, dtype: str | None = None) -> TensorLeaf:
    """The one leaf constructor: checks the dtype tag and makes `array`
    read-only, or skips both when the caller passes `dtype` and so vouches
    that `array` is a view of a read-only array with that tag. Kernel
    outputs call it directly, skipping the type call and the copy that
    `TensorLeaf(...)` pays."""
    if dtype is None:
        dtype = _tag(array.dtype)
        array.setflags(False)  # write=False; positional is the cheap form
    self = _object_new(cls)
    self._array = array
    self._dtype = dtype
    self._device = device
    return self


class Column:
    """The leaf list of a packed tree: leaf i is a `cls` over row i of the
    read-only `buf`, tagged `dtype` and `device`. Rows of one shape of ndim
    >= 1 and at least one element lie in `buf`, maybe strided, as shape
    (leaf count, *leaf shape); `shapes` and `offsets` are None. A segmented
    column's rows share an ndim >= 1: row i has shape `shapes[i]` (an
    (n, ndim) i64 array) and starts at element `offsets[i]` of the flat
    `buf`. Kernels that read `buf` as a rectangle decline a column whose
    `shapes` is set, to the per-leaf path. Leaf objects are made on first
    index or iteration and kept, so a leaf read twice is one object (two
    threads racing through the first read may each make a list, and one of
    them is kept). A live leaf keeps the whole buffer alive."""

    __slots__ = ("buf", "cls", "dtype", "device", "shapes", "offsets", "_leaves")

    def __init__(self, buf: np.ndarray, cls, dtype: str, device: str, shapes=None, offsets=None):
        buf.setflags(False)
        self.buf, self.cls, self.dtype, self.device, self._leaves = buf, cls, dtype, device, None
        self.shapes, self.offsets = shapes, offsets

    def __reduce__(self):  # a segmented column pickles its rows end to end, not its buffer
        if self.shapes is None:
            return Column, (self.buf, self.cls, self.dtype, self.device)
        shapes, values = self._rows()
        return Column, (values, self.cls, self.dtype, self.device, shapes, _starts(_sizes(shapes)))

    def __len__(self) -> int:
        return len(self.buf if self.shapes is None else self.shapes)

    def copy(self) -> "Column":
        """A column over a compact copy of the rows, sharing no buffer with
        this one (a segmented view of a padded buffer copies no padding)."""
        _, (buf, *rest) = self.__reduce__()
        return Column(buf.copy(), *rest)

    def __getitem__(self, i):
        return self.leaves()[i]

    def __iter__(self):
        return iter(self.leaves())

    def __eq__(self, other) -> bool:
        """Equal as leaf lists, without making leaves when both are columns."""
        if type(other) is not Column:
            return self.leaves() == other if isinstance(other, list) else NotImplemented
        (s, a), (t, b) = self._rows(), other._rows()
        return not (len(s) or len(t)) or (  # two empty lists, whatever their leaf shape
            self.dtype == other.dtype and self.device == other.device and s.shape == t.shape
            and np.array_equal(s, t) and np.array_equal(a, b, self.dtype in ("f32", "f64")))

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(shapes, values): the rows' shapes as an (n, ndim) array, and
        their elements end to end in one flat array."""
        buf, shapes = self.buf, self.shapes
        if shapes is None:
            return np.broadcast_to(buf.shape[1:], (len(buf), buf.ndim - 1)), buf.reshape(-1)
        sizes = _sizes(shapes)
        if np.array_equal(self.offsets, _starts(sizes)):  # the rows lie end to end from buf[0]
            return shapes, buf[:sizes.sum()]
        return shapes, buf[_spread(self.offsets, sizes)]

    def leaves(self) -> list:
        out = self._leaves
        if out is None:
            rows = self.buf
            if self.shapes is not None:  # row i is a slice of the flat buffer
                ends = (self.offsets + _sizes(self.shapes)).tolist()
                rows = [rows[o:e] for o, e in zip(self.offsets.tolist(), ends)]
                if self.shapes.shape[1] > 1:
                    rows = [r.reshape(s) for r, s in zip(rows, self.shapes.tolist())]
            out = self._leaves = _leaf_views(self.cls, rows, repeat(self.dtype), repeat(self.device))
        return out


def _sizes(shapes: np.ndarray) -> np.ndarray:
    """The element count of each row of the (n, ndim) `shapes`, 1 for
    ndim 0: its columns multiplied, several times faster than `prod(1)`."""
    out = shapes[:, 0] if shapes.shape[1] else np.ones(len(shapes), np.int64)
    for j in range(1, shapes.shape[1]):
        out = out * shapes[:, j]
    return out


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Where each of blocks of `sizes` elements starts when laid end to end."""
    return np.cumsum(sizes) - sizes


def _spread(offsets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the elements of blocks of `sizes` elements that start
    at `offsets`, block by block."""
    return np.repeat(offsets - _starts(sizes), sizes) + np.arange(sizes.sum())


def _leaf_views(cls, arrays, dtypes, devices) -> list:
    """`_new_leaf(cls, a, device, dtype)` of each of `arrays` with the
    matching item of `dtypes` and `devices`, inlined: the call costs more
    than these stores. The caller vouches as for _new_leaf."""
    out = []
    for a, dtype, device in zip(arrays, dtypes, devices):
        leaf = _object_new(cls)
        leaf._array, leaf._dtype, leaf._device = a, dtype, device
        out.append(leaf)
    return out


def kinds(leaves, lo: int, hi: int) -> list:
    """The (dtype, device, shape) of each of leaves lo..hi-1, None for a
    payload that is not a TensorLeaf; a column's are read off its buffer
    and its shapes, making no leaf."""
    if type(leaves) is not Column:
        return [(p._dtype, p._device, p._array.shape) if isinstance(p, TensorLeaf) else None
                for p in leaves[lo:hi]]
    if leaves.shapes is None:
        return [(leaves.dtype, leaves.device, leaves.buf.shape[1:])] * (hi - lo)
    return [(leaves.dtype, leaves.device, tuple(s)) for s in leaves.shapes[lo:hi].tolist()]


def _check_tensors(path, payloads) -> None:
    """Raise LeafOpError at `path` if a payload is not a TensorLeaf (a
    StructuredLeaf from a ragged or nested subside), naming the first such
    payload. Leaf ops call it only once they have failed, or once `kinds`
    gave None, so trees of tensor leaves pay nothing."""
    for p in payloads:
        if not isinstance(p, TensorLeaf):
            cause = DtypeUnsupported(f"{type(p).__name__} payload is not a tensor")
            raise LeafOpError(path, cause)


def pack(arrays: list) -> Column | None:
    """A segmented column of copies of `arrays`, or None unless they are all
    exact ndarrays of one dtype (which must have a tag) and one ndim >= 1,
    each of 1 to BATCH_MAX_ELEMENTS elements. (`build_tree` packs arrays
    of one shape as a rectangle itself: its walk compares their shapes.)"""
    first = arrays[0] if arrays else None
    if type(first) is not np.ndarray or any(
            type(a) is not np.ndarray or a.dtype != first.dtype or a.ndim != first.ndim for a in arrays):
        return None
    shapes = np.array([a.shape for a in arrays], np.int64)
    sizes = _sizes(shapes)
    return Column(_pack(arrays), TensorLeaf, _tag(first.dtype), "cpu", shapes, _starts(sizes)) \
        if first.ndim and sizes.min() > 0 and sizes.max() <= BATCH_MAX_ELEMENTS else None


def make_leaf(shape: Sequence[int], dtype: str, data: Sequence, device: str = "cpu") -> TensorLeaf:
    """Build a leaf from a shape, a dtype tag and flat row-major data.

    The data is copied; the leaf owns its storage.
    """
    if dtype not in _NP_DTYPE:
        raise DtypeUnsupported(f"unknown dtype {dtype!r}")
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise ShapeDataMismatch(f"negative dimension in shape {shape}")
    n = math.prod(shape)
    data = list(data)
    if n != len(data):
        raise ShapeDataMismatch(
            f"shape {list(shape)} needs {n} elements, got {len(data)}"
        )
    arr = np.array(data, dtype=_NP_DTYPE[dtype]).reshape(shape)
    return _new_leaf(TensorLeaf, arr, device)


def scalar(value, dtype: str = "f64") -> TensorLeaf:
    """Convenience zero-dim leaf."""
    return make_leaf((), dtype, [value])


def from_array(arr: np.ndarray, device: str = "cpu") -> TensorLeaf:
    """A leaf holding a row-major copy of `arr` as a plain ndarray (0-d
    stays 0-d; an ndarray subclass such as np.matrix is dropped)."""
    return _new_leaf(TensorLeaf, np.array(arr, order="C"), device)


# ---------------------------------------------------------------------------
# elementwise function registry and kernel


def _div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Floor division on i64 (a zero divisor raises), IEEE division on floats."""
    if x.dtype.kind == "i":
        if np.any(y == 0):
            raise DivisionByZero("integer division by zero")
        return x // y
    with np.errstate(divide="ignore", invalid="ignore"):
        return x / y


# fn_id -> (arity, numpy function); the unary ids come first, sorted
_FNS = {
    "abs": (1, np.abs),
    "exp": (1, np.exp),
    "neg": (1, np.negative),
    "pow2": (1, np.exp2),
    "sigmoid": (1, lambda x: 1.0 / (1.0 + np.exp(-x))),
    "square": (1, np.square),
    "add": (2, np.add),
    "sub": (2, np.subtract),
    "mul": (2, np.multiply),
    "div": (2, _div),
    "mulsub": (3, lambda x, y, z: x * y - z),  # h(x, y, z) = x*y - z
}

UNARY_FN_IDS = tuple(f for f, (n, _) in _FNS.items() if n == 1)
BINARY_FN_IDS = tuple(f for f, (n, _) in _FNS.items() if n == 2)
NARY_FN_IDS = tuple(f for f, (n, _) in _FNS.items() if n > 2)


def fn_arity(fn_id: str) -> int:
    try:
        return _FNS[fn_id][0]
    except KeyError:
        raise UnknownFunction(f"unknown function {fn_id!r}") from None


def ew_nary(fn_id: str, leaves: Sequence[TensorLeaf]) -> TensorLeaf:
    """Apply a registered function element-wise to aligned leaves.

    Shapes must be equal or 0-d (a 0-d leaf broadcasts); bool leaves raise
    DtypeUnsupported; mixed dtypes promote to the widest float among them.
    An i64 leaf gives f64 under exp, pow2 and sigmoid: numpy's own loops for
    them take float64.
    """
    arity, fn = _FNS.get(fn_id, (None, None))
    if arity != len(leaves):  # fn_arity raises first for an unknown id
        raise UnknownFunction(f"{fn_id} takes {fn_arity(fn_id)} arguments, got {len(leaves)}")
    dtype = leaves[0]._dtype
    mixed = dtype == "bool"
    if arity == 1:  # the shape rule holds trivially; skipping its loop pays
        arrays = [leaves[0]._array]
    else:
        shape, arrays = (), []
        for l in leaves:
            a = l._array
            s = a.shape
            if s and s != shape:  # a 0-d leaf broadcasts
                if shape:
                    raise ShapeMismatchLeaf(f"shapes {shape} and {s} are incompatible")
                shape = s
            if l._dtype != dtype:
                mixed = True
            arrays.append(a)
    if mixed:  # the uncommon case: one dtype is the traffic
        dtypes = {l._dtype for l in leaves}
        if "bool" in dtypes:
            raise DtypeUnsupported(f"{fn_id} is unsupported on bool leaves")
        np_dt = np.float64 if "f64" in dtypes else np.float32
        arrays = [a.astype(np_dt, copy=False) for a in arrays]
    return _new_leaf(TensorLeaf, np.asarray(fn(*arrays)), leaves[0]._device)


def ew_unary(fn_id: str, t: TensorLeaf) -> TensorLeaf:
    """Apply a registered unary function element-wise."""
    return ew_nary(fn_id, (t,))


def ew_binary(fn_id: str, a: TensorLeaf, b: TensorLeaf) -> TensorLeaf:
    """Elementwise binary op; shapes must be equal or one operand scalar."""
    return ew_nary(fn_id, (a, b))


# ---------------------------------------------------------------------------
# structural leaf ops

_JOINS = {"stack": np.stack, "cat": np.concatenate}


def _join(leaves: Sequence[TensorLeaf], axis: int, what: str) -> TensorLeaf:
    """numpy checks shapes and axis range; dtypes must match exactly."""
    if not leaves:
        raise EmptyInput(f"{what} of zero leaves")
    first = leaves[0]
    if axis < 0:
        raise ShapeMismatchLeaf(f"negative {what} axis {axis}")
    for l in leaves:
        if l._dtype != first._dtype:
            raise ShapeMismatchLeaf(f"{what} needs one dtype; got {first._dtype} and {l._dtype}")
    try:
        out = _JOINS[what]([l._array for l in leaves], axis)
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        raise ShapeMismatchLeaf(f"{what}: {exc}") from exc
    return _new_leaf(TensorLeaf, out, first._device)


def stack(leaves: Sequence[TensorLeaf], axis: int = 0) -> TensorLeaf:
    """Stack same-shape leaves along a new axis."""
    return _join(leaves, axis, "stack")


def cat(leaves: Sequence[TensorLeaf], axis: int = 0) -> TensorLeaf:
    """Concatenate leaves along an existing axis (not zero-dim leaves)."""
    return _join(leaves, axis, "cat")


def join_columns(what: str, columns: Sequence, axis: int, cls=TensorLeaf) -> Column | None:
    """`stack` or `cat` (`what`) of each row of aligned packed columns
    along leaf axis `axis`, as one numpy call on their buffers. None,
    having computed nothing, unless every column is a rectangle `Column`
    and all share one dtype and device; None too if numpy rejects the shapes or the
    axis, which the per-leaf pass then reports at its leaf."""
    first = columns[0]
    for c in columns:
        if type(c) is not Column or c.shapes is not None or c.dtype != first.dtype \
                or c.device != first.device:
            return None
    try:
        buf = _JOINS[what]([c.buf for c in columns], axis + 1)
    except ValueError:  # numpy's AxisError is a ValueError too
        return None
    return Column(buf, cls, first.dtype, first.device)


def stack_axis0(lists: Sequence[Sequence], cls=TensorLeaf) -> Column | list | None:
    """Stack along a new axis 0 each column of the aligned leaf lists, one
    list per tree, copying each leaf once. Packed lists give one
    `join_columns` call. Otherwise the outputs, in column order, are `cls`
    leaves over read-only C-contiguous rows of one buffer (`_pack`) per
    dtype, leaf shape and device; a single buffer of leaves of at most
    BATCH_MAX_ELEMENTS elements stays a column.

    None, with nothing copied, unless every payload is a TensorLeaf and each
    column has one dtype and one shape; callers then stack column by column,
    which raises at the column at fault.
    """
    joined = join_columns("stack", lists, 0, cls)
    if joined is not None:
        return joined
    k = len(lists)
    groups: dict[tuple, list] = {}  # (dtype, device, leaf shape) -> its arrays
    order = []
    for column in zip(*lists):
        ks = kinds(column, 0, k)  # the device is the first leaf's, as in `stack`
        if None in ks or len({(tag, shape) for tag, _, shape in ks}) > 1:
            return None
        groups.setdefault(ks[0], []).extend(p._array for p in column)
        order.append(ks[0])
    packed = {g: Column(_pack(arrays).reshape((len(arrays) // k, k) + g[2]), cls, g[0], g[1])
              for g, arrays in groups.items()}
    if len(packed) == 1 and 0 < math.prod(order[0][2]) <= BATCH_MAX_ELEMENTS:
        return packed[order[0]]
    rows = {g: iter(c) for g, c in packed.items()}
    return [next(rows[g]) for g in order]


BATCH_MAX_ELEMENTS = 64  # larger leaves cost more to pack than their calls cost


def _pack(arrays: list) -> np.ndarray:
    """The elements of arrays of one dtype, copied into one flat
    read-only array: small arrays by joining their buffers, about 3x faster
    than `np.concatenate`, which is faster on large ones (a subside of eight
    trees of 65536-element leaves: 15 against 28 ms). numpy keeps a 56-byte
    description on each array whose buffer was joined, until it is freed."""
    if arrays[0].size <= BATCH_MAX_ELEMENTS:
        try:
            return np.frombuffer(b"".join(arrays), arrays[0].dtype)
        except TypeError:  # an array that is not C-contiguous exports no plain buffer
            pass
    out = np.concatenate(arrays, axis=None)
    out.setflags(False)
    return out


def ew_columns(fn_id: str, columns: Sequence) -> Column | None:
    """ew_nary over the rows of aligned leaf columns, one per argument, in
    one call, giving a column. A rectangle column goes in as its buffer (a
    segmented one declines); `_pack` copies a leaf list into one array (one
    leaf repeated, a raw leaf, goes in as it is). None, having computed
    nothing, unless the leaves are all
    TensorLeafs of one dtype (not bool) and device, and each row has one
    shape of ndim >= 1 and at least one element, at most BATCH_MAX_ELEMENTS
    where a list sets it (0-d leaves broadcast; onto a zero-size shape a 0-d
    zero divisor of i64 `div` would vanish); None too if the function raises."""
    probe = columns[0]
    if type(probe) is not Column:
        probe = probe[0] if probe else None
        if type(probe) is not TensorLeaf:
            return None
    dtype, device = probe.dtype, probe.device
    if dtype == "bool":
        return None
    shape, n = None, len(columns[0])
    packs, scalar_rows = [], None  # scalar_rows: the rows 0-d in every column so far
    for column in columns:
        if type(column) is Column:
            s = column.buf.shape[1:]
            if column.shapes is not None or column.dtype != dtype or column.device != device \
                    or shape not in (None, s):
                return None
            shape, scalar_rows = s, set()
            packs.append(column.buf)
            continue
        f = column[0]
        if f is column[-1] and all(map(is_, column, repeat(f))):
            column = (f,)
        arrays, zero_d = [], []
        for p in column:
            if type(p) is not TensorLeaf or p._dtype != dtype or p._device != device:
                return None
            a = p._array
            if a.shape != shape:
                if not a.shape:
                    zero_d.append(len(arrays))
                elif shape is not None or not 0 < a.size <= BATCH_MAX_ELEMENTS:
                    return None
                else:
                    shape = a.shape
            arrays.append(a)
        if len(arrays) == n or not zero_d:  # else each row is 0-d here
            scalar_rows = set(zero_d) if scalar_rows is None else scalar_rows.intersection(zero_d)
        packs.append((arrays, zero_d))
    if shape is None or scalar_rows:
        return None
    for j, pack in enumerate(packs):
        if type(pack) is tuple:  # a leaf list, not a column's buffer
            arrays, zero_d = pack
            for i in zero_d:
                arrays[i] = np.broadcast_to(arrays[i], shape)
            packs[j] = _pack(arrays).reshape((len(arrays),) + shape)
    try:
        out = _FNS[fn_id][1](*packs)
    except Exception:  # the caller's per-leaf pass raises it again, at its row
        return None
    out.setflags(False)  # raw leaves alone give one row, which broadcasting repeats
    return Column(np.broadcast_to(out, (n,) + shape), TensorLeaf, _DTYPE_NAME[out.dtype], device)


def split(t: TensorLeaf, chunk: int, axis: int = 0) -> list[TensorLeaf]:
    """Split into pieces of size `chunk` along `axis` (last may be shorter)."""
    if chunk < 1:
        raise InvalidChunk(f"chunk must be >= 1, got {chunk}")
    arr, device = t._array, t._device
    if arr.ndim == 0 or not 0 <= axis < arr.ndim:
        raise ShapeMismatchLeaf(f"axis {axis} out of range for ndim {arr.ndim}")
    # pieces are read-only views; immutability makes sharing safe
    return [_new_leaf(TensorLeaf, a, device, t._dtype) for a in _pieces(arr, chunk, axis)]


def split_column(column, chunk: int, axis: int) -> list[Column] | None:
    """`split` of every leaf of a packed column: one column of views per
    piece. None, having split nothing, unless `column` is a rectangle
    `Column` and the axis is in range."""
    if type(column) is not Column or column.shapes is not None or not 0 <= axis < column.buf.ndim - 1:
        return None
    return [Column(a, TensorLeaf, column.dtype, column.device)
            for a in _pieces(column.buf, chunk, axis + 1)]


def _pieces(arr: np.ndarray, chunk: int, axis: int) -> list:
    prefix = (slice(None),) * axis
    return [arr[prefix + (slice(i, i + chunk),)] for i in range(0, arr.shape[axis], chunk)]


def zeros_like(t: TensorLeaf) -> TensorLeaf:
    return _new_leaf(TensorLeaf, np.zeros(t.shape, dtype=t.array.dtype), t.device)
