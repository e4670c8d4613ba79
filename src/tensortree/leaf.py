"""Dense array kernel: the leaf values stored at tree value-node positions.

Leaves are immutable after construction; every operation returns a new leaf.
Only scalar broadcasting is supported at this level.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    DtypeUnsupported,
    EmptyInput,
    InvalidChunk,
    ShapeDataMismatch,
    ShapeMismatchLeaf,
    UnknownFunction,
)

DTYPES = ("f32", "f64", "i64", "bool")

_NP_DTYPE = {
    "f32": np.float32,
    "f64": np.float64,
    "i64": np.int64,
    "bool": np.bool_,
}
_DTYPE_NAME = {np.dtype(v): k for k, v in _NP_DTYPE.items()}


class TensorLeaf:
    """An immutable dense array with shape, dtype tag and inert device tag.

    Data is held row-major. Equality is by value (shape, dtype, device and
    element-wise exact contents).
    """

    __slots__ = ("_array", "_device")

    def __init__(self, array: np.ndarray, device: str = "cpu"):
        self._array = array
        self._array.flags.writeable = False
        self._device = device

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
        return _DTYPE_NAME[self._array.dtype]

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
        return type(self)(self._array.copy(), device=self._device)

    def item(self):
        return self._array.reshape(-1)[0].item() if self.size else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorLeaf):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.dtype == other.dtype
            and self._device == other._device
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.shape, self.dtype, self._device, self._array.tobytes()))

    def __repr__(self):
        return f"TensorLeaf(shape={list(self.shape)}, dtype={self.dtype}, data={self.data})"


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
    return TensorLeaf(arr, device=device)


def scalar(value, dtype: str = "f64") -> TensorLeaf:
    """Convenience zero-dim leaf."""
    return make_leaf((), dtype, [value])


def from_array(arr: np.ndarray, device: str = "cpu") -> TensorLeaf:
    if arr.dtype not in _DTYPE_NAME:
        raise DtypeUnsupported(f"unsupported numpy dtype {arr.dtype}")
    return TensorLeaf(np.ascontiguousarray(arr).copy(), device=device)


# ---------------------------------------------------------------------------
# elementwise function registry

_UNARY = {
    "neg": np.negative,
    "exp": np.exp,
    "pow2": lambda x: np.exp2(x),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "abs": np.abs,
    "square": np.square,
}

# functions whose result is not closed over the integers
_TRANSCENDENTAL = frozenset({"exp", "pow2", "sigmoid"})

_BINARY = ("add", "sub", "mul", "div")

# extra n-ary elementwise functions usable through the lifted layer
_NARY = {
    "mulsub": (3, lambda x, y, z: x * y - z),  # h(x, y, z) = x*y - z
}

UNARY_FN_IDS = tuple(sorted(_UNARY))
BINARY_FN_IDS = _BINARY
NARY_FN_IDS = tuple(sorted(_NARY))


def fn_arity(fn_id: str) -> int:
    if fn_id in _UNARY:
        return 1
    if fn_id in _BINARY:
        return 2
    if fn_id in _NARY:
        return _NARY[fn_id][0]
    raise UnknownFunction(f"unknown function {fn_id!r}")


def ew_unary(fn_id: str, t: TensorLeaf) -> TensorLeaf:
    """Apply a registered unary function element-wise."""
    if fn_id not in _UNARY:
        raise UnknownFunction(f"unknown unary function {fn_id!r}")
    if t.dtype == "bool":
        raise DtypeUnsupported(f"{fn_id} unsupported on bool leaves")
    arr = t.array
    if t.dtype == "i64" and fn_id in _TRANSCENDENTAL:
        arr = arr.astype(np.float64)
    out = _UNARY[fn_id](arr)
    return TensorLeaf(np.asarray(out), device=t.device)


def _promote(da: str, db: str) -> str:
    if "bool" in (da, db):
        raise DtypeUnsupported("arithmetic on bool leaves is unsupported")
    if da == db:
        return da
    floats = [d for d in (da, db) if d in ("f32", "f64")]
    if not floats:
        raise DtypeUnsupported(f"cannot mix dtypes {da} and {db}")
    return "f64" if "f64" in floats else "f32"


def ew_binary(fn_id: str, a: TensorLeaf, b: TensorLeaf) -> TensorLeaf:
    """Elementwise binary op; shapes must be equal or one operand scalar."""
    if fn_id not in _BINARY:
        raise UnknownFunction(f"unknown binary function {fn_id!r}")
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeMismatchLeaf(f"shapes {a.shape} and {b.shape} are incompatible")
    out_dtype = _promote(a.dtype, b.dtype)
    np_dt = _NP_DTYPE[out_dtype]
    x = a.array.astype(np_dt, copy=False)
    y = b.array.astype(np_dt, copy=False)
    if fn_id == "add":
        out = x + y
    elif fn_id == "sub":
        out = x - y
    elif fn_id == "mul":
        out = x * y
    else:  # div
        if out_dtype == "i64":
            if np.any(y == 0):
                raise DivisionByZero("integer division by zero")
            out = x // y
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = x / y
            out = out.astype(np_dt, copy=False)
    return TensorLeaf(np.asarray(out), device=a.device)


def ew_nary(fn_id: str, leaves: Sequence[TensorLeaf]) -> TensorLeaf:
    """Apply a registered function of any arity to aligned leaves."""
    n = len(leaves)
    arity = fn_arity(fn_id)
    if arity != n:
        raise UnknownFunction(f"{fn_id} takes {arity} arguments, got {n}")
    if n == 1:
        return ew_unary(fn_id, leaves[0])
    if n == 2 and fn_id in _BINARY:
        return ew_binary(fn_id, leaves[0], leaves[1])
    shapes = {l.shape for l in leaves if l.shape != ()}
    if len(shapes) > 1:
        raise ShapeMismatchLeaf(f"shapes {sorted(shapes)} are incompatible")
    dtype = leaves[0].dtype
    for l in leaves[1:]:
        dtype = _promote(dtype, l.dtype)
    np_dt = _NP_DTYPE[dtype]
    arrs = [l.array.astype(np_dt, copy=False) for l in leaves]
    out = _NARY[fn_id][1](*arrs)
    return TensorLeaf(np.asarray(out, dtype=np_dt), device=leaves[0].device)


# ---------------------------------------------------------------------------
# structural leaf ops

def _join(arrays_join, leaves: Sequence[TensorLeaf], axis: int, what: str) -> TensorLeaf:
    """numpy checks shapes and axis range; dtypes must match exactly."""
    if not leaves:
        raise EmptyInput(f"{what} of zero leaves")
    first = leaves[0]
    dtype = first._array.dtype
    if axis < 0:
        raise ShapeMismatchLeaf(f"negative {what} axis {axis}")
    for l in leaves:
        if l._array.dtype != dtype:
            raise ShapeMismatchLeaf(f"{what} needs one dtype; got {first.dtype} and {l.dtype}")
    try:
        out = arrays_join([l._array for l in leaves], axis=axis)
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        raise ShapeMismatchLeaf(f"{what}: {exc}") from exc
    return TensorLeaf(out, device=first._device)


def stack(leaves: Sequence[TensorLeaf], axis: int = 0) -> TensorLeaf:
    """Stack same-shape leaves along a new axis."""
    return _join(np.stack, leaves, axis, "stack")


def cat(leaves: Sequence[TensorLeaf], axis: int = 0) -> TensorLeaf:
    """Concatenate leaves along an existing axis (not zero-dim leaves)."""
    return _join(np.concatenate, leaves, axis, "cat")


def split(t: TensorLeaf, chunk: int, axis: int = 0) -> list[TensorLeaf]:
    """Split into pieces of size `chunk` along `axis` (last may be shorter)."""
    if chunk < 1:
        raise InvalidChunk(f"chunk must be >= 1, got {chunk}")
    if t.ndim == 0 or not 0 <= axis < t.ndim:
        raise ShapeMismatchLeaf(f"axis {axis} out of range for ndim {t.ndim}")
    prefix = (slice(None),) * axis
    # pieces are read-only views; immutability makes sharing safe
    return [
        TensorLeaf(t._array[prefix + (slice(i, i + chunk),)], device=t._device)
        for i in range(0, t.shape[axis], chunk)
    ]


def zeros_like(t: TensorLeaf) -> TensorLeaf:
    return TensorLeaf(np.zeros(t.shape, dtype=t.array.dtype), device=t.device)
