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
from .node import ValueNode

DTYPES = ("f32", "f64", "i64", "bool")

_NP_DTYPE = {
    "f32": np.float32,
    "f64": np.float64,
    "i64": np.int64,
    "bool": np.bool_,
}
_DTYPE_NAME = {np.dtype(v): k for k, v in _NP_DTYPE.items()}


class TensorLeaf(ValueNode):
    """An immutable dense array with shape, dtype tag and inert device tag.

    A leaf is its own value node in a tree (`leaf.leaf is leaf`). Data is
    held row-major. Equality is by value (shape, dtype, device and
    element-wise exact contents). The constructor makes `array` read-only
    and raises DtypeUnsupported for a numpy dtype without a tag.
    """

    __slots__ = ("_array", "_dtype", "_device")

    # built in __new__: ValueNode(leaf) returns the leaf, after which Python
    # would run an __init__ again on it
    def __new__(cls, array: np.ndarray, device: str = "cpu"):
        try:
            dtype = _DTYPE_NAME[array.dtype]
        except KeyError:
            raise DtypeUnsupported(f"unsupported numpy dtype {array.dtype}") from None
        array.setflags(False)  # write=False; positional is the cheap form
        self = object.__new__(cls)
        self._array = array
        self._dtype = dtype
        self._device = device
        return self

    def __reduce__(self):
        return type(self), (self._array, self._device)

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
        return type(self)(self._array.copy(), device=self._device)

    def item(self):
        return self._array.reshape(-1)[0].item() if self.size else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorLeaf):
            return NotImplemented
        return (
            self._dtype == other._dtype
            and self._device == other._device
            and self._array.shape == other._array.shape
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.shape, self._dtype, self._device, self._array.tobytes()))

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
    """A leaf holding a row-major copy of `arr` as a plain ndarray (0-d
    stays 0-d; an ndarray subclass such as np.matrix is dropped)."""
    return TensorLeaf(np.array(arr, order="C"), device)


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
    if t._dtype == "bool":
        raise DtypeUnsupported(f"{fn_id} unsupported on bool leaves")
    arr = t._array
    if t._dtype == "i64" and fn_id in _TRANSCENDENTAL:
        arr = arr.astype(np.float64)
    out = _UNARY[fn_id](arr)
    return TensorLeaf(np.asarray(out), t._device)


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
    x, y = a._array, b._array
    if x.shape != y.shape and x.shape != () and y.shape != ():
        raise ShapeMismatchLeaf(f"shapes {x.shape} and {y.shape} are incompatible")
    dtype = a._dtype
    if dtype != b._dtype or dtype == "bool":
        dtype = _promote(dtype, b._dtype)
        np_dt = _NP_DTYPE[dtype]
        x, y = x.astype(np_dt, copy=False), y.astype(np_dt, copy=False)
    if fn_id == "add":
        out = x + y
    elif fn_id == "sub":
        out = x - y
    elif fn_id == "mul":
        out = x * y
    else:  # div
        if dtype == "i64":
            if np.any(y == 0):
                raise DivisionByZero("integer division by zero")
            out = x // y
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = x / y
    return TensorLeaf(np.asarray(out), a._device)


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
    arrs = [l._array for l in leaves]
    shapes = {a.shape for a in arrs if a.shape != ()}
    if len(shapes) > 1:
        raise ShapeMismatchLeaf(f"shapes {sorted(shapes)} are incompatible")
    dtype = leaves[0]._dtype
    if dtype == "bool" or any(l._dtype != dtype for l in leaves):
        for l in leaves[1:]:
            dtype = _promote(dtype, l._dtype)
        np_dt = _NP_DTYPE[dtype]
        arrs = [a.astype(np_dt, copy=False) for a in arrs]
    return TensorLeaf(np.asarray(_NARY[fn_id][1](*arrs)), leaves[0]._device)


# ---------------------------------------------------------------------------
# structural leaf ops

def _join(join, leaves: Sequence[TensorLeaf], axis: int, what: str) -> TensorLeaf:
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
        out = join([l._array for l in leaves], axis)
    except ValueError as exc:  # numpy's AxisError is a ValueError too
        raise ShapeMismatchLeaf(f"{what}: {exc}") from exc
    return TensorLeaf(out, first._device)


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
    arr, device = t._array, t._device
    if arr.ndim == 0 or not 0 <= axis < arr.ndim:
        raise ShapeMismatchLeaf(f"axis {axis} out of range for ndim {arr.ndim}")
    # pieces are read-only views; immutability makes sharing safe
    prefix = (slice(None),) * axis
    return [
        TensorLeaf(arr[prefix + (slice(i, i + chunk),)], device)
        for i in range(0, arr.shape[axis], chunk)
    ]


def zeros_like(t: TensorLeaf) -> TensorLeaf:
    return TensorLeaf(np.zeros(t.shape, dtype=t.array.dtype), device=t.device)
