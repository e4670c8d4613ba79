"""Output checks: tree outputs against the naive flat-dict reference.

Leaves are compared path by path with ``np.array_equal(..., equal_nan=True)``
plus an exact dtype and shape check. The library's own ``==`` is never
used: it treats NaN as unequal to itself, so it cannot judge the library.

Identical bits imply ``array_equal(..., equal_nan=True)``, so a bitwise
comparison answers first and the NaN-aware one decides only when the bits
differ (for example -0.0 against 0.0); the verdict is the same, and
checking no longer costs more than the steps it checks.
"""

from __future__ import annotations

import numpy as np
import tensortree as tt


def flatten(x):
    """Library values -> the naive pipelines' plain forms."""
    if isinstance(x, tt.TreeTensor):
        return {p: leaf.array for p, leaf in tt.leaves(x)}
    if isinstance(x, tt.PaddedGroup):
        return (flatten(x.stacked), flatten(x.lengths))
    if isinstance(x, tt.ValueNode):
        return x.leaf.array
    if isinstance(x, tt.TensorLeaf):
        return x.array
    if isinstance(x, list):
        return [flatten(i) for i in x]
    if isinstance(x, tuple):
        return tuple(flatten(i) for i in x)
    return x


_SMALL = 1 << 16  # bytes; below this, comparing byte strings is cheapest


def _bits(a):
    return a.view(np.dtype(f"u{a.itemsize}"))


def arrays_equal(a, b) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.nbytes < _SMALL:
        if a.tobytes() == b.tobytes():
            return True
    elif np.array_equal(_bits(a), _bits(b)):
        return True
    return np.array_equal(a, b, equal_nan=True)


def same(a, b) -> bool:
    """Structural equality of plain forms; arrays by dtype, shape and value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and arrays_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b
