"""Group padding: batch structurally equal trees whose leaves vary along
dimension 0, padding each path to its maximum length and recording the
original lengths as a sibling tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CorruptLengths, EmptyInput, StructureMismatch, TailShapeMismatch
from .leaf import TensorLeaf
from .node import Path, TreeNode, ValueNode, iter_leaves
from .tree import TreeTensor, structure_equal


@dataclass(frozen=True)
class PaddedGroup:
    stacked: TreeTensor   # per leaf: [k, L_max(path), *tail]
    lengths: TreeTensor   # per leaf: i64 vector of k original lengths
    fill: float | int


def _map_pair(node, f, path: Path = ()):
    if isinstance(node, ValueNode):
        stacked, length = f(path)
        return ValueNode(stacked), ValueNode(length)
    left, right = {}, {}
    for k, c in node.children.items():
        left[k], right[k] = _map_pair(c, f, path + (k,))
    return TreeNode(left), TreeNode(right)


def group_pad(trees: Sequence[TreeTensor], fill) -> PaddedGroup:
    """Pad dim 0 of every leaf to the per-path maximum and stack the batch."""
    if not trees:
        raise EmptyInput("group_pad of zero trees")
    first = trees[0]
    for t in trees[1:]:
        if not structure_equal(first, t):
            raise StructureMismatch("group_pad needs structurally equal trees")
    leaf_maps = [dict(iter_leaves(t.root)) for t in trees]

    def pad_at(path):
        parts = [m[path] for m in leaf_maps]
        f0 = parts[0]
        if f0.ndim == 0:
            raise TailShapeMismatch(path, "leaves must have a length dimension")
        for p in parts:
            if (
                p.ndim != f0.ndim
                or p.shape[1:] != f0.shape[1:]
                or p.dtype != f0.dtype
            ):
                raise TailShapeMismatch(path)
        lengths = [p.shape[0] for p in parts]
        l_max = max(lengths)
        padded = []
        for p in parts:
            arr = p.array
            if p.shape[0] < l_max:
                widths = [(0, l_max - p.shape[0])] + [(0, 0)] * (p.ndim - 1)
                arr = np.pad(arr, widths, constant_values=fill)
            padded.append(arr)
        stacked = TensorLeaf(np.stack(padded, axis=0), device=f0.device)
        lens = TensorLeaf(np.asarray(lengths, dtype=np.int64))
        return stacked, lens

    left, right = _map_pair(first.root, pad_at)
    return PaddedGroup(TreeTensor(left), TreeTensor(right), fill)


def unpad(g: PaddedGroup) -> list[TreeTensor]:
    """Recover the original trees exactly."""
    if not structure_equal(g.stacked, g.lengths):
        raise StructureMismatch("stacked and lengths trees differ in structure")
    stacked = dict(iter_leaves(g.stacked.root))
    lengths = dict(iter_leaves(g.lengths.root))
    ks = {l.shape[0] for l in stacked.values()}
    if len(ks) > 1:
        raise CorruptLengths(f"inconsistent batch sizes {sorted(ks)}")
    k = ks.pop() if ks else 0
    for path, l in lengths.items():
        if l.dtype != "i64" or l.shape != (k,):
            raise CorruptLengths(
                f"lengths at {'/'.join(path)} must be an i64 vector of {k} entries"
            )
        if any(n < 0 for n in l.data):
            raise CorruptLengths(f"negative length at {'/'.join(path)}")
    return [TreeTensor(_take(g.stacked.root, stacked, lengths, i, ())) for i in range(k)]


def _take(node, stacked: dict, lengths: dict, i: int, path: Path):
    """Tree i of the batch (a module-level function rather than a recursive
    closure, whose reference cycle would keep the padded leaves alive until
    the next full garbage collection)."""
    if isinstance(node, ValueNode):
        leaf = stacked[path]
        n = int(lengths[path].array[i])
        if n > leaf.shape[1]:
            raise CorruptLengths(
                f"length {n} exceeds padded size {leaf.shape[1]} at {'/'.join(path)}"
            )
        return ValueNode(
            TensorLeaf(np.ascontiguousarray(leaf.array[i, :n]), device=leaf.device)
        )
    return TreeNode(
        {key: _take(c, stacked, lengths, i, path + (key,)) for key, c in node.children.items()}
    )
