import gc
import random
import weakref

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import (
    CorruptLengths,
    DtypeUnsupported,
    EmptyInput,
    LeafOpError,
    StructureMismatch,
    TailShapeMismatch,
)

from helpers import rand_paths, rand_shape


def ragged_batch(rng, k=None, max_len=16):
    """Structurally equal trees whose leaves vary only in dim 0."""
    k = k or rng.randint(1, 8)
    paths = rand_paths(rng, max_depth=3, max_leaves=6)
    tails = [rand_shape(rng, max_elems=8) for _ in paths]
    trees = []
    for _ in range(k):
        pairs = []
        for p, tail in zip(paths, tails):
            n = rng.randint(1, max_len)
            data = [round(rng.uniform(-2, 2), 3) for _ in range(n * max(1, int(np.prod(tail))))]
            pairs.append((p, tt.make_leaf((n,) + tail, "f64", data)))
        trees.append(tt.rebuild(pairs))
    return trees


def test_pad_shapes_and_lengths():
    a = tt.build_tree({"s": np.arange(2.0)})
    b = tt.build_tree({"s": np.arange(5.0)})
    g = tt.group_pad([a, b], fill=0.0)
    stacked = tt.get(g.stacked, ["s"]).leaf
    lengths = tt.get(g.lengths, ["s"]).leaf
    assert stacked.shape == (2, 5)
    assert lengths.dtype == "i64" and lengths.data == [2, 5]
    assert stacked.data == [0, 1, 0, 0, 0, 0, 1, 2, 3, 4]


def test_pad_uses_fill_value():
    a = tt.build_tree({"s": np.arange(1.0)})
    b = tt.build_tree({"s": np.arange(3.0)})
    g = tt.group_pad([a, b], fill=-1.0)
    assert tt.get(g.stacked, ["s"]).leaf.data == [0, -1, -1, 0, 1, 2]
    assert g.fill == -1.0


def test_roundtrip_random_ragged():
    rng = random.Random(61)
    for _ in range(60):
        trees = ragged_batch(rng)
        g = tt.group_pad(trees, fill=0.0)
        back = tt.unpad(g)
        assert back == trees


def test_uniform_lengths_match_lifted_stack():
    rng = random.Random(62)
    for _ in range(20):
        trees = ragged_batch(rng, k=3, max_len=1)
        g = tt.group_pad(trees, fill=0.0)
        assert g.stacked == tt.lifted_stack(trees)


def test_pad_errors():
    with pytest.raises(EmptyInput):
        tt.group_pad([], fill=0.0)
    a = tt.build_tree({"s": np.arange(2.0)})
    b = tt.build_tree({"t": np.arange(2.0)})
    with pytest.raises(StructureMismatch):
        tt.group_pad([a, b], fill=0.0)
    c = tt.build_tree({"s": np.zeros((2, 3))})
    with pytest.raises(TailShapeMismatch):
        tt.group_pad([a, c], fill=0.0)
    d = tt.build_tree({"s": np.arange(2, dtype=np.int64)})
    with pytest.raises(TailShapeMismatch):
        tt.group_pad([a, d], fill=0.0)


def test_pad_rejects_a_0d_leaf_in_any_tree():
    a = tt.build_tree({"s": np.arange(2.0), "t": np.arange(3.0)})
    for bad in ({"s": np.arange(2.0), "t": np.array(1.0)}, {"s": np.array(1.0), "t": np.arange(3.0)}):
        where = next(k for k, v in bad.items() if v.ndim == 0)
        for trees in ([a, tt.build_tree(bad)], [tt.build_tree(bad), a], [a, a, tt.build_tree(bad)]):
            with pytest.raises(TailShapeMismatch, match="length dimension") as info:
                tt.group_pad(trees, fill=0.0)
            assert info.value.path == (where,)


def test_within_a_leaf_the_first_part_at_fault_decides():
    ok, zero_d = tt.TensorLeaf(np.arange(2.0)), tt.TensorLeaf(np.array(1.0))
    structured = tt.StructuredLeaf([tt.scalar(1.0)])
    gpu = tt.TensorLeaf(np.arange(3.0), "gpu")
    cases = [  # the parts of leaf "s", tree by tree; leaf "a" before it is fine
        ([ok, zero_d, structured], TailShapeMismatch, "leaves must have a length dimension"),
        ([ok, structured, zero_d], LeafOpError, "at s: StructuredLeaf payload is not a tensor"),
        ([structured, ok], LeafOpError, "at s: StructuredLeaf payload is not a tensor"),
        ([ok, gpu, structured], TailShapeMismatch, "devices differ at s: 'cpu' and 'gpu'"),
        ([ok, structured, gpu], LeafOpError, "at s: StructuredLeaf payload is not a tensor"),
    ]
    for parts, error, message in cases:
        trees = [tt.TreeTensor(tt.TreeNode({"a": tt.TensorLeaf(np.arange(2.0)), "s": tt.ValueNode(p)}))
                 for p in parts]
        with pytest.raises(error) as info:
            tt.group_pad(trees, fill=0.0)
        assert (info.value.path, str(info.value)) == (("s",), message)


def test_unpad_rejects_corrupt_lengths():
    a = tt.build_tree({"s": np.arange(2.0)})
    b = tt.build_tree({"s": np.arange(4.0)})
    g = tt.group_pad([a, b], fill=0.0)
    bad = tt.TreeTensor(tt.set(g.lengths, ["s"], np.array([2, 9])).root)
    with pytest.raises(CorruptLengths):
        tt.unpad(tt.PaddedGroup(g.stacked, bad, g.fill))
    short = tt.TreeTensor(tt.set(g.lengths, ["s"], np.array([2])).root)
    with pytest.raises(CorruptLengths):
        tt.unpad(tt.PaddedGroup(g.stacked, short, g.fill))


def test_unpad_frees_the_padded_leaves_without_a_collection():
    class Leaf(tt.TensorLeaf):
        __slots__ = ("__weakref__",)

    g = tt.group_pad(
        [tt.build_tree({"s": np.arange(2.0)}), tt.build_tree({"s": np.arange(5.0)})], 0.0
    )
    leaf = Leaf(tt.get(g.stacked, ["s"]).leaf.array.copy())
    ref = weakref.ref(leaf)
    g = tt.PaddedGroup(tt.TreeTensor(tt.TreeNode({"s": tt.ValueNode(leaf)})), g.lengths, 0.0)
    del leaf
    gc.disable()
    try:
        out = tt.unpad(g)
        del g
        assert ref() is None
    finally:
        gc.enable()
    assert [tt.get(x, ["s"]).leaf.shape for x in out] == [(2,), (5,)]


def test_pad_fill_an_i64_leaf_cannot_hold_is_rejected():
    a = tt.build_tree({"f": np.arange(1.0), "x": {"i": np.arange(1, dtype=np.int64)}})
    b = tt.build_tree({"f": np.arange(3.0), "x": {"i": np.arange(3, dtype=np.int64)}})
    for fill in (float("nan"), float("inf"), -float("inf"), 2.0**63, -(2**63) - 1, 10**30):
        with pytest.raises(LeafOpError) as e:
            tt.group_pad([a, b], fill)
        assert e.value.path == ("x", "i")
        assert isinstance(e.value.cause, DtypeUnsupported)
    # the extremes of the range, fractions and bools keep numpy's casting
    for fill, want in ((-(2**63), -(2**63)), (2**63 - 1, 2**63 - 1), (2.7, 2), (-1.5, -1), (True, 1)):
        g = tt.group_pad([a, b], fill)
        assert tt.get(g.stacked, ["x", "i"]).leaf.data == [0, want, want, 0, 1, 2]
    flags = [tt.build_tree({"m": np.ones(n, dtype=bool)}) for n in (1, 2)]
    assert tt.get(tt.group_pad(flags, -0.5).stacked, ["m"]).leaf.data == [True, True, True, True]
    # a fill numpy cannot cast is rejected at the path, whatever the dtype
    for trees, fill, path in (([a, b], 10**400, ("f",)), (flags, 2**63, ("m",))):
        with pytest.raises(LeafOpError, match="does not fit") as e:
            tt.group_pad(trees, fill)
        assert e.value.path == path
        assert isinstance(e.value.cause, DtypeUnsupported)
    # a fill that is never written is not checked
    g = tt.group_pad([b, b], float("nan"))
    assert tt.unpad(g) == [b, b]


def test_unpad_rejects_a_stacked_leaf_without_a_length_dimension():
    for stacked in (np.arange(3.0), np.array(1.0)):
        g = tt.PaddedGroup(
            tt.build_tree({"x": {"s": stacked}}), tt.build_tree({"x": {"s": np.array([2, 3, 1])}}), 0.0
        )
        with pytest.raises(CorruptLengths, match="x/s"):
            tt.unpad(g)


def test_unpad_rejects_lengths_of_another_structure_or_batch_size():
    stacked = tt.build_tree({"x": np.zeros((2, 3)), "y": np.zeros((2, 1))})
    lengths = tt.build_tree({"x": np.array([1, 3]), "z": np.array([1, 1])})
    with pytest.raises(StructureMismatch):
        tt.unpad(tt.PaddedGroup(stacked, lengths, 0.0))
    stacked = tt.build_tree({"x": np.zeros((2, 3)), "y": np.zeros((3, 1))})
    lengths = tt.build_tree({"x": np.array([1, 3]), "y": np.array([1, 1, 0])})
    with pytest.raises(CorruptLengths, match="inconsistent batch sizes"):
        tt.unpad(tt.PaddedGroup(stacked, lengths, 0.0))


def test_leafless_trees_unpad_to_k_trees_and_their_lengths_trees_compare_as_trees():
    trees = [tt.build_tree({"e": {}, "f": {"g": {}}})] * 3
    g = tt.group_pad(trees, 0)
    assert tt.unpad(g) == trees
    # k is the shape of the packed lengths column, not a leaf: equal as trees and as canonical JSON
    other = tt.group_pad(trees[:2], 0).lengths
    assert g.lengths == other == tt.build_tree({"e": {}, "f": {"g": {}}})
    assert tt.serialize_tree(g.lengths) == tt.serialize_tree(other)
