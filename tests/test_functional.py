import gc
import pickle
import random
import weakref

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import (
    InconsistentInnerStructure,
    NoEmbeddedTree,
    NonBooleanMask,
    StructureMismatch,
)
from tensortree.leaf import Column

from helpers import paper_tree, rand_leaf, rand_tree, rand_tree_family


# ---------------------------------------------------------------------------
# mask / filter / reduce

def test_mask_keeps_selected_leaves():
    t = paper_tree()
    sel = tt.build_tree({"a": True, "b": False, "x": {"c": True, "d": False}})
    out = tt.mask(t, sel)
    assert [p for p, _ in tt.leaves(out)] == [("a",), ("x", "c")]


def test_mask_prunes_emptied_subtrees():
    t = paper_tree()
    sel = tt.build_tree({"a": True, "b": True, "x": {"c": False, "d": False}})
    out = tt.mask(t, sel)
    assert [p for p, _ in tt.leaves(out)] == [("a",), ("b",)]
    assert "x" not in out.root.children


def test_mask_errors():
    t = paper_tree()
    with pytest.raises(StructureMismatch):
        tt.mask(t, tt.build_tree({"a": True}))
    sel = tt.build_tree({"a": 1, "b": True, "x": {"c": True, "d": True}})
    with pytest.raises(NonBooleanMask):
        tt.mask(t, sel)


def test_filter_by_path_and_value():
    t = paper_tree()
    out = tt.filter(t, lambda p, l: l.item() > 4)
    assert [p for p, _ in tt.leaves(out)] == [("x", "c"), ("x", "d")]
    out2 = tt.filter(t, lambda p, l: p[0] != "x")
    assert [p for p, _ in tt.leaves(out2)] == [("a",), ("b",)]


def test_reduce_sum_on_paper_tree():
    total = tt.reduce(paper_tree(), lambda acc, l: acc + l.item(), 0)
    assert total == 17


def test_reduce_count_matches_leaves():
    rng = random.Random(51)
    for _ in range(50):
        t = rand_tree(rng)
        count = tt.reduce(t, lambda acc, l: acc + 1, 0)
        assert count == len(tt.leaves(t))


def test_reduce_visits_in_canonical_order():
    t = paper_tree()
    order = tt.reduce(t, lambda acc, l: acc + [l.item()], [])
    assert order == [2, 3, 5, 7]


# ---------------------------------------------------------------------------
# subside / rise

def test_subside_flat_list_stacks():
    a = tt.build_tree({"p": 1.0, "q": {"r": 2.0}})
    b = tt.build_tree({"p": 3.0, "q": {"r": 4.0}})
    t = tt.subside([a, b])
    lp = tt.get(t, ["p"]).leaf
    assert isinstance(lp, tt.StackedLeaf)
    assert lp.shape == (2,) and lp.data == [1.0, 3.0]
    assert lp.seq_len == 2


def test_subside_equals_lifted_stack_values():
    rng = random.Random(52)
    for _ in range(20):
        trees = rand_tree_family(rng, 3, dtype="f64")
        sub = tt.subside(list(trees))
        stk = tt.lifted_stack(trees)
        # StackedLeaf is value-equal to the plain stacked leaf
        assert sub == stk


def test_subside_of_tree_is_identity():
    t = paper_tree()
    assert tt.subside(t) is t


def test_subside_map_outer():
    a = tt.build_tree({"p": 1.0})
    b = tt.build_tree({"p": 2.0})
    t = tt.subside({"one": a, "two": b})
    out = tt.rise(t)
    assert set(out) == {"one", "two"}
    assert out["one"] == a and out["two"] == b


def test_subside_ragged_uses_structured_payload():
    a = tt.build_tree({"p": np.arange(2.0)})
    b = tt.build_tree({"p": np.arange(3.0)})
    t = tt.subside([a, b])
    leaf = tt.get(t, ["p"]).leaf
    assert isinstance(leaf, tt.StructuredLeaf)
    back = tt.rise(t)
    assert back == [a, b]


def test_subside_errors():
    with pytest.raises(NoEmbeddedTree):
        tt.subside([])
    with pytest.raises(InconsistentInnerStructure):
        tt.subside([1, 2, 3])
    a = tt.build_tree({"p": 1.0})
    b = tt.build_tree({"q": 1.0})
    with pytest.raises(StructureMismatch):
        tt.subside([a, b])


def test_rise_of_plain_tree_is_identity():
    t = paper_tree()
    assert tt.rise(t) is t


def test_rise_rejects_disagreeing_inner_structure():
    t = tt.build_tree({"p": 1.0})
    t = tt.TreeTensor(
        tt.set(t, ["q"], 2.0).root
    )
    # make one leaf stacked and the other plain
    stacked = tt.subside([tt.build_tree({"p": 1.0, "q": 2.0}),
                          tt.build_tree({"p": 3.0, "q": 4.0})])
    mixed = tt.set(stacked, ["q"], 5.0)
    with pytest.raises(InconsistentInnerStructure):
        tt.rise(mixed)


def rand_outer(rng, depth=0):
    """Random outer structure (lists/dicts) of structurally equal trees."""
    trees = iter(lambda: rand_tree_family(rng, 12, max_depth=3, max_leaves=6), None)
    pool = next(trees)
    fresh = iter(pool)

    def build(d):
        if d >= 2 or rng.random() < 0.4:
            return next(fresh)
        if rng.random() < 0.5:
            return [build(d + 1) for _ in range(rng.randint(1, 3))]
        return {f"k{i}": build(d + 1) for i in range(rng.randint(1, 3))}

    outer = build(0)
    if isinstance(outer, tt.TreeTensor):
        outer = [outer]
    return outer


def outer_equal(a, b):
    if isinstance(a, tt.TreeTensor) and isinstance(b, tt.TreeTensor):
        return a == b
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(outer_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(outer_equal(a[k], b[k]) for k in a)
    return False


def test_rise_subside_roundtrip_random():
    rng = random.Random(53)
    for _ in range(100):
        outer = rand_outer(rng)
        t = tt.subside(outer)
        back = tt.rise(t)
        assert outer_equal(back, outer)


def test_subside_rise_roundtrip_from_tree_side():
    rng = random.Random(54)
    for _ in range(100):
        outer = rand_outer(rng)
        y = tt.subside(outer)
        assert tt.subside(tt.rise(y)) == y


def test_rise_frees_the_input_leaves_without_a_collection():
    class Stacked(tt.StackedLeaf):
        __slots__ = ("__weakref__",)

    leaf = Stacked(np.arange(6.0).reshape(3, 2))
    ref = weakref.ref(leaf)
    t = tt.TreeTensor(tt.TreeNode({"p": tt.ValueNode(leaf)}))
    del leaf
    gc.disable()
    try:
        out = tt.rise(t)
        del t
        assert ref() is None
    finally:
        gc.enable()
    assert [tt.get(x, ["p"]).leaf.data for x in out] == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


def test_rise_views_the_components():
    stacked = tt.StackedLeaf(np.arange(6.0).reshape(3, 2), "gpu0")
    for row, x in zip(stacked.array, tt.rise(tt.TreeTensor(tt.TreeNode({"p": stacked})))):
        leaf = tt.get(x, ["p"])
        assert np.shares_memory(leaf.array, stacked.array)
        assert not leaf.array.flags.writeable
        assert (leaf.dtype, leaf.device, leaf.shape, leaf.array.tobytes()) == \
            (stacked.dtype, stacked.device, row.shape, row.tobytes())


def test_rise_of_a_packed_stacked_column_views_its_buffer():
    rng = np.random.default_rng(0)
    trees = [tt.build_tree({f"k{i:02d}": rng.standard_normal((8, 8)) for i in range(64)})
             for _ in range(8)]
    s = tt.subside(trees)
    stacked = s._flat()[1]
    assert type(stacked) is Column and stacked.cls is tt.StackedLeaf
    risen = tt.rise(s)
    for x, t in zip(risen, trees):
        column = x._flat()[1]
        assert type(column) is Column and np.shares_memory(column.buf, stacked.buf)
        for (_, leaf), (_, want) in zip(tt.leaves(x), tt.leaves(t)):
            assert type(leaf) is tt.TensorLeaf and not leaf.array.flags.writeable
            assert np.shares_memory(leaf.array, stacked.buf)
            assert (leaf.dtype, leaf.device, leaf.shape, leaf.array.tobytes()) == \
                (want.dtype, want.device, want.shape, want.array.tobytes())
    one = risen[0]
    copied = tt.deep_copy(one)
    assert copied == one
    assert not np.shares_memory(copied._flat()[1].buf, stacked.buf)
    assert not any(np.shares_memory(leaf.array, stacked.buf) for _, leaf in tt.leaves(copied))
    # a component pickles its own rows, not the k-fold stacked buffer
    own = one._flat()[1].buf.nbytes
    assert len(pickle.dumps(one)) < 1.25 * own < stacked.buf.nbytes
    assert pickle.loads(pickle.dumps(one)) == trees[0]
