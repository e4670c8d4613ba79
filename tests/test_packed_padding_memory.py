"""Allocation and memory of group_pad's one-buffer layout: a ragged batch of small
uniform leaves pads into one read-only buffer, its lengths tree is packed,
and unpad reads the packed lengths without making leaf objects."""

import numpy as np

import tensortree as tt
from tensortree.leaf import Column


def small_batch(n_leaves=1024, k=8, elems=16):
    """k trees of n_leaves f64 leaves, each cut to a length in
    [elems / 2, elems], as many-small's ragged trees are."""
    rng = np.random.default_rng(5)
    def part():
        return rng.standard_normal(int(rng.integers(elems // 2, elems + 1)))

    return [tt.build_tree({f"g{g}": {f"k{i}": part() for i in range(32)} for g in range(n_leaves // 32)})
            for _ in range(k)]


def test_a_small_uniform_batch_pads_into_one_buffer_with_packed_lengths():
    trees = small_batch()
    assert all(type(t._flat()[1]) is Column and t._flat()[1].shapes is not None for t in trees)  # segmented
    g = tt.group_pad(trees, 0.0)
    lengths = g.lengths._flat()[1]
    assert type(lengths) is Column and lengths._leaves is None
    assert lengths.buf.shape == (1024, 8) and lengths.dtype == "i64"
    arrays = [leaf.array for _, leaf in tt.leaves(g.stacked)]
    base = arrays[0].base
    assert base is not None and all(a.base is base for a in arrays)
    assert not base.flags.writeable and all(a.flags.c_contiguous for a in arrays)

    back = tt.unpad(g)
    assert lengths._leaves is None  # unpad read the buffer, not leaf objects
    assert back == trees
    for tree in back:  # the unpadded leaves are views of the one buffer
        assert all(np.shares_memory(leaf.array, base) for _, leaf in tt.leaves(tree))
    # the lengths tree reads as before: one i64 vector of k lengths a leaf
    assert [leaf.data for _, leaf in tt.leaves(g.lengths)][:2] == [
        [tt.get(t, ["g0", "k0"]).shape[0] for t in trees],
        [tt.get(t, ["g0", "k1"]).shape[0] for t in trees],
    ]


def test_one_surviving_unpadded_leaf_keeps_the_whole_buffer():
    g = tt.group_pad(small_batch(n_leaves=64, k=2), 0.0)
    base = tt.leaves(g.stacked)[0][1].array.base
    leaf = tt.leaves(tt.unpad(g)[1])[-1][1]
    del g
    assert leaf.array.base is base and np.shares_memory(leaf.array, base)
    assert not np.shares_memory(leaf.copy().array, base)


def test_large_leaves_of_one_dtype_share_one_buffer_and_mixed_dtypes_do_not():
    rng = np.random.default_rng(6)
    def tree(dtypes):
        return tt.build_tree({f"k{i}": rng.standard_normal(int(rng.integers(200, 300))).astype(d)
                              for i, d in enumerate(dtypes)})

    trees = [tree(["f8"] * 4) for _ in range(3)]
    g = tt.group_pad(trees, -1.0)
    arrays = [leaf.array for _, leaf in tt.leaves(g.stacked)]
    assert all(a.base is arrays[0].base and a.flags.c_contiguous for a in arrays)
    assert tt.unpad(g) == trees

    trees = [tree(["f8", "f4", "f8", "f4"]) for _ in range(3)]
    g = tt.group_pad(trees, -1.0)
    arrays = [leaf.array for _, leaf in tt.leaves(g.stacked)]
    f8, f4 = arrays[0].base, arrays[1].base  # one buffer a dtype: views of one base, none shared
    assert f8 is not None and f4 is not None and f8 is not f4
    assert arrays[2].base is f8 and arrays[3].base is f4
    assert not np.shares_memory(f8, f4)
    assert type(g.lengths._flat()[1]) is Column
    assert tt.unpad(g) == trees
