"""Segmented columns: a tree of small leaves of one dtype and ndim whose
shapes differ keeps one flat buffer (a `leaf.Column` with per-row shapes
and offsets) and makes its leaf objects on first access.

- Differential: every public operation gives the same result on a
  segmented tree as on the same tree built from `TensorLeaf` values, which
  stays a list; the rectangle kernels (lifts, stack/cat/split, subside and
  rise) decline it, so its outputs are lists.
- Padding: `group_pad` of segmented, list and mixed batches gives the same
  stacked and lengths bits as the list form, or the same error (type, path
  and text), and `unpad` gives the input back; segmented batches pad into
  one segmented column and unpad into segmented columns over it, making no
  leaf. `unpad` of a corrupt group with a segmented stacked tree raises as
  the list form does.
- `==` and pickle of segmented columns make no leaf objects, and a pickled
  `unpad` output carries its rows, not the padded batch.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_packed import SETTINGS, as_leaves, canon, fill, ops, paths, skeletons
from test_packed import values as packed_values
from test_packed_padding import FILLS, _nest, outcome, reference_pad, want_bits
from test_packed_padding import bits as pad_bits
from test_packed_padding import values as pad_values

import tensortree as tt
from tensortree.leaf import BATCH_MAX_ELEMENTS, Column, TensorLeaf

# NaN, inf and overflow make numpy warn, on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

DTYPES = ["f32", "f64", "i64", "bool"]


def storage(tree):
    """'segmented', 'rectangle' or 'list': how a tree holds its leaves."""
    leaves = tree._flat()[1]
    if type(leaves) is not Column:
        return "list"
    return "rectangle" if leaves.shapes is None else "segmented"


def ragged_shape(rng, ndim):
    """A shape of `ndim` dims and 1 to BATCH_MAX_ELEMENTS elements."""
    if ndim == 1:
        return (BATCH_MAX_ELEMENTS if rng.integers(8) == 0 else int(rng.integers(1, 10)),)
    return tuple(int(d) for d in rng.integers(1, 4, size=ndim))


def ragged_family(skel, seed, dtype, ndim):
    """Three trees of one skeleton as arrays, one path's shape shared by the
    three and shapes differing between paths, one more in another dtype,
    plus a tree of another skeleton."""
    rng = np.random.default_rng(seed)
    shape_of = {p: ragged_shape(rng, ndim) for p in paths(skel)}
    alt = "i64" if dtype == "f32" else "f32"
    arrays = [fill(skel, lambda p: packed_values(rng, d, shape_of[p])) for d in (dtype,) * 3 + (alt,)]
    other = fill(skel, lambda p: packed_values(rng, dtype, shape_of[p]))
    first = next(paths(skel), None)
    if first is not None:  # one leaf missing, another added
        cur = other
        for k in first[:-1]:
            cur = cur[k]
        del cur[first[-1]]
    other["zz"] = packed_values(rng, dtype, ragged_shape(rng, ndim))
    return arrays, other, len(set(shape_of.values())) > 1


@SETTINGS
@given(skeletons, st.integers(0, 2**32 - 1), st.sampled_from(DTYPES), st.sampled_from([1, 2, 3]))
def test_segmented_and_list_backed_trees_agree_on_every_operation(skel, seed, dtype, ndim):
    arrays, other, ragged = ragged_family(skel, seed, dtype, ndim)
    leaf_paths = sorted(paths(skel))
    sel = tt.build_tree(fill(skel, lambda q: tt.scalar(len(q) % 2 == 0, "bool")))
    segmented = [tt.build_tree(a) for a in arrays]
    listed = [tt.build_tree(as_leaves(a)) for a in arrays]
    for t in segmented:
        assert storage(t) == ("segmented" if ragged else "rectangle" if leaf_paths else "list")
    want = ops(*listed, tt.build_tree(as_leaves(other)), sel, dtype, leaf_paths)
    got = ops(*segmented, tt.build_tree(other), sel, dtype, leaf_paths)
    for name in want:
        assert got[name] == want[name], name
    if not ragged:
        return
    # the rectangle kernels decline a segmented column: their outputs are lists
    t0, t1, t2 = segmented[:3]
    outputs = [tt.lifted_stack([t0, t1]), tt.lifted_cat([t0, t1]), tt.subside([t0, t1, t2])]
    if dtype != "bool":  # elementwise functions reject bool leaves
        outputs += [tt.lift_unary("neg")(t0), tt.lift_multi("add")(t0, t1),
                    tt.lift_multi("mulsub")(t0, t1, t2)]
    assert [storage(t) for t in outputs] == ["list"] * len(outputs)
    # the tree reads its leaves once, then gives the same objects
    t = tt.build_tree(arrays[0])
    assert all(tt.get(t, q) is tt.get(t, q) is leaf for q, (_, leaf) in zip(leaf_paths, tt.leaves(t)))
    assert t == listed[0] and listed[0] == t and hash(t.root) == hash(listed[0].root)
    assert repr(t) == repr(listed[0])


def test_build_tree_packs_small_arrays_of_one_dtype_and_ndim_and_no_others():
    def form(nested):
        return storage(tt.build_tree(nested))

    a, b = np.arange(3.0), np.arange(5.0)
    assert form({"a": a, "b": b}) == "segmented"
    assert form({"a": a, "b": b.astype(np.float32)}) == "list"  # two dtypes
    assert form({"a": a, "b": b.reshape(1, 5)}) == "list"  # two ndims
    assert form({"a": a, "b": np.arange(65.0)}) == "list"  # a leaf over BATCH_MAX_ELEMENTS
    assert form({"a": a, "b": np.zeros(0)}) == "list"  # an empty leaf
    assert form({"a": a, "b": tt.from_array(b)}) == "list"  # a leaf object
    assert form({"a": a, "b": a + 1}) == "rectangle"
    assert form({"a": a, "b": a + 1, "e": tt.build_tree({}).root, "f": tt.build_tree({})}) == "rectangle"
    t = tt.build_tree({"a": a, "b": np.arange(10.0)[::2]})  # a strided array is copied too
    assert storage(t) == "segmented" and tt.get(t, ["b"]).data == [0.0, 2.0, 4.0, 6.0, 8.0]
    t = tt.build_tree({"a": a, "x": {"b": np.arange(6).reshape(2, 3), "c": np.arange(2).reshape(1, 2)}})
    assert storage(t) == "list"
    t = tt.build_tree({"b": np.arange(6).reshape(2, 3), "c": np.arange(2).reshape(1, 2)})
    col = t._flat()[1]
    assert storage(t) == "segmented" and col.shapes.tolist() == [[2, 3], [1, 2]]
    assert col.offsets.tolist() == [0, 6] and col.buf.ndim == 1 and not col.buf.flags.writeable
    assert [leaf.array.tolist() for leaf in col] == [[[0, 1, 2], [3, 4, 5]], [[0, 1]]]


def test_writing_the_source_arrays_after_build_leaves_a_segmented_tree_unchanged():
    nested = {"a": np.arange(3.0), "x": {"b": np.arange(5.0), "e": {}}}
    want = canon(tt.build_tree(as_leaves(nested)))
    t = tt.build_tree(nested)
    assert storage(t) == "segmented"
    nested["a"] += 1
    nested["x"]["b"][...] = -1
    assert canon(t) == want


def test_equality_of_segmented_columns_makes_no_leaves_and_follows_leaf_equality():
    def tree(a, b):
        return tt.build_tree({"a": np.array(a), "b": np.array(b)})

    pairs = [
        (tree([1.0, np.nan], [-0.0]), tree([1.0, np.nan], [0.0]), True),  # NaN == NaN, -0.0 == 0.0
        (tree([1.0, 2.0], [3.0]), tree([1.0, 2.0], [4.0]), False),
        (tree([1.0, 2.0], [3.0]), tree([1.0], [2.0, 3.0]), False),  # same values, other shapes
        (tree([1.0, 2.0], [3.0]), tree([1, 2], [3]), False),  # another dtype
    ]
    for x, y, equal in pairs:
        assert (x == y) is equal and (y == x) is equal
        assert x._flat()[1]._leaves is None and y._flat()[1]._leaves is None
    # an unpadded column (rows spread over the padded buffer) against the built one
    trees = [tree([1.0, np.nan], [-0.0]), tree([5.0], [6.0, 7.0, 8.0])]
    back = tt.unpad(tt.group_pad(trees, 9.0))
    assert back == trees
    assert all(t._flat()[1]._leaves is None for t in back + trees)
    # a segmented column equals a rectangle or a list of the same leaves
    rect = tt.build_tree({"a": np.arange(2.0), "b": np.arange(2.0)})
    back = tt.unpad(tt.group_pad([rect, tree([0.0, 1.0, 2.0], [0.0])], 0.0))
    assert storage(back[0]) == "segmented"  # a rectangle in the batch pads through its rows too
    seg = tt.unpad(tt.group_pad([tree([0.0, 1.0], [0.0, 1.0, 2.0]), tree([0.0], [0.0, 1.0])], 0.0))
    assert storage(seg[0]) == "segmented"
    # padding unpadded trees again reads rows spread over their padded buffer
    cut = tt.unpad(tt.PaddedGroup(tt.group_pad([seg[0], seg[1]], 0.0).stacked,
                                  tt.build_tree({"a": np.array([2, 1]), "b": np.array([2, 2])}), 0.0))
    assert storage(cut[0]) == "segmented" and cut[0] == rect and rect == cut[0]
    assert cut[0] == tt.build_tree(as_leaves({"a": np.arange(2.0), "b": np.arange(2.0)}))


def test_pickle_of_a_segmented_tree_carries_its_rows_not_the_padded_batch():
    rng = np.random.default_rng(4)
    arrays = [{f"g{g}": {f"k{i}": rng.standard_normal(int(rng.integers(8, 17))) for i in range(32)}
               for g in range(8)} for _ in range(8)]
    trees = [tt.build_tree(a) for a in arrays]
    assert all(storage(t) == "segmented" for t in trees)
    back = tt.unpad(tt.group_pad(trees, 0.0))
    for tree, made in zip(back, trees):
        data = pickle.dumps(tree)
        assert tree._flat()[1]._leaves is None
        assert len(data) <= len(pickle.dumps(made)) + 300
        out = pickle.loads(data)
        assert storage(out) == "segmented" and out == made and made == out
        assert canon(out) == canon(made)
    assert len(pickle.dumps(back[0])) * 4 < len(pickle.dumps(back[0]._flat()[1].buf))


def packed_kinds():
    """A rectangle, a segmented tree, a segmented view of a padded buffer
    and a column of strided views, each beside its list form."""
    rng = np.random.default_rng(5)
    rect = {f"g{g}": {f"k{i}": rng.standard_normal(4) for i in range(40)} for g in range(30)}
    ragged = [{f"g{g}": {f"k{i}": rng.standard_normal(int(rng.integers(1, 9))) for i in range(40)}
               for g in range(30)} for _ in range(2)]
    unpadded = tt.unpad(tt.group_pad([tt.build_tree(r) for r in ragged], 0.0))[1]
    return [
        (tt.build_tree(rect), tt.build_tree(as_leaves(rect))),
        (tt.build_tree(ragged[0]), tt.build_tree(as_leaves(ragged[0]))),
        (unpadded, tt.build_tree(as_leaves(ragged[1]))),
        (tt.lifted_split(tt.build_tree(rect), 3, axis=0)[1],
         tt.lifted_split(tt.build_tree(as_leaves(rect)), 3, axis=0)[1]),
    ]


def test_repr_of_a_packed_tree_reads_its_column_and_makes_no_leaves():
    for tree, listed in packed_kinds():
        text = repr(tree)
        assert tree._flat()[1]._leaves is None
        assert text == repr(listed) and text.startswith("TreeTensor(1200 leaves: {g0/k0: [")


def test_deep_copy_of_a_packed_tree_is_one_column_over_a_compact_copy_of_its_rows():
    for tree, listed in packed_kinds():
        copied = tt.deep_copy(tree)
        col, orig = copied._flat()[1], tree._flat()[1]
        assert type(col) is Column and storage(copied) == storage(tree)
        assert not np.shares_memory(col.buf, orig.buf)
        assert col._leaves is None and orig._leaves is None
        assert col.buf.size == sum(leaf.size for _, leaf in tt.leaves(listed))  # no padding
        assert copied == tree and copied == listed and canon(copied) == canon(listed)


# ---------------------------------------------------------------------------
# group_pad and unpad

TAILS = {1: [()], 3: [(2, 3), (1, 2), (3, 1)]}  # tails of one ndim, per row ndim
BREAKS = [None, "dtype", "device", "tail", "ndim", "list", "rectangle", "empty_part", "rectangles"]
COLUMNS = (None, "rectangle", "rectangles")  # the batches whose every tree is a column


def seg_batch(seed, k, n_leaves, dtype, ndim, brk):
    """The same ragged batch of k trees twice: built from arrays (segmented
    where `build_tree` packs them) and as TensorLeaf lists, with tree r
    broken as `brk` says: another dtype, device or ndim, one leaf's tail
    changed, stored as a list, all its leaves of one shape (a rectangle),
    or one part of length 0 (which `build_tree` does not pack); with
    "rectangles", every tree is a rectangle."""
    rng = np.random.default_rng(seed)
    tails = [TAILS[ndim][int(rng.integers(len(TAILS[ndim])))] for _ in range(n_leaves)]
    lens = rng.integers(1, 6, size=(k, n_leaves))
    for r in range(k):  # ragged within each tree: a tree of one shape is a rectangle
        if len({(int(m),) + t for m, t in zip(lens[r], tails)}) == 1:
            lens[r, 0] = lens[r, 0] % 5 + 1
    r, i = int(rng.integers(k)), int(rng.integers(n_leaves))
    if brk in ("rectangle", "rectangles"):
        tails = [tails[0]] * n_leaves
        for q in [r] if brk == "rectangle" else range(k):
            lens[q] = lens[q, 0]
    elif brk == "empty_part":
        lens[r, i] = 0
    table = [[pad_values(rng, dtype, (int(lens[q, j]),) + tails[j]) for j in range(n_leaves)]
             for q in range(k)]
    if brk == "dtype":
        table[r] = [a.astype(np.float32 if dtype != "f32" else np.float64) for a in table[r]]
    elif brk == "ndim":
        table[r] = [a[..., None] for a in table[r]]
    elif brk == "tail":
        shape = table[r][i].shape
        wider = shape[:1] + (shape[1] + 1,) + shape[2:] if ndim > 1 else shape + (1,)
        table[r][i] = pad_values(rng, dtype, wider)
    device = ["gpu" if brk == "device" and q == r else "cpu" for q in range(k)]
    names = [("g", f"x{j}") if j % 2 else (f"x{j}",) for j in range(n_leaves)]
    listed = [tt.rebuild([(p, TensorLeaf(a.copy(), device=dev)) for p, a in zip(names, arrays)])
              for arrays, dev in zip(table, device)]
    built = []
    for q, (arrays, dev) in enumerate(zip(table, device)):
        t = tt.build_tree(_nest(zip(names, arrays)))
        col = t._flat()[1]
        if dev != "cpu":  # the same segmented column on another device
            col = Column(col.buf, TensorLeaf, col.dtype, dev, col.shapes, col.offsets)
            t = tt.TreeTensor._of(t.treedef, col)
        built.append(listed[q] if brk == "list" and q == r else t)
    return built, listed


def pad_outcome(trees, fill):
    """group_pad's stacked and lengths leaves as bits, or its error's type,
    path and text; the group, if any; and whether group_pad made the
    leaf objects of its stacked tree."""
    try:
        g = tt.group_pad(trees, fill)
    except Exception as exc:  # noqa: BLE001 - compared by type, path and text
        return (type(exc), getattr(exc, "path", None), str(exc)), None, None
    stacked = g.stacked._flat()[1]
    made = type(stacked) is not Column or stacked._leaves is not None
    pairs = zip(tt.leaves(g.stacked), tt.leaves(g.lengths))
    return [(p, pad_bits(s), pad_bits(n)) for (p, s), (_, n) in pairs], g, made


@pytest.mark.parametrize("brk", BREAKS)
@settings(SETTINGS, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 2, 4, 1]), st.integers(2, 5),
       st.sampled_from(DTYPES), st.sampled_from([1, 3]), st.sampled_from(FILLS))
def test_group_pad_of_segmented_trees_matches_the_list_form(brk, seed, k, n_leaves, dtype, ndim, fill):
    built, listed = seg_batch(seed, k, n_leaves, dtype, ndim, brk)
    if brk is None:
        assert all(storage(t) == "segmented" for t in built)
    if brk in COLUMNS[1:]:
        assert "rectangle" in {storage(t) for t in built} and "list" not in {storage(t) for t in built}
    got, g, made = pad_outcome(built, fill)
    want, g_list, _ = pad_outcome(listed, fill)
    assert got == want
    ref = reference_pad(listed, fill)
    if g is None:
        assert got[:2] == ref
        return
    assert got == [(p, want_bits(s, dev), want_bits(n, "cpu")) for p, s, n, dev in ref]
    assert g.fill is fill and storage(g.lengths) == "rectangle"
    if brk in COLUMNS:  # one buffer, made without a leaf object
        assert storage(g.stacked) == "segmented" and not made
    arrays = [leaf.array for _, leaf in tt.leaves(g.stacked)]
    if brk in COLUMNS:
        base = arrays[0].base
        assert all(a.base is base and a.flags.c_contiguous for a in arrays)
    back = tt.unpad(g)
    if brk in COLUMNS:
        assert all(storage(t) == "segmented" for t in back)
        assert back == built and all(t._flat()[1]._leaves is None for t in back)
        assert all(t._flat()[1]._leaves is None for t in built)
    assert back == listed and listed == back
    assert outcome(lambda: back) == outcome(lambda: tt.unpad(g_list))


@settings(SETTINGS, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.sampled_from(DTYPES))
def test_a_fill_a_segmented_batch_cannot_hold_is_rejected_at_the_first_leaf_that_pads(seed, ndim, dtype):
    built, listed = seg_batch(seed, 3, 5, dtype, ndim, None)
    for fill in (float("nan"), float("inf"), 2**63, 10**400):
        assert pad_outcome(built, fill)[0] == pad_outcome(listed, fill)[0]


CORRUPTIONS = [None, "negative", "above", "wrong_k", "f64", "no_length_dim", "other_structure"]


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 5), st.sampled_from(DTYPES),
       st.sampled_from([1, 3]), st.sampled_from(CORRUPTIONS))
def test_unpad_of_a_corrupt_segmented_group_raises_as_the_list_form_does(seed, k, n_leaves, dtype,
                                                                         ndim, corruption):
    built, _ = seg_batch(seed, k, n_leaves, dtype, ndim, None)
    g = tt.group_pad(built, 0)
    assert storage(g.stacked) == "segmented"
    rng = np.random.default_rng(seed)
    i = int(rng.integers(n_leaves))
    stacked = g.stacked
    lengths = [(p, leaf.array.copy()) for p, leaf in tt.leaves(g.lengths)]
    p, n = lengths[i]
    if corruption == "negative":
        n[int(rng.integers(k))] = -1
    elif corruption == "above":
        n[int(rng.integers(k))] = tt.leaves(stacked)[i][1].shape[1] + 1
    elif corruption == "wrong_k":
        lengths = [(q, np.append(m, 0)) for q, m in lengths]
    elif corruption == "f64":
        lengths = [(q, m.astype(np.float64)) for q, m in lengths]
    elif corruption == "no_length_dim":  # a segmented stacked tree of rows of ndim 1
        stacked = tt.build_tree(_nest((q, np.arange(j + 1.0)) for j, (q, _) in enumerate(lengths)))
    elif corruption == "other_structure":
        lengths.append((("zz",), np.zeros(k, np.int64)))
    assert storage(stacked) == "segmented"
    listed = tt.rebuild([(q, TensorLeaf(leaf.array.copy())) for q, leaf in tt.leaves(stacked)])
    for packed in (False, True):
        lengths_tree = (tt.build_tree(_nest(lengths)) if packed else
                        tt.rebuild([(q, TensorLeaf(a.copy())) for q, a in lengths]))
        got = outcome(lambda: tt.unpad(tt.PaddedGroup(stacked, lengths_tree, 0)))
        assert got == outcome(lambda: tt.unpad(tt.PaddedGroup(listed, lengths_tree, 0)))
        assert (type(got) is list) is (corruption is None), got


def test_a_segmented_batch_pads_into_the_list_paths_layout():
    trees = [tt.build_tree({"a": np.arange(float(m)), "x": {"b": np.arange(2.0 * m).reshape(m, 2),
                                                            "c": np.arange(3.0)}})
             for m in (1, 3, 2)]
    assert all(storage(t) == "list" for t in trees)  # ndims differ: the list path
    trees = [tt.build_tree({"a": np.arange(m + 1.0), "b": np.full(4 - m, -0.0), "c": np.arange(3.0)})
             for m in (1, 3, 2)]
    assert all(storage(t) == "segmented" for t in trees)
    g = tt.group_pad(trees, np.nan)
    col = g.stacked._flat()[1]
    assert col.shapes.tolist() == [[3, 4], [3, 3], [3, 3]] and col.offsets.tolist() == [0, 12, 21]
    assert col.buf.flags.c_contiguous and not col.buf.flags.writeable and col.buf.size == 30
    want = [np.array([[0, 1, np.nan, np.nan], [0, 1, 2, 3], [0, 1, 2, np.nan]]),
            np.array([[-0.0, -0.0, -0.0], [-0.0, np.nan, np.nan], [-0.0, -0.0, np.nan]]),
            np.array([[0, 1, 2]] * 3, float)]
    for (_, leaf), w in zip(tt.leaves(g.stacked), want):
        assert np.array_equal(leaf.array, w, equal_nan=True)
        assert np.array_equal(np.signbit(leaf.array), np.signbit(w))
    assert [leaf.data for _, leaf in tt.leaves(g.lengths)] == [[2, 4, 3], [3, 1, 2], [3, 3, 3]]
    back = tt.unpad(g)
    assert [t._flat()[1].offsets.tolist() for t in back] == [[0, 12, 21], [4, 15, 24], [8, 18, 27]]
    assert back == trees
