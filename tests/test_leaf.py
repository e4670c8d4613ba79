import itertools
import math
import pickle
import random
import warnings

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import (
    DivisionByZero,
    DtypeUnsupported,
    InvalidChunk,
    ShapeDataMismatch,
    ShapeMismatchLeaf,
    UnknownFunction,
)

from helpers import (
    LEAF_DTYPES,
    TRANSCENDENTAL,
    leaves_close,
    oracle_binary,
    oracle_nary,
    oracle_unary,
    rand_leaf,
)


def test_make_leaf_basic():
    l = tt.make_leaf((2, 3), "f64", [1, 2, 3, 4, 5, 6])
    assert l.shape == (2, 3)
    assert l.dtype == "f64"
    assert l.device == "cpu"
    assert l.data == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert l.size == 6 and l.ndim == 2


def test_make_leaf_scalar_and_item():
    s = tt.scalar(5, "i64")
    assert s.shape == () and s.dtype == "i64" and s.item() == 5
    assert tt.scalar(2.5).dtype == "f64"
    assert tt.scalar(True, "bool").dtype == "bool"


def test_make_leaf_errors():
    with pytest.raises(ShapeDataMismatch):
        tt.make_leaf((2, 2), "f64", [1, 2, 3])
    with pytest.raises(ShapeDataMismatch):
        tt.make_leaf((-1,), "f64", [])
    with pytest.raises(DtypeUnsupported):
        tt.make_leaf((1,), "f16", [1])


def test_leaf_immutable():
    l = tt.make_leaf((3,), "f64", [1, 2, 3])
    with pytest.raises(ValueError):
        l.array[0] = 9.0
    arr = np.arange(3.0)
    l2 = tt.from_array(arr)
    with pytest.raises(ValueError):
        l2.array[0] = 9.0


def test_leaf_value_equality_and_hash():
    a = tt.make_leaf((2,), "f64", [1, 2])
    b = tt.make_leaf((2,), "f64", [1.0, 2.0])
    c = tt.make_leaf((2,), "f32", [1, 2])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != tt.make_leaf((2,), "f64", [1, 3])
    assert a != tt.make_leaf((1, 2), "f64", [1, 2])


def test_copy_is_independent():
    a = tt.make_leaf((2,), "f64", [1, 2])
    b = a.copy()
    assert a == b and a.array.base is not b.array.base


def test_from_array_dtype_mapping():
    assert tt.from_array(np.arange(3, dtype=np.int64)).dtype == "i64"
    assert tt.from_array(np.zeros(2, dtype=np.float32)).dtype == "f32"
    assert tt.from_array(np.array([True])).dtype == "bool"


# ---------------------------------------------------------------------------
# elementwise vs scalar-loop oracle

UNARY_IDS = tt.leaf.UNARY_FN_IDS
BINARY_IDS = tt.leaf.BINARY_FN_IDS
NARY_IDS = tt.leaf.NARY_FN_IDS


# 0-d, zero-size and ordinary shapes; every elementwise id meets each
SHAPES = ((), (0,), (3,), (2, 0), (2, 3))


def shape_patterns(arity, shape):
    """Argument shapes an elementwise call accepts: all `shape`, all 0-d,
    and each position alone 0-d or alone `shape` among 0-d scalars."""
    yield (shape,) * arity
    yield ((),) * arity
    for i in range(arity):
        yield tuple(() if j == i else shape for j in range(arity))
        yield tuple(shape if j == i else () for j in range(arity))


def nonzero(leaf):
    return tt.make_leaf(leaf.shape, leaf.dtype, [v or 1 for v in leaf.data])


@pytest.mark.parametrize("fn_id", UNARY_IDS)
def test_ew_unary_matches_oracle(fn_id):
    rng = random.Random(101)
    for _ in range(30):
        l = rand_leaf(rng)
        got = tt.ew_unary(fn_id, l)
        want = oracle_unary(fn_id, l)
        assert leaves_close(got, want), (fn_id, l.dtype, l.shape)
    for dtype in LEAF_DTYPES:
        for shape in SHAPES:
            l = rand_leaf(rng, dtype=dtype, shape=shape)
            for got in (tt.ew_unary(fn_id, l), tt.ew_nary(fn_id, [l])):
                assert leaves_close(got, oracle_unary(fn_id, l)), (fn_id, dtype, shape)


def test_unary_promotes_i64_for_transcendentals():
    l = tt.make_leaf((3,), "i64", [0, 1, 2])
    for fn_id in TRANSCENDENTAL:
        assert tt.ew_unary(fn_id, l).dtype == "f64"
    assert tt.ew_unary("neg", l).dtype == "i64"
    rng = random.Random(104)
    for fn_id in TRANSCENDENTAL:
        for shape in SHAPES:
            l = rand_leaf(rng, dtype="i64", shape=shape)
            got = tt.ew_unary(fn_id, l)
            assert got.dtype == "f64" and got.shape == shape
            assert leaves_close(got, oracle_unary(fn_id, l)), (fn_id, shape)
    for fn_id in sorted(set(UNARY_IDS) - set(TRANSCENDENTAL)):
        assert tt.ew_unary(fn_id, l).dtype == "i64"


def test_unary_rejects_bool():
    l = tt.make_leaf((2,), "bool", [True, False])
    with pytest.raises(DtypeUnsupported):
        tt.ew_unary("neg", l)
    for fn_id in UNARY_IDS:
        for shape in SHAPES:
            b = rand_leaf(random.Random(105), dtype="bool", shape=shape)
            for call in (lambda: tt.ew_unary(fn_id, b), lambda: tt.ew_nary(fn_id, [b])):
                with pytest.raises(DtypeUnsupported):
                    call()


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        tt.ew_unary("tanhish", tt.scalar(1.0))
    with pytest.raises(UnknownFunction):
        tt.ew_binary("mod", tt.scalar(1.0), tt.scalar(2.0))
    x = tt.scalar(1.0)
    with pytest.raises(UnknownFunction):
        tt.ew_nary("tanhish", [x])
    for fn_id in BINARY_IDS + NARY_IDS:
        with pytest.raises(UnknownFunction):
            tt.ew_unary(fn_id, x)
    for fn_id in UNARY_IDS + NARY_IDS:
        with pytest.raises(UnknownFunction):
            tt.ew_binary(fn_id, x, x)
    # a known id with the wrong number of arguments, bool ones included
    b = tt.scalar(True, "bool")
    for fn_id in UNARY_IDS + BINARY_IDS + NARY_IDS:
        arity = tt.leaf.fn_arity(fn_id)
        for n in {0, 1, 2, 3, 4} - {arity}:
            for arg in (x, b):
                with pytest.raises(UnknownFunction):
                    tt.ew_nary(fn_id, [arg] * n)
    with pytest.raises(UnknownFunction):
        tt.leaf.fn_arity("tanhish")


@pytest.mark.parametrize("fn_id", BINARY_IDS)
def test_ew_binary_matches_oracle(fn_id):
    rng = random.Random(202)
    for _ in range(40):
        da, db = rng.choice(LEAF_DTYPES), rng.choice(LEAF_DTYPES)
        shape = (rng.randint(1, 4),)
        a = rand_leaf(rng, dtype=da, shape=shape)
        b_shape = () if rng.random() < 0.3 else shape
        b = rand_leaf(rng, dtype=db, shape=b_shape)
        if fn_id == "div" and any(v == 0 for v in b.data):
            b = tt.make_leaf(b.shape, db, [v or 1 for v in b.data])
        got = tt.ew_binary(fn_id, a, b)
        want = oracle_binary(fn_id, a, b)
        assert leaves_close(got, want), (fn_id, da, db)
    # every dtype pair, with a 0-d scalar on either side, 0-d and zero-size
    for da, db in itertools.product(LEAF_DTYPES, repeat=2):
        for shape in SHAPES:
            for sa, sb in shape_patterns(2, shape):
                a = rand_leaf(rng, dtype=da, shape=sa)
                b = rand_leaf(rng, dtype=db, shape=sb)
                if fn_id == "div":
                    b = nonzero(b)
                want = oracle_binary(fn_id, a, b)
                for got in (tt.ew_binary(fn_id, a, b), tt.ew_nary(fn_id, [a, b])):
                    assert leaves_close(got, want), (fn_id, da, db, sa, sb)


def test_binary_promotion_table():
    f32 = rand_leaf(random.Random(0), dtype="f32", shape=(2,))
    f64 = rand_leaf(random.Random(1), dtype="f64", shape=(2,))
    i64 = rand_leaf(random.Random(2), dtype="i64", shape=(2,))
    assert tt.ew_binary("add", f32, f64).dtype == "f64"
    assert tt.ew_binary("add", i64, f32).dtype == "f32"
    assert tt.ew_binary("add", i64, f64).dtype == "f64"
    assert tt.ew_binary("add", i64, i64).dtype == "i64"


def test_integer_division_floors():
    a = tt.make_leaf((4,), "i64", [7, -7, 9, -9])
    b = tt.make_leaf((4,), "i64", [2, 2, -4, -4])
    got = tt.ew_binary("div", a, b)
    assert got.dtype == "i64"
    assert got.data == [3, -4, -3, 2]


def test_integer_division_by_zero():
    a = tt.make_leaf((2,), "i64", [1, 2])
    b = tt.make_leaf((2,), "i64", [1, 0])
    with pytest.raises(DivisionByZero):
        tt.ew_binary("div", a, b)


def test_binary_shape_mismatch():
    a = tt.make_leaf((2,), "f64", [1, 2])
    b = tt.make_leaf((3,), "f64", [1, 2, 3])
    with pytest.raises(ShapeMismatchLeaf):
        tt.ew_binary("add", a, b)


# shape pairs that differ and neither of which is 0-d; numpy would
# broadcast several of them, the leaf kernel does not
MISMATCHED = (((2,), (3,)), ((2,), (0,)), ((1,), (3,)), ((3,), (1, 3)), ((2, 3), (3,)))


def test_shape_mismatch_for_every_id_and_dtype():
    rng = random.Random(206)
    for fn_id in BINARY_IDS + NARY_IDS:
        arity = tt.leaf.fn_arity(fn_id)
        for s1, s2 in MISMATCHED:
            for odd in range(arity):
                # bool too: the shape rule is checked before the dtype rule
                for dtypes in itertools.product(LEAF_DTYPES + ("bool",), repeat=arity):
                    args = [rand_leaf(rng, dtype=d, shape=s2 if j == odd else s1)
                            for j, d in enumerate(dtypes)]
                    with pytest.raises(ShapeMismatchLeaf):
                        tt.ew_nary(fn_id, args)
                    if arity == 2:
                        with pytest.raises(ShapeMismatchLeaf):
                            tt.ew_binary(fn_id, *args)


def test_scalar_broadcast_both_sides():
    a = tt.make_leaf((3,), "f64", [1, 2, 3])
    s = tt.scalar(10.0)
    assert tt.ew_binary("add", a, s).data == [11.0, 12.0, 13.0]
    assert tt.ew_binary("sub", s, a).data == [9.0, 8.0, 7.0]


@pytest.mark.parametrize("fn_id", NARY_IDS)
def test_ew_nary_matches_oracle(fn_id):
    rng = random.Random(303)
    arity = tt.leaf.fn_arity(fn_id)
    for _ in range(30):
        shape = (rng.randint(1, 4),)
        args = [rand_leaf(rng, dtype=rng.choice(LEAF_DTYPES), shape=shape)
                for _ in range(arity)]
        got = tt.ew_nary(fn_id, args)
        want = oracle_nary(fn_id, args)
        assert leaves_close(got, want)
    # every dtype combination, with a 0-d scalar in each position, 0-d and
    # zero-size
    for dtypes in itertools.product(LEAF_DTYPES, repeat=arity):
        for shape in SHAPES:
            for shapes in shape_patterns(arity, shape):
                args = [rand_leaf(rng, dtype=d, shape=s) for d, s in zip(dtypes, shapes)]
                got = tt.ew_nary(fn_id, args)
                assert leaves_close(got, oracle_nary(fn_id, args)), (fn_id, dtypes, shapes)


def test_mulsub_example():
    x = tt.make_leaf((2,), "i64", [3, 4])
    y = tt.make_leaf((2,), "i64", [5, 6])
    z = tt.make_leaf((2,), "i64", [7, 8])
    assert tt.ew_nary("mulsub", [x, y, z]).data == [8, 16]


# ---------------------------------------------------------------------------
# structural leaf ops

def test_stack_and_cat():
    a = tt.make_leaf((2,), "f64", [1, 2])
    b = tt.make_leaf((2,), "f64", [3, 4])
    s = tt.stack([a, b])
    assert s.shape == (2, 2) and s.data == [1, 2, 3, 4]
    s1 = tt.stack([a, b], axis=1)
    assert s1.shape == (2, 2) and s1.data == [1, 3, 2, 4]
    c = tt.cat([a, b])
    assert c.shape == (4,) and c.data == [1, 2, 3, 4]


def test_stack_rejects_mismatch():
    a = tt.make_leaf((2,), "f64", [1, 2])
    with pytest.raises(ShapeMismatchLeaf):
        tt.stack([a, tt.make_leaf((3,), "f64", [1, 2, 3])])
    with pytest.raises(ShapeMismatchLeaf):
        tt.stack([a, tt.make_leaf((2,), "f32", [1, 2])])
    with pytest.raises(tt.errors.EmptyInput):
        tt.stack([])


def test_cat_matches_numpy():
    rng = random.Random(7)
    for _ in range(20):
        shape = (rng.randint(1, 3), rng.randint(1, 3))
        parts = [rand_leaf(rng, dtype="f64", shape=shape) for _ in range(3)]
        axis = rng.randint(0, 1)
        got = tt.cat(parts, axis=axis)
        want = np.concatenate([p.array for p in parts], axis=axis)
        assert np.array_equal(got.array, want)


def test_split_roundtrip():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 12)
        l = rand_leaf(rng, dtype="i64", shape=(n, 2))
        chunk = rng.randint(1, n)
        pieces = tt.split(l, chunk)
        assert all(p.shape[0] <= chunk for p in pieces)
        assert tt.cat(pieces) == l


def test_split_errors():
    l = tt.make_leaf((4,), "f64", [1, 2, 3, 4])
    with pytest.raises(InvalidChunk):
        tt.split(l, 0)
    with pytest.raises(ShapeMismatchLeaf):
        tt.split(l, 2, axis=1)
    with pytest.raises(ShapeMismatchLeaf):
        tt.split(tt.scalar(1.0), 1)


def test_zeros_like():
    l = tt.make_leaf((2, 2), "f32", [1, 2, 3, 4])
    z = tt.zeros_like(l)
    assert z.shape == l.shape and z.dtype == l.dtype and z.data == [0.0] * 4


def test_from_array_keeps_zero_dim_arrays_zero_dim():
    leaf = tt.from_array(np.array(1.0))
    assert leaf.shape == () and leaf.item() == 1.0
    assert tt.get(tt.build_tree({"a": np.array(2.0)}), ["a"]).shape == ()
    # a copy in row-major order, whatever the input's layout
    src = np.arange(6.0).reshape(2, 3).T
    leaf = tt.from_array(src)
    assert leaf.array.flags.c_contiguous and leaf.data == src.reshape(-1).tolist()
    assert src.flags.writeable
    # an ndarray subclass is stored as a plain ndarray
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        mat = np.matrix([[1.0, 2.0], [3.0, 4.0]])
    masked = np.ma.masked_array([1.0, 2.0, 3.0], mask=[False, True, False])
    for src in (mat, masked):
        leaf = tt.from_array(src)
        assert type(leaf.array) is np.ndarray
        assert tt.get(tt.build_tree({"a": src}), ["a"]).array.__class__ is np.ndarray
    m = tt.from_array(mat)
    assert m.data == [1.0, 2.0, 3.0, 4.0]
    assert tt.ew_binary("mul", m, m).data == [1.0, 4.0, 9.0, 16.0]
    assert tt.from_array(masked).data == [1.0, 2.0, 3.0]


def test_constructor_rejects_an_untagged_dtype():
    with pytest.raises(DtypeUnsupported):
        tt.TensorLeaf(np.arange(3, dtype=np.int32))
    with pytest.raises(DtypeUnsupported):
        tt.from_array(np.arange(3, dtype=np.int32))
    assert tt.TensorLeaf(np.arange(3, dtype=np.int64)).dtype == "i64"


@pytest.mark.parametrize("cls", [tt.TensorLeaf, tt.StackedLeaf])
def test_the_constructor_copies_so_the_callers_array_stays_writeable(cls):
    src = np.arange(6.0).reshape(2, 3).T  # not row-major
    leaf = cls(src, "gpu0")
    assert type(leaf) is cls and leaf.device == "gpu0"
    assert src.flags.writeable and not leaf.array.flags.writeable
    assert leaf.array.flags.c_contiguous and not np.shares_memory(leaf.array, src)
    risen = tt.rise(tt.TreeTensor(tt.TreeNode({"p": leaf})))
    src[...] = 99.0
    assert leaf.data == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]
    if cls is tt.StackedLeaf:  # its rows are the components
        assert [tt.get(x, ["p"]).data for x in risen] == [[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]]
    # copy and pickling keep the class and make one copy, of their own
    for again in (leaf.copy(), pickle.loads(pickle.dumps(leaf))):
        assert type(again) is cls and again == leaf and again.device == "gpu0"
        assert not again.array.flags.writeable and not np.shares_memory(again.array, leaf.array)


def test_split_along_axis_0_gives_read_only_views():
    leaf = tt.TensorLeaf(np.arange(10.0).reshape(5, 2))
    pieces = tt.split(leaf, 2)
    assert [p.shape for p in pieces] == [(2, 2), (2, 2), (1, 2)]
    assert [p.data for p in pieces] == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0], [8.0, 9.0]]
    assert all(not p.array.flags.writeable and p.array.base is not None for p in pieces)


def test_arithmetic_rejects_bool_leaves_of_one_dtype():
    b = tt.make_leaf((2,), "bool", [True, False])
    for fn_id in tt.leaf.BINARY_FN_IDS:
        with pytest.raises(DtypeUnsupported):
            tt.ew_binary(fn_id, b, b)
    with pytest.raises(DtypeUnsupported):
        tt.ew_nary("mulsub", [b, b, b])


def test_arithmetic_rejects_bool_in_every_position():
    rng = random.Random(404)
    for fn_id in BINARY_IDS + NARY_IDS:
        arity = tt.leaf.fn_arity(fn_id)
        for shape in SHAPES:
            for shapes in shape_patterns(arity, shape):
                for pos in range(arity):
                    for other in LEAF_DTYPES + ("bool",):
                        args = [rand_leaf(rng, dtype="bool" if j == pos else other, shape=s)
                                for j, s in enumerate(shapes)]
                        with pytest.raises(DtypeUnsupported):
                            tt.ew_nary(fn_id, args)
                        if arity == 2:
                            with pytest.raises(DtypeUnsupported):
                                tt.ew_binary(fn_id, *args)
