import itertools
import random

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import (
    ArityMismatch,
    EmptyInput,
    InvalidChunk,
    LeafOpError,
    MissingDefault,
    StrictKeyMismatch,
)

from helpers import (
    flat_apply_rebuild,
    leaves_close,
    oracle_binary,
    oracle_unary,
    paper_tree,
    rand_leaf,
    rand_tree,
    rand_tree_family,
    trees_close,
)


def test_pow2_on_paper_tree():
    lifted = tt.lift_unary("pow2")
    out = lifted(paper_tree())
    want = {("a",): 4, ("b",): 8, ("x", "c"): 32, ("x", "d"): 128}
    got = {p: l.item() for p, l in tt.leaves(out)}
    assert got == want
    assert tt.structure_equal(out, paper_tree())


def test_mulsub_on_trees():
    x = tt.build_tree({"a": 3, "x": {"c": 5}})
    y = tt.build_tree({"a": 4, "x": {"c": 6}})
    z = tt.build_tree({"a": 2, "x": {"c": 10}})
    h = tt.lift_multi("mulsub")
    out = h(x, y, z)
    got = {p: l.item() for p, l in tt.leaves(out)}
    assert got == {("a",): 10, ("x", "c"): 20}


def test_raw_leaf_broadcasts_everywhere():
    add = tt.lift_multi("add")
    out = add(paper_tree(), tt.scalar(10, "i64"))
    got = {p: l.item() for p, l in tt.leaves(out)}
    assert got == {("a",): 12, ("b",): 13, ("x", "c"): 15, ("x", "d"): 17}


def test_value_node_arg_broadcasts_into_subtrees():
    # one argument bottoms out at [x] while the other keeps descending
    a = tt.build_tree({"x": {"c": 5, "d": 7}})
    b = tt.build_tree({"x": 100})
    out = tt.lift_multi("add")(a, b)
    got = {p: l.item() for p, l in tt.leaves(out)}
    assert got == {("x", "c"): 105, ("x", "d"): 107}


def test_arity_checked():
    with pytest.raises(ArityMismatch):
        tt.lift_multi("add")(paper_tree())
    with pytest.raises(ArityMismatch):
        tt.lift_multi("mulsub")(paper_tree(), paper_tree())


def test_lift_needs_one_tree():
    with pytest.raises(tt.errors.TensorTreeError):
        tt.lift_multi("add")(tt.scalar(1.0), tt.scalar(2.0))


def test_leaf_errors_carry_path():
    t = tt.build_tree({"ok": 2, "x": {"bad": True}})
    with pytest.raises(LeafOpError) as e:
        tt.lift_unary("exp")(t)
    assert e.value.path == ("x", "bad")


# ---------------------------------------------------------------------------
# mismatch policies

def keyset_tree(keys, fill=1.0):
    return tt.build_tree({k: fill for k in keys})


def out_keys(tree):
    return sorted(tree.root.children)


def test_policy_table_example():
    a = keyset_tree(["a", "b", "c"])
    b = keyset_tree(["b", "c", "d"])
    add = tt.lift_multi("add", tt.INNER)
    assert out_keys(add(a, b)) == ["b", "c"]
    left = tt.MismatchPolicy("left", tt.scalar(0.0))
    assert out_keys(tt.lift_multi("add", left)(a, b)) == ["a", "b", "c"]
    outer = tt.MismatchPolicy("outer", tt.scalar(0.0))
    assert out_keys(tt.lift_multi("add", outer)(a, b)) == ["a", "b", "c", "d"]
    with pytest.raises(StrictKeyMismatch):
        tt.lift_multi("add")(a, b)


def test_strict_reports_symmetric_difference():
    a = keyset_tree(["a", "b"])
    b = keyset_tree(["b", "c"])
    with pytest.raises(StrictKeyMismatch) as e:
        tt.lift_multi("add")(a, b)
    assert set(e.value.difference) == {"a", "c"}


def test_outer_uses_default_at_missing_positions():
    a = tt.build_tree({"a": 1.0})
    b = tt.build_tree({"b": 2.0})
    outer = tt.MismatchPolicy("outer", tt.scalar(10.0))
    out = tt.lift_multi("add", outer)(a, b)
    got = {p: l.item() for p, l in tt.leaves(out)}
    assert got == {("a",): 11.0, ("b",): 12.0}


def test_outer_and_left_require_default():
    with pytest.raises(MissingDefault):
        tt.MismatchPolicy("outer")
    with pytest.raises(MissingDefault):
        tt.MismatchPolicy("left")
    # and strict/inner refuse one
    with pytest.raises(ValueError):
        tt.MismatchPolicy("strict", tt.scalar(0.0))


def test_merge_keys_against_set_oracle():
    rng = random.Random(11)
    pool = list("abcdefghij")
    default = tt.scalar(0.0)
    for _ in range(200):
        k1 = set(rng.sample(pool, rng.randint(0, 6)))
        k2 = set(rng.sample(pool, rng.randint(0, 6)))
        m1, m2 = {k: None for k in sorted(k1)}, {k: None for k in sorted(k2)}
        assert tt.merge_keys([m1, m2], tt.INNER) == sorted(k1 & k2)
        assert tt.merge_keys(
            [m1, m2], tt.MismatchPolicy("outer", default)
        ) == sorted(k1 | k2)
        assert tt.merge_keys(
            [m1, m2], tt.MismatchPolicy("left", default)
        ) == sorted(k1)
        if k1 == k2:
            assert tt.merge_keys([m1, m2], tt.STRICT) == sorted(k1)
        else:
            with pytest.raises(StrictKeyMismatch):
                tt.merge_keys([m1, m2], tt.STRICT)


def test_policy_lattice():
    rng = random.Random(12)
    pool = list("abcdefgh")
    default = tt.scalar(0.0)
    for _ in range(100):
        maps = [
            {k: None for k in sorted(set(rng.sample(pool, rng.randint(0, 5))))}
            for _ in range(rng.randint(2, 4))
        ]
        inner = set(tt.merge_keys(maps, tt.INNER))
        left = set(tt.merge_keys(maps, tt.MismatchPolicy("left", default)))
        outer = set(tt.merge_keys(maps, tt.MismatchPolicy("outer", default)))
        assert inner <= left <= outer


# ---------------------------------------------------------------------------
# lifted vs flatten-apply-rebuild reference

def test_lift_unary_matches_reference():
    rng = random.Random(21)
    for _ in range(50):
        t = rand_tree(rng)
        for fn_id in tt.leaf.UNARY_FN_IDS:
            got = tt.lift_unary(fn_id)(t)
            want = flat_apply_rebuild(lambda l: oracle_unary(fn_id, l), t)
            assert trees_close(got, want), fn_id


def test_lift_binary_matches_reference():
    rng = random.Random(22)
    for _ in range(50):
        a, b = rand_tree_family(rng, 2)
        if any(v == 0 for _, l in tt.leaves(b) for v in l.data):
            pairs = [
                (p, tt.make_leaf(l.shape, l.dtype, [v or 1 for v in l.data]))
                for p, l in tt.leaves(b)
            ]
            b = tt.rebuild(pairs)
        for fn_id in tt.leaf.BINARY_FN_IDS:
            got = tt.lift_multi(fn_id)(a, b)
            want = flat_apply_rebuild(
                lambda x, y: oracle_binary(fn_id, x, y), a, b
            )
            assert trees_close(got, want), fn_id


# ---------------------------------------------------------------------------
# structural lifted ops

def test_lifted_stack_matches_per_leaf_numpy():
    rng = random.Random(23)
    for _ in range(30):
        trees = rand_tree_family(rng, 3, dtype="f64")
        got = tt.lifted_stack(trees)
        ref_pairs = []
        per_tree = [tt.leaves(t) for t in trees]
        for i, (p, _) in enumerate(per_tree[0]):
            arrs = [ls[i][1].array for ls in per_tree]
            ref_pairs.append((p, tt.from_array(np.stack(arrs))))
        assert got == tt.rebuild(ref_pairs)


def test_lifted_cat_matches_per_leaf_numpy():
    rng = random.Random(24)
    for _ in range(30):
        trees = rand_tree_family(rng, 3, dtype="i64")
        # cat needs ndim >= 1 everywhere
        trees = [
            tt.rebuild([
                (p, l if l.ndim else tt.make_leaf((1,), l.dtype, l.data))
                for p, l in tt.leaves(t)
            ])
            for t in trees
        ]
        got = tt.lifted_cat(trees)
        per_tree = [tt.leaves(t) for t in trees]
        ref_pairs = []
        for i, (p, _) in enumerate(per_tree[0]):
            arrs = [ls[i][1].array for ls in per_tree]
            ref_pairs.append((p, tt.from_array(np.concatenate(arrs))))
        assert got == tt.rebuild(ref_pairs)


def test_lifted_split_inverts_cat():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 6)
        paths = None
        trees = rand_tree_family(rng, 1, dtype="f64")
        base = trees[0]
        # give every leaf the same dim-0 length so piece counts agree
        pairs = [
            (p, rand_leaf(rng, dtype="f64", shape=(n,) + l.shape[1:] if l.ndim else (n,)))
            for p, l in tt.leaves(base)
        ]
        t = tt.rebuild(pairs)
        chunk = rng.randint(1, n)
        pieces = tt.lifted_split(t, chunk)
        assert tt.lifted_cat(pieces) == t


def test_lifted_split_piece_count_disagreement():
    t = tt.build_tree({"a": np.arange(4.0), "b": np.arange(9.0)})
    with pytest.raises(LeafOpError):
        tt.lifted_split(t, 3)
    with pytest.raises(InvalidChunk):
        tt.lifted_split(t, 0)


def test_structural_ops_reject_empty_and_mismatch():
    with pytest.raises(EmptyInput):
        tt.lifted_stack([])
    with pytest.raises(EmptyInput):
        tt.lifted_cat([])
    a = tt.build_tree({"a": np.arange(3.0)})
    b = tt.build_tree({"b": np.arange(3.0)})
    with pytest.raises(StrictKeyMismatch):
        tt.lifted_stack([a, b])
    c = tt.build_tree({"a": np.arange(4.0)})
    with pytest.raises(LeafOpError):
        tt.lifted_stack([a, c])


def test_lifted_shape():
    t = tt.build_tree({"a": np.zeros((2, 3)), "x": {"c": 1.0}})
    assert tt.lifted_shape(t) == {"a": [2, 3], "x": {"c": []}}


def test_lifted_surface_covers_registry():
    surface = tt.lifted_surface()
    for fn_id in tt.leaf.UNARY_FN_IDS + tt.leaf.BINARY_FN_IDS + tt.leaf.NARY_FN_IDS:
        assert fn_id in surface
    for op in ("stack", "cat", "split", "shape"):
        assert op in surface


NEGATIVE_AXIS = {
    "stack": lambda t: tt.lifted_stack([t, t], axis=-1),
    "cat": lambda t: tt.lifted_cat([t, t], axis=-1),
    "split": lambda t: tt.lifted_split(t, 1, axis=-1),
}
TREES = {"leaves": {"a": np.arange(3.0)}, "leafless": {"e": {}}}


@pytest.mark.parametrize("op, tree", list(itertools.product(NEGATIVE_AXIS, TREES)))
def test_lifted_stack_cat_and_split_reject_a_negative_axis(op, tree):
    with pytest.raises(tt.errors.ShapeMismatchLeaf):
        NEGATIVE_AXIS[op](tt.build_tree(TREES[tree]))


def test_lifted_split_carries_empty_subtrees():
    t = tt.build_tree({"a": np.arange(4.0), "b": {}})
    pieces = tt.lifted_split(t, 2)
    assert [tt.lifted_shape(p) for p in pieces] == [{"a": [2], "b": {}}] * 2
    assert tt.lifted_cat(pieces) == t


def test_lifted_split_count_error_names_the_first_differing_leaf():
    t = tt.build_tree({"a": np.arange(4.0), "x": {"b": np.arange(4.0), "c": np.arange(9.0)}})
    with pytest.raises(LeafOpError) as e:
        tt.lifted_split(t, 2)
    assert e.value.path == ("x", "c")
