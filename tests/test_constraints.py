import random

import numpy as np
import pytest

import tensortree as tt
from tensortree.constraints import (
    EMPTY,
    Constraint,
    ConstraintTree,
    violations,
)
from tensortree.errors import ConstraintViolation

from helpers import distribute, mirror, paper_tree, place, rand_leaf, rand_tree


def inh(atom):
    return tt.inherit_atom(atom)


def non(atom):
    return tt.noninherit_atom(atom)


# ---------------------------------------------------------------------------
# constraint algebra laws

def rand_atom(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return tt.DtypeIs(rng.choice(("f32", "f64", "i64")))
    if kind == 1:
        return tt.NdimIs(rng.randint(0, 3))
    if kind == 2:
        return tt.DimEquals(rng.randint(0, 2), rng.randint(1, 4))
    if kind == 3:
        return tt.DimAtLeast(rng.randint(0, 2), rng.randint(1, 4))
    return tt.DeviceIs("cpu")


def rand_constraint(rng, max_atoms=3):
    entries = []
    for _ in range(rng.randint(0, max_atoms)):
        atom = rand_atom(rng)
        entries.append((rng.random() < 0.7, atom))
    return Constraint(entries)


def test_sum_identity_with_empty():
    rng = random.Random(31)
    for _ in range(100):
        c = rand_constraint(rng)
        assert tt.c_sum([c, EMPTY]) == c
        assert tt.c_sum([EMPTY, c]) == c


def test_sum_commutative_associative_idempotent():
    rng = random.Random(32)
    for _ in range(200):
        a, b, c = (rand_constraint(rng) for _ in range(3))
        assert tt.c_sum([a, b]) == tt.c_sum([b, a])
        assert tt.c_sum([tt.c_sum([a, b]), c]) == tt.c_sum([a, tt.c_sum([b, c])])
        assert tt.c_sum([a, a]) == a


def test_cover_reflexive_transitive():
    rng = random.Random(33)
    for _ in range(200):
        a = rand_constraint(rng)
        assert tt.covers(a, a)
        assert tt.covers(a, EMPTY)
        b = tt.c_sum([a, rand_constraint(rng)])
        # a bigger conjunction covers its parts
        assert tt.covers(b, a)
        c = tt.c_sum([b, rand_constraint(rng)])
        if tt.covers(c, b) and tt.covers(b, a):
            assert tt.covers(c, a)


def test_cover_dim_implications():
    assert tt.covers(inh(tt.DimEquals(0, 8)), inh(tt.DimAtLeast(0, 3)))
    assert tt.covers(inh(tt.DimAtLeast(0, 8)), inh(tt.DimAtLeast(0, 3)))
    assert not tt.covers(inh(tt.DimAtLeast(0, 2)), inh(tt.DimAtLeast(0, 3)))
    assert not tt.covers(inh(tt.DimAtLeast(0, 8)), inh(tt.DimEquals(0, 8)))
    # inherit flags must match
    assert not tt.covers(non(tt.NdimIs(2)), inh(tt.NdimIs(2)))


def test_cover_semantic_soundness():
    rng = random.Random(34)
    checked = 0
    for _ in range(2000):
        c1 = rand_constraint(rng)
        c2 = rand_constraint(rng)
        n = rand_tree(rng, max_depth=2, max_leaves=4).root
        if tt.covers(c1, c2) and tt.satisfies(c1, n):
            assert tt.satisfies(c2, n), (c1, c2)
            checked += 1
    assert checked > 0


def test_equals():
    a = tt.c_sum([inh(tt.NdimIs(2)), inh(tt.DtypeIs("f32"))])
    b = tt.c_sum([inh(tt.DtypeIs("f32")), inh(tt.NdimIs(2))])
    assert tt.equals(a, b)
    assert not tt.equals(a, inh(tt.NdimIs(2)))


def test_inherit_map():
    c = tt.c_sum([inh(tt.NdimIs(1)), non(tt.LeafCountIs(3))])
    assert tt.inherit(c) == inh(tt.NdimIs(1))
    assert tt.inherit(EMPTY) == EMPTY


def test_inherit_idempotent():
    rng = random.Random(35)
    for _ in range(200):
        c = rand_constraint(rng)
        assert tt.inherit(tt.inherit(c)) == tt.inherit(c)


def test_node_atoms_cannot_inherit():
    with pytest.raises(ValueError):
        inh(tt.LeafCountIs(2))
    with pytest.raises(ValueError):
        inh(tt.ShapesEqual((("a",), ("b",))))


# ---------------------------------------------------------------------------
# satisfaction semantics

def test_leaf_atom_semantics():
    t = tt.build_tree({"a": np.zeros((2, 3), dtype=np.float32)})
    n = tt.get(t, ["a"])
    assert tt.satisfies(inh(tt.DtypeIs("f32")), n)
    assert not tt.satisfies(inh(tt.DtypeIs("f64")), n)
    assert tt.satisfies(inh(tt.NdimIs(2)), n)
    assert tt.satisfies(inh(tt.DimEquals(1, 3)), n)
    assert not tt.satisfies(inh(tt.DimEquals(2, 3)), n)
    assert tt.satisfies(inh(tt.DimAtLeast(0, 2)), n)
    assert not tt.satisfies(inh(tt.DimAtLeast(0, 3)), n)
    assert tt.satisfies(inh(tt.DeviceIs("cpu")), n)


def test_inherit_atom_on_tree_node_means_all_descendants():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}})
    assert tt.satisfies(inh(tt.NdimIs(1)), t.root)
    t2 = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros((3, 1))}})
    assert not tt.satisfies(inh(tt.NdimIs(1)), t2.root)


def test_node_atom_semantics():
    t = tt.build_tree({"a": np.zeros((2, 3)), "b": np.zeros((2, 3)),
                       "c": np.zeros((2, 5))})
    n = t.root
    assert tt.satisfies(non(tt.LeafCountIs(3)), n)
    assert not tt.satisfies(non(tt.LeafCountIs(2)), n)
    assert tt.satisfies(non(tt.ShapesEqual((("a",), ("b",)))), n)
    assert not tt.satisfies(non(tt.ShapesEqual((("a",), ("c",)))), n)
    assert tt.satisfies(non(tt.SharedPrefix((("a",), ("c",)), 1)), n)
    assert not tt.satisfies(non(tt.SharedPrefix((("a",), ("c",)), 2)), n)


# ---------------------------------------------------------------------------
# constraint trees: distribution, placement, validation

def test_distribution_pushes_inherited_atoms_down():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}})
    ct = mirror(t.root)
    ct = place(ct, (), inh(tt.DtypeIs("f64")))
    ct = distribute(ct)
    assert ct.child("a").constraint == inh(tt.DtypeIs("f64"))
    assert ct.child("x").child("c").constraint == inh(tt.DtypeIs("f64"))


def test_distribution_drops_noninherited_atoms():
    t = tt.build_tree({"a": np.zeros(2)})
    ct = place(mirror(t.root), (), non(tt.LeafCountIs(1)))
    ct = distribute(ct)
    assert ct.child("a").constraint == EMPTY


def test_distribution_fixpoint():
    rng = random.Random(36)
    for _ in range(100):
        t = rand_tree(rng, max_depth=3, max_leaves=6)
        ct = mirror(t.root)
        paths = [()] + [p for p, _ in tt.leaves(t)]
        for _ in range(rng.randint(0, 3)):
            p = rng.choice(paths)
            ct = place(ct, p[: rng.randint(0, len(p))], rand_constraint(rng))
        once = distribute(ct)
        assert distribute(once) == once


def test_with_constraints_validates():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}})
    ok = t.with_constraints({(): inh(tt.DtypeIs("f64"))})
    assert tt.validate_full(ok) == []
    with pytest.raises(ConstraintViolation):
        t.with_constraints({(): inh(tt.DtypeIs("f32"))})


def test_violation_reports_exact_path():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros((3, 1))}})
    ct = distribute(place(mirror(t.root), (), inh(tt.NdimIs(1))))
    v = violations(t.root, ct)
    assert len(v) == 1
    assert v[0][0] == ("x", "c")


def test_set_respects_constraints():
    t = tt.build_tree({"a": np.zeros(2)}).with_constraints(
        {(): inh(tt.DtypeIs("f64"))}
    )
    t2 = tt.set(t, ["b"], np.zeros(3))
    assert tt.validate_full(t2) == []
    with pytest.raises(ConstraintViolation):
        tt.set(t, ["b"], np.zeros(3, dtype=np.float32))
    # atomic failure: the source tree is untouched and still valid
    assert tt.validate_full(t) == []


def test_remove_keeps_constraints_consistent():
    t = tt.build_tree({"a": np.zeros(2), "b": np.zeros(3)}).with_constraints(
        {(): inh(tt.DtypeIs("f64"))}
    )
    t2 = tt.remove(t, ["b"])
    assert tt.validate_full(t2) == []
    with pytest.raises(ConstraintViolation):
        tt.set(t2, ["c"], np.zeros(1, dtype=np.float32))


def test_constraint_on_missing_path():
    t = tt.build_tree({"a": np.zeros(2)})
    with pytest.raises(tt.errors.PathNotFound):
        t.with_constraints({("zz",): inh(tt.NdimIs(1))})


# ---------------------------------------------------------------------------
# the scaled metric-learning scenario

def metric_tree(L_img=5, L_spk=4):
    return tt.build_tree({
        "obs": {
            "img": np.zeros((8, 4, L_img, 16), dtype=np.float32),
            "spk": np.zeros((8, 4, L_spk, 16), dtype=np.float32),
        }
    })


def metric_placements():
    c_root = tt.c_sum([
        tt.inherit_atom(tt.DtypeIs("f32")),
        tt.inherit_atom(tt.NdimIs(4)),
        tt.inherit_atom(tt.DimEquals(0, 8)),
        tt.inherit_atom(tt.DimEquals(1, 4)),
        tt.inherit_atom(tt.DimEquals(3, 16)),
    ])
    c_len = tt.inherit_atom(tt.DimAtLeast(2, 3))
    return {
        (): c_root,
        ("obs", "img"): c_len,
        ("obs", "spk"): c_len,
    }


def test_metric_scenario_valid():
    t = metric_tree().with_constraints(metric_placements())
    assert tt.validate_full(t) == []


@pytest.mark.parametrize(
    "path,bad",
    [
        (("obs", "img"), np.zeros((8, 4, 5, 16), dtype=np.float64)),  # dtype
        (("obs", "spk"), np.zeros((8, 4, 16), dtype=np.float32)),     # ndim
        (("obs", "img"), np.zeros((8, 4, 2, 16), dtype=np.float32)),  # dim too small
    ],
)
def test_metric_scenario_single_violation(path, bad):
    t = metric_tree().with_constraints(metric_placements())
    broken = tt.TreeTensor(
        tt.set(tt.TreeTensor(t.root), list(path), bad).root, t.constraints
    )
    v = tt.validate_full(broken)
    assert len(v) == 1
    assert v[0][0] == path


@pytest.mark.parametrize("make", [
    lambda: tt.DimEquals(-1, 3),
    lambda: tt.DimEquals(0, -3),
    lambda: tt.DimAtLeast(-1, 2),
    lambda: tt.NdimIs(-2),
    lambda: tt.LeafCountIs(-1),
    lambda: tt.SharedPrefix((("a",), ("b",)), -1),
])
def test_negative_axes_sizes_and_counts_are_rejected(make):
    with pytest.raises(ValueError):
        make()
