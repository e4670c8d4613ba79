"""Constraint checks of packed trees read dtypes, devices and shapes off the
column and make no leaf object.

Each check on a 1024-leaf rectangle and a 1024-leaf segmented tree gives
the result or the error (type, path, constraint) that it gives on the same
tree held as a leaf list, and `validate_full` agrees with the dense
reference of `tests/test_sparse_constraints.py` as well.
"""

import numpy as np
import pytest
from test_sparse_constraints import dense, ref_violations

import tensortree as tt
from tensortree.constraints import _trie, first_violation, sparse
from tensortree.errors import ConstraintViolation
from tensortree.leaf import Column

I = tt.inherit_atom
N = tt.noninherit_atom


def nested(shape_of, dtype):
    """4 x 16 x 16 leaves `g{a}/h{b}/l{c}`, leaf i of shape `shape_of(i)`."""
    out, i = {}, 0
    for a in range(4):
        for b in range(16):
            for c in range(16):
                out.setdefault(f"g{a}", {}).setdefault(f"h{b}", {})[f"l{c}"] = \
                    np.arange(np.prod(shape_of(i)), dtype=dtype).reshape(shape_of(i))
                i += 1
    return out


def leaves_of(doc):
    return {k: leaves_of(v) for k, v in doc.items()} if isinstance(doc, dict) else tt.from_array(doc)


def pair(kind, dtype=np.float64):
    """(packed tree, the same tree held as a leaf list)."""
    shape_of = (lambda i: (3,)) if kind == "rectangle" else (lambda i: (1 + i % 5,))
    doc = nested(shape_of, dtype)
    packed, listed = tt.build_tree(doc), tt.build_tree(leaves_of(doc))
    col = packed._flat()[1]
    assert type(col) is Column and (col.shapes is None) == (kind == "rectangle")
    assert type(listed._flat()[1]) is list
    return packed, listed


def made_no_leaves(tree):
    return tree._flat()[1]._leaves is None


def outcome(fn):
    """The constraints of fn's result, or (ConstraintViolation, path,
    constraint) of the violation it raises."""
    try:
        return fn().constraints
    except ConstraintViolation as e:
        return ConstraintViolation, e.path, e.constraint


PLACEMENTS = [
    {(): I(tt.DtypeIs("f64"))},
    {(): tt.c_sum([I(tt.DeviceIs("cpu")), I(tt.NdimIs(1))]), ("g1", "h2"): N(tt.LeafCountIs(16)),
     ("g0", "h0", "l3"): N(tt.DimAtLeast(0, 1))},
    {(): I(tt.DimEquals(0, 3))},  # every segmented row but one in five fails
    {("g3",): I(tt.DeviceIs("gpu"))},
    {("g1",): N(tt.LeafCountIs(5)), ("g2",): I(tt.DimAtLeast(1, 1))},
    {("g0", "h1"): N(tt.ShapesEqual((("l0",), ("l5",)))),
     ("g0", "h2"): N(tt.SharedPrefix((("l1",), ("l2",)), 1))},
    {("g2",): N(tt.DtypeIs("f64")), ("g2", "h0", "l0"): I(tt.DtypeIs("i64"))},
]


@pytest.mark.parametrize("kind", ["rectangle", "segmented"])
@pytest.mark.parametrize("placements", PLACEMENTS)
def test_checks_of_a_packed_tree_make_no_leaves_and_match_its_list_twin(kind, placements):
    packed, listed = pair(kind)
    got = outcome(lambda: packed.with_constraints(placements))
    assert got == outcome(lambda: listed.with_constraints(placements))
    assert made_no_leaves(packed)

    # unchecked, as TreeTensor(root, ct) attaches a trie
    td, col = packed._flat()
    ct = sparse(_trie(placements), td.key)
    unchecked = tt.TreeTensor._of(td, col, ct, False)
    bad = tt.validate_full(unchecked)
    assert bad == tt.validate_full(tt.TreeTensor(listed.root, ct))
    assert bad == ref_violations(listed.root, dense(listed.root, placements))
    assert first_violation(unchecked, ct) == (bad[0] if bad else None)
    assert made_no_leaves(unchecked)
    assert isinstance(got, tuple) == bool(bad)


@pytest.mark.parametrize("kind", ["rectangle", "segmented"])
def test_carry_constraints_of_a_packed_tree_makes_no_leaves(kind):
    placements = {(): I(tt.DtypeIs("f64")), ("g1", "h2"): N(tt.LeafCountIs(16))}
    packed, listed = pair(kind)
    tp, tl = packed.with_constraints(placements), listed.with_constraints(placements)
    out = tt.lift_unary("neg")(tp, carry_constraints=True)
    assert out == tt.lift_unary("neg")(tl, carry_constraints=True)
    assert out.constraints == tp.constraints
    if kind == "rectangle":
        assert made_no_leaves(tp) and made_no_leaves(out)
    else:
        # the lift declines a segmented column and makes its leaves itself;
        # the carried check (first_violation) of the segmented tree makes none
        fresh, _ = pair(kind)
        assert first_violation(fresh, tp.constraints) is None
        assert made_no_leaves(fresh)


def test_a_failed_carry_of_a_packed_tree_names_what_its_list_twin_names():
    placements = {(): I(tt.DtypeIs("i64")), ("g0",): I(tt.NdimIs(1))}
    packed, listed = pair("rectangle", np.int64)
    tp, tl = packed.with_constraints(placements), listed.with_constraints(placements)
    got = outcome(lambda: tt.lift_unary("exp")(tp, carry_constraints=True))
    assert got == outcome(lambda: tt.lift_unary("exp")(tl, carry_constraints=True))
    assert got == (ConstraintViolation, ("g0", "h0", "l0"),
                   tt.c_sum([I(tt.DtypeIs("i64")), I(tt.NdimIs(1))]))
    assert made_no_leaves(tp)
