"""Sparse constraint tries and incremental write checks against the dense
reference (mirror + place + distribute, validated node by node).

The differential property test drives random trees, random placements of
every atom kind and random set/remove sequences through the library and
through the reference, and requires the same accept/reject decisions,
violations, equality and serialized bytes. A tree whose leaves share one
dtype and ndim runs twice: held as a leaf list, and packed into a column by
`build_tree`, whose checks read dtypes and shapes off the column.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree.constraints import _local_ok, sparse
from tensortree.errors import ConstraintViolation
from tensortree.io_formats import _atom_obj
from tensortree.leaf import Column
from tensortree.node import TreeNode, path_to_string

from helpers import distribute, get_node, iter_leaves, mirror, place

KEYS = ("a", "b", "c")
DTYPES = ("f32", "f64", "i64")
SHAPES = ((), (2,), (3,), (2, 2), (2, 3))
NP_DTYPES = {"f32": np.float32, "f64": np.float64, "i64": np.int64}

I = tt.inherit_atom
N = tt.noninherit_atom


# ---------------------------------------------------------------------------
# reference


def dense(root, placements):
    ct = mirror(root)
    for path, c in placements.items():
        ct = place(ct, path, c)
    return distribute(ct)


def ref_violations(node, ct, prefix=()):
    """The node-by-node check over a dense distributed tree."""
    out = [] if _local_ok(ct.constraint, node) else [(prefix, ct.constraint)]
    if isinstance(node, TreeNode):
        for k, child in node.children.items():
            out.extend(ref_violations(child, ct.child(k), prefix + (k,)))
    return out


def ref_bytes(root, ct):
    """Canonical document with every node's constraint read off a dense tree."""
    doc = json.loads(tt.serialize_tree(tt.TreeTensor(root)))
    entries = []

    def walk(ct, prefix):
        by_flag = {}
        for inh, atom in ct.constraint.entries:
            by_flag.setdefault(inh, []).append(atom)
        for inh in sorted(by_flag):
            entries.append({"path": path_to_string(prefix), "inherit": inh,
                            "atoms": [_atom_obj(a) for a in by_flag[inh]]})
        for k, child in ct.children.items():
            walk(child, prefix + (k,))

    walk(ct, ())
    if entries:
        doc["__constraints__"] = entries
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def node_paths(node, prefix=()):
    """Every node path in pre-order, the root's () included."""
    out = [prefix]
    if isinstance(node, TreeNode):
        for k, child in node.children.items():
            out.extend(node_paths(child, prefix + (k,)))
    return out


def after_write(root, placements, path, value):
    """Reference state after a write: the written position keeps its own
    placement and loses those below it; a removal (value None) loses both."""
    plain = tt.TreeTensor(root)
    new = tt.remove(plain, path) if value is None else tt.set(plain, path, value)
    n = len(path)
    kept = {p: c for p, c in placements.items()
            if p[:n] != path or (p == path and value is not None)}
    return new.root, kept


# ---------------------------------------------------------------------------
# strategies
#
# Each scenario draws a palette of one or two dtypes and shapes, so that
# inherited atoms often hold, and most atoms are read off the subtree they
# are placed on; writes then break them at the ancestors and in the
# written subtree often enough to exercise both checks.


def leaves(palette):
    dtypes, shapes = palette
    return st.builds(
        lambda dtype, shape, v: tt.from_array(np.full(shape, v, dtype=NP_DTYPES[dtype])),
        st.sampled_from(dtypes), st.sampled_from(shapes), st.integers(0, 3),
    )


def subtrees(palette):
    return st.recursive(
        leaves(palette), lambda kids: st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
        max_leaves=6,
    )


any_leaf_atoms = st.one_of(
    st.builds(tt.DtypeIs, st.sampled_from(DTYPES)),
    st.builds(tt.NdimIs, st.integers(0, 2)),
    st.builds(tt.DimEquals, st.integers(0, 1), st.integers(1, 3)),
    st.builds(tt.DimAtLeast, st.integers(0, 1), st.integers(1, 3)),
    st.builds(tt.DeviceIs, st.sampled_from(("cpu", "gpu"))),
)


@st.composite
def atoms_at(draw, node):
    """One (inherit flag, atom) entry for a placement on `node`, most often
    one that holds there."""
    pairs = list(iter_leaves(node))
    kind = draw(st.integers(0, 5))
    if kind == 0 or not pairs:
        if draw(st.booleans()):
            return draw(st.booleans()), draw(any_leaf_atoms)
        return False, tt.LeafCountIs(draw(st.integers(0, 3)))
    rel, leaf = draw(st.sampled_from(pairs))
    if kind in (1, 2):
        axes = range(leaf.ndim)
        atom = draw(st.sampled_from(
            [tt.DtypeIs(leaf.dtype), tt.NdimIs(leaf.ndim), tt.DeviceIs("cpu")]
            + [tt.DimEquals(a, leaf.shape[a]) for a in axes]
            + [tt.DimAtLeast(a, max(0, leaf.shape[a] - 1)) for a in axes]
        ))
        # a non-inheriting leaf atom holds only on a value node
        return isinstance(node, TreeNode) or draw(st.booleans()), atom
    if kind == 3:
        return False, tt.LeafCountIs(len(pairs))
    same = [p for p, l in pairs if l.shape == leaf.shape]
    paths = (rel,) + tuple(draw(st.lists(st.sampled_from(same), max_size=2)))
    if kind == 4:
        return False, tt.ShapesEqual(paths)
    return False, tt.SharedPrefix(paths, draw(st.integers(0, leaf.ndim)))


PALETTES = st.tuples(st.lists(st.sampled_from(DTYPES), min_size=1, max_size=2),
                     st.lists(st.sampled_from(SHAPES), min_size=1, max_size=2))
# one dtype and two shapes of one ndim: trees that pack, about two in five of them segmented
PACKED_PALETTES = st.tuples(st.sampled_from(DTYPES).map(lambda d: [d]),
                            st.sampled_from([[(2,), (3,)], [(2, 2), (2, 3)]]))


@st.composite
def scenarios(draw, palettes=PALETTES):
    palette = draw(palettes)
    root = tt.build_tree(draw(st.dictionaries(st.sampled_from(KEYS), subtrees(palette),
                                              max_size=3))).root
    paths = node_paths(root)
    # all drawn placements, and the greedy subset of them that holds
    placements, valid = {}, {}
    for _ in range(draw(st.integers(0, 5))):
        path = draw(st.sampled_from(paths))
        c = tt.Constraint(draw(st.lists(atoms_at(get_node(root, path)), min_size=1, max_size=3)))
        placements[path] = tt.c_sum([placements.get(path, tt.EMPTY), c])
        trial = {**valid, path: tt.c_sum([valid.get(path, tt.EMPTY), c])}
        if not ref_violations(root, dense(root, trial)):
            valid = trial
    values = st.one_of(subtrees(palette), leaves((DTYPES, SHAPES)))
    writes = st.tuples(st.integers(0, 10**6), st.integers(0, 3), values)
    return root, placements, valid, draw(st.lists(writes, max_size=8)), packed_twin(root)


def packed_twin(root):
    """`root` built again from plain arrays, so that `build_tree` packs it
    into one column (a rectangle or segmented), or None if it does not: its
    leaves must share one dtype and an ndim >= 1."""
    def arrays(node):
        if isinstance(node, TreeNode):
            return {k: arrays(child) for k, child in node.children.items()}
        return node.array.copy()

    twin = tt.build_tree(arrays(root))
    return twin if type(twin._flat()[1]) is Column else None


def twins(root, packed):
    """(plain tree, attach) for the tree held as a leaf list and, if there
    is one, its packed twin; `attach(ct)` gives the tree carrying `ct`
    unchecked, as `TreeTensor(root, ct)` does, in the same leaf storage."""
    out = [(tt.TreeTensor(root), lambda ct: tt.TreeTensor(root, ct))]
    if packed is not None:
        td, leaves = packed._flat()
        out.append((packed, lambda ct: tt.TreeTensor._of(td, leaves, sparse(ct, td.key), False)))
    return out


def pick_write(root, choice, kind, value):
    """A write against root: set at any node (root included) or at a new
    child of a tree node, or remove any non-root node."""
    paths = node_paths(root)
    if kind == 0 and len(paths) > 1:
        return paths[1:][choice % (len(paths) - 1)], None
    path = paths[choice % len(paths)]
    if kind == 1 and isinstance(tt.get(tt.TreeTensor(root), path), TreeNode):
        path = path + ("new",)
    if not path and not isinstance(value, dict):
        value = {"a": value}
    return path, value


# ---------------------------------------------------------------------------
# the differential test


def assert_matches(lib, root, placements):
    ct = dense(root, placements)
    assert lib.root == root
    assert tt.validate_full(lib) == ref_violations(root, ct)
    assert tt.serialize_tree(lib) == ref_bytes(root, ct)
    assert lib == tt.TreeTensor(root, ct)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_incremental_writes_match_the_dense_reference(scenario):
    root, placements, valid, writes, packed = scenario
    for plain, attach in twins(root, packed):
        run_scenario(plain, attach, root, placements, valid, writes)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(PACKED_PALETTES))
def test_packed_trees_match_the_dense_reference(scenario):
    root, placements, valid, writes, packed = scenario
    assume(packed is not None)  # a tree without leaves does not pack
    for plain, attach in twins(root, packed)[1:]:
        run_scenario(plain, attach, root, placements, valid, writes)


def run_scenario(plain, attach, root, placements, valid, writes):
    ct = dense(root, placements)
    bad = ref_violations(root, ct)
    if bad:
        with pytest.raises(ConstraintViolation) as exc:
            plain.with_constraints(placements)
        assert (exc.value.path, exc.value.constraint) == bad[0]
    checked = plain.with_constraints(valid)
    assert_matches(checked, root, valid)
    # built from a dense tree: not checked, so its first write checks in full
    unchecked = attach(ct)
    assert_matches(unchecked, root, placements)
    libs = {"checked": checked, "unchecked": unchecked}
    states = {"checked": (root, valid), "unchecked": (root, placements)}
    for choice, kind, value in writes:
        for name, lib in libs.items():
            root, placements = states[name]
            path, val = pick_write(root, choice, kind, value)
            new_root, new_placements = after_write(root, placements, path, val)
            bad = ref_violations(new_root, dense(new_root, new_placements))
            before = tt.serialize_tree(lib)
            if bad:
                with pytest.raises(ConstraintViolation) as exc:
                    tt.remove(lib, path) if val is None else tt.set(lib, path, val)
                assert (exc.value.path, exc.value.constraint) == bad[0]
                assert tt.serialize_tree(lib) == before  # the source is untouched
                continue
            out = tt.remove(lib, path) if val is None else tt.set(lib, path, val)
            assert_matches(out, new_root, new_placements)
            same = root == new_root and dense(root, placements) == dense(new_root, new_placements)
            assert (out == lib) == same
            assert out == tt.TreeTensor(new_root).with_constraints(new_placements)
            libs[name], states[name] = out, (new_root, new_placements)


# ---------------------------------------------------------------------------
# fixed regressions


def test_redundant_placement_gives_an_equal_tree_and_equal_bytes():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}})
    one = t.with_constraints({(): I(tt.DtypeIs("f64"))})
    two = t.with_constraints({(): I(tt.DtypeIs("f64")), ("x", "c"): I(tt.DtypeIs("f64"))})
    assert one == two
    assert tt.serialize_tree(one) == tt.serialize_tree(two)


def test_serialized_constraints_golden():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3)}}).with_constraints(
        {(): I(tt.DtypeIs("f64")), ("x",): N(tt.LeafCountIs(1))}
    )
    got = json.loads(tt.serialize_tree(t))["__constraints__"]
    assert json.dumps(got, sort_keys=True, separators=(",", ":")) == (
        '[{"atoms":[{"kind":"dtype","value":"f64"}],"inherit":true,"path":""},'
        '{"atoms":[{"kind":"dtype","value":"f64"}],"inherit":true,"path":"a"},'
        '{"atoms":[{"kind":"leaf_count","value":1}],"inherit":false,"path":"x"},'
        '{"atoms":[{"kind":"dtype","value":"f64"}],"inherit":true,"path":"x"},'
        '{"atoms":[{"kind":"dtype","value":"f64"}],"inherit":true,"path":"x/c"}]'
    )


def test_trie_holds_only_the_placements():
    t = tt.build_tree({"a": np.zeros(2), "x": {"c": np.zeros(3), "d": np.zeros(1)}})
    tc = t.with_constraints({(): I(tt.DtypeIs("f64")), ("x", "c"): N(tt.NdimIs(1))})
    assert tc.constraints == tt.ConstraintTree(
        I(tt.DtypeIs("f64")),
        {"x": tt.ConstraintTree(tt.EMPTY, {"c": tt.ConstraintTree(N(tt.NdimIs(1)))})},
    )


def test_first_write_to_an_unchecked_tree_checks_everything():
    t = tt.build_tree({"a": np.zeros(2), "b": np.zeros(2, dtype=np.float32)})
    ct = dense(t.root, {(): I(tt.DtypeIs("f64"))})
    unchecked = tt.TreeTensor(t.root, ct)
    with pytest.raises(ConstraintViolation) as exc:
        tt.set(unchecked, ["c"], np.zeros(1))
    assert exc.value.path == ("b",)
    fixed = tt.set(unchecked, ["b"], np.zeros(1))
    assert tt.validate_full(fixed) == []


def test_lift_unary_carry_constraints_revalidates():
    t = tt.build_tree({"a": np.arange(3, dtype=np.int64)}).with_constraints(
        {(): I(tt.DtypeIs("i64"))}
    )
    with pytest.raises(ConstraintViolation) as exc:
        tt.lift_unary("exp")(t, carry_constraints=True)
    assert (exc.value.path, exc.value.constraint) == (("a",), I(tt.DtypeIs("i64")))
    kept = tt.lift_unary("neg")(t, carry_constraints=True)
    assert kept.constraints == t.constraints
    assert tt.validate_full(kept) == []


def test_a_leaf_on_another_device_fails_beside_leaves_of_its_dtype_and_shape():
    def on(device):
        return tt.TensorLeaf(np.zeros(2), device=device)

    t = tt.build_tree({"a": on("gpu"), "b": on("cpu"), "c": on("gpu"), "d": on("cpu")})
    c = I(tt.DeviceIs("cpu"))
    assert tt.validate_full(tt.TreeTensor(t.root, tt.ConstraintTree(c))) == [(("a",), c), (("c",), c)]
    with pytest.raises(ConstraintViolation) as exc:
        t.with_constraints({(): I(tt.DeviceIs("gpu"))})
    assert exc.value.path == ("b",)
    assert not tt.satisfies(N(tt.DeviceIs("cpu")), on("gpu"))


def test_a_write_checks_only_the_positions_on_its_path_and_under_it():
    # `_of(..., checked=True)` vouches for the tree as a constrained write's
    # result does, so a write never looks at `b`, which breaks the root's atom
    t = tt.build_tree({"a": np.zeros(2), "b": np.zeros(2, dtype=np.float32),
                       "x": {"c": np.zeros(3)}})
    ct = sparse(tt.ConstraintTree(I(tt.DtypeIs("f64")),
                                  {"x": tt.ConstraintTree(N(tt.LeafCountIs(1)))}), t.treedef.key)
    vouched = tt.TreeTensor._of(*t._flat(), ct, True)
    assert tt.validate_full(tt.set(vouched, ["a"], np.ones(2))) == [(("b",), I(tt.DtypeIs("f64")))]
    with pytest.raises(ConstraintViolation) as exc:
        tt.set(vouched, ["x", "d"], np.zeros(1))  # the ancestor's node atom
    assert (exc.value.path, exc.value.constraint) == (
        ("x",), tt.c_sum([I(tt.DtypeIs("f64")), N(tt.LeafCountIs(1))]))
    with pytest.raises(ConstraintViolation) as exc:
        tt.set(vouched, ["x", "c"], np.zeros(3, dtype=np.float32))  # an inherited atom
    assert (exc.value.path, exc.value.constraint) == (("x", "c"), I(tt.DtypeIs("f64")))
