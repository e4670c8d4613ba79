"""Packed trees: a tree of uniform small leaves holds one buffer (a
`leaf.Column`) and makes its leaf objects on first access.

- Differential: every public operation gives the same result on a packed
  tree as on the same tree built from `TensorLeaf` values, which stays a
  list: structure, dtype, shape, bits, device, leaf class and read-only
  flag, or the same error at the same path. Trees are random uniform
  small-leaf trees with empty subtrees, NaN and -0.0 values, 0-d defaults
  under the outer policy, and packed trees of `StackedLeaf`s.
- Isolation: `build_tree` copies, so writing the caller's arrays later
  leaves the tree as it was.
- Allocation: a build, neg, split, subside, rise chain on a packed tree
  adds a number of tracked objects that grows with the trees it makes, not
  with their leaves.
"""

import gc
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree.leaf import BATCH_MAX_ELEMENTS, Column

SETTINGS = settings(
    max_examples=150, derandomize=True, database=None, deadline=None,
    suppress_health_check=list(HealthCheck),
)
# NaN, inf and overflow make numpy warn, on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NP = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "bool": np.bool_}
FLOATS = [0.0, -0.0, 1.5, -2.0, 3.0, np.nan, np.inf, -np.inf]
INTS = [0, 1, -1, 7, -3, 2**62]
SHAPES = [(1,), (3,), (2, 3), (4, 4), (BATCH_MAX_ELEMENTS,)]

skeletons = st.dictionaries(
    st.sampled_from("abcd"),
    st.recursive(st.just(None), lambda kids: st.dictionaries(st.sampled_from("abcd"), kids,
                                                             max_size=3), max_leaves=8),
    min_size=1, max_size=3,
)


def fill(skel, value, path=()):
    """The nested dicts of a skeleton with value(path) at each None."""
    return {k: value(path + (k,)) if s is None else fill(s, value, path + (k,))
            for k, s in skel.items()}


def paths(skel, path=()):
    for k, s in skel.items():
        yield from [path + (k,)] if s is None else paths(s, path + (k,))


def values(rng, dtype, shape):
    if dtype == "bool":
        return rng.integers(2, size=shape).astype(np.bool_)
    pool = np.asarray(INTS if dtype == "i64" else FLOATS, dtype=NP[dtype])
    return pool[rng.integers(len(pool), size=shape)]


def bits(leaf) -> tuple:
    """All a leaf holds. One NaN stands for all: where NaNs meet, numpy's
    loops pick the sign and payload of the result by position in the
    array. -0.0 and 0.0 stay apart."""
    if not isinstance(leaf, tt.TensorLeaf):
        return type(leaf), repr(leaf)
    a = leaf.array
    data = np.where(np.isnan(a), np.nan, a) if a.dtype.kind == "f" else a
    return (type(leaf), leaf.dtype, leaf.device, a.shape, a.dtype.str, a.flags.writeable,
            data.tobytes())


def canon(x):
    """An operation's result in comparable form."""
    if isinstance(x, BaseException):
        return "raises", type(x), getattr(x, "path", None)
    if isinstance(x, tt.TreeTensor):
        return "tree", x.treedef.key, [bits(l) for _, l in tt.leaves(x)], x.constraints
    if isinstance(x, tt.TensorLeaf):
        return bits(x)
    if isinstance(x, (list, tuple)):
        return [canon(y) for y in x]
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    return x


def outcome(fn):
    try:
        return canon(fn())
    except Exception as exc:  # noqa: BLE001 - compared by type and path
        return canon(exc)


def ops(t0, t1, t2, alt, other, sel, dtype, leaf_paths):
    """Every public operation over a family of three trees of one structure,
    a tree of that structure in another dtype, a tree of another structure
    and a bool selector, by name."""
    outer = tt.MismatchPolicy("outer", default=tt.scalar(0, dtype))  # a 0-d default broadcasts
    p = leaf_paths[0] if leaf_paths else ("a",)
    s = tt.subside([t0, t1, t2])
    out = {
        "build": lambda: t0,
        "subside": lambda: s,
        "rise": lambda: tt.rise(s),
        "subside_nested": lambda: tt.subside({"x": [t0, t1], "y": t2}),
        "stack": lambda: tt.lifted_stack([t0, t1, t2]),
        "stack_1": lambda: tt.lifted_stack([t0, t1, t2], axis=1),
        "cat": lambda: tt.lifted_cat([t0, t1, t2]),
        "cat_1": lambda: tt.lifted_cat([t0, t1], axis=1),
        "split": lambda: tt.lifted_split(t0, 2),
        "split_1": lambda: tt.lifted_split(t0, 2, axis=1),
        "split_cat": lambda: tt.lifted_split(tt.lifted_cat([t0, t1, t2]), 1),
        "shape": lambda: tt.lifted_shape(t0),
        "neg": lambda: tt.lift_unary("neg")(t0),
        "exp": lambda: tt.lift_unary("exp")(t0),
        "neg_neg": lambda: tt.lift_unary("neg")(tt.lift_unary("neg")(t0)),
        "add": lambda: tt.lift_multi("add")(t0, t1),
        "div": lambda: tt.lift_multi("div")(t0, t1),
        "mulsub": lambda: tt.lift_multi("mulsub")(t0, t1, t2),
        "add_raw": lambda: tt.lift_multi("add")(t0, tt.scalar(1, dtype)),
        "add_mixed": lambda: tt.lift_multi("add")(t0, alt),
        "stack_mixed": lambda: tt.lifted_stack([t0, alt]),
        "add_strict_mismatch": lambda: tt.lift_multi("add")(t0, other),
        "add_outer": lambda: tt.lift_multi("add", outer)(t0, other),
        "filter": lambda: tt.filter(t0, lambda q, _: len("".join(q)) % 2 == 0),
        "filter_all": lambda: tt.filter(t0, lambda q, _: True),
        "mask": lambda: tt.mask(t0, sel),
        "set": lambda: tt.set(t0, p, tt.from_array(np.zeros(3))),
        "set_sub": lambda: tt.set(t0, p, {"q": np.ones(2), "r": {}}),
        "remove": lambda: tt.remove(t0, p),
        "leaves": lambda: tt.leaves(t0),
        "rebuild": lambda: tt.rebuild(tt.leaves(t0)),
        "get": lambda: [tt.get(t0, q) for q in leaf_paths],
        "eq": lambda: (t0 == t0, t0 == t1, t0 == tt.TreeTensor(t0.root)),
        "hash": lambda: hash(t0.root),
        "pickle": lambda: pickle.loads(pickle.dumps(t0)),
        "serialize": lambda: tt.serialize_tree(t0),
        "round_trip": lambda: tt.parse_tree(tt.serialize_tree(t0)),
        "deep_copy": lambda: tt.deep_copy(t0),
        "constrained": lambda: t0.with_constraints({(): tt.inherit_atom(tt.DtypeIs(dtype))}),
        "violated": lambda: t0.with_constraints({(): tt.inherit_atom(tt.NdimIs(7))}),
        "reduce": lambda: tt.reduce(t0, lambda n, _: n + 1, 0),
    }
    return {name: outcome(fn) for name, fn in out.items()}


def family(skel, seed, dtype, shape):
    """Three trees of one skeleton as arrays, one more in another dtype,
    plus a tree of another skeleton."""
    rng = np.random.default_rng(seed)
    alt = "i64" if dtype == "f32" else "f32"
    arrays = [fill(skel, lambda _: values(rng, d, shape)) for d in (dtype, dtype, dtype, alt)]
    other = fill(skel, lambda _: values(rng, dtype, shape))
    first = next(paths(skel), None)
    if first is not None:  # one leaf missing, another added
        cur = other
        for k in first[:-1]:
            cur = cur[k]
        del cur[first[-1]]
    other["zz"] = values(rng, dtype, shape)
    return arrays, other


def as_leaves(nested):
    """The same values as TensorLeafs, which build_tree keeps as a list."""
    return {k: as_leaves(v) if isinstance(v, dict) else tt.TensorLeaf(v.copy())
            for k, v in nested.items()}


def check_storage(tree, packed: bool):
    assert type(tree._flat()[1]) is (Column if packed else list)


@SETTINGS
@given(skeletons, st.integers(0, 2**32 - 1), st.sampled_from(["f32", "f64", "i64", "bool"]),
       st.sampled_from(SHAPES))
def test_packed_and_list_backed_trees_agree_on_every_operation(skel, seed, dtype, shape):
    arrays, other = family(skel, seed, dtype, shape)
    leaf_paths = sorted(paths(skel))
    sel = tt.build_tree(fill(skel, lambda q: tt.scalar(len(q) % 2 == 0, "bool")))
    packed = [tt.build_tree(a) for a in arrays]
    listed = [tt.build_tree(as_leaves(a)) for a in arrays]
    for t in packed:
        check_storage(t, packed=bool(leaf_paths))
    for t in listed:
        check_storage(t, packed=False)
    want = ops(*listed, tt.build_tree(as_leaves(other)), sel, dtype, leaf_paths)
    got = ops(*packed, tt.build_tree(other), sel, dtype, leaf_paths)
    for name in want:
        assert got[name] == want[name], name
    # the packed tree reads its leaves once, then gives the same objects
    t = tt.build_tree(arrays[0])
    assert all(tt.get(t, q) is tt.get(t, q) is leaf for q, (_, leaf) in zip(leaf_paths, tt.leaves(t)))
    assert t == listed[0] and listed[0] == t and hash(t.root) == hash(listed[0].root)

    if not leaf_paths:
        return
    # packed trees of StackedLeafs against the same StackedLeafs in a list
    stacked = [tt.subside([packed[i], packed[(i + 1) % 3], packed[(i + 2) % 3]]) for i in range(3)]
    for s in stacked:
        check_storage(s, packed=True)
        assert all(type(leaf) is tt.StackedLeaf for _, leaf in tt.leaves(s))

    def stacked_leaves(i):
        order = [arrays[i], arrays[(i + 1) % 3], arrays[(i + 2) % 3]]

        def at(q):
            parts = []
            for a in order:
                for k in q:
                    a = a[k]
                parts.append(a)
            return tt.StackedLeaf(np.stack(parts))

        return tt.build_tree(fill(skel, at))

    listed_stacked = [stacked_leaves(i) for i in range(3)]
    for s in listed_stacked:
        check_storage(s, packed=False)
    other_s = tt.build_tree(as_leaves(other))
    alt_listed = tt.TreeTensor(tt.subside([packed[3]] * 3).root)
    want = ops(*listed_stacked, alt_listed, other_s, sel, dtype, leaf_paths)
    got = ops(*stacked, tt.subside([packed[3]] * 3), other_s, sel, dtype, leaf_paths)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("dtype", ["f64", "i64", "bool"])
def test_writing_the_source_arrays_after_build_leaves_the_tree_unchanged(dtype):
    rng = np.random.default_rng(3)
    nested = {"a": values(rng, dtype, (4,)), "x": {"b": values(rng, dtype, (4,)), "e": {}}}
    want = canon(tt.build_tree(as_leaves(nested)))
    t = tt.build_tree(nested)
    check_storage(t, packed=True)
    for a in (nested["a"], nested["x"]["b"]):
        assert a.flags.writeable  # the caller's arrays stay the caller's
        a[...] = ~a if dtype == "bool" else a + 1
    assert canon(t) == want


def uniform_nested(n_leaves: int, elems: int) -> dict:
    """A two-level dict of n_leaves f64 arrays of `elems` elements."""
    groups: dict = {}
    for i in range(n_leaves):
        groups.setdefault(f"g{i // 16}", {})[f"k{i % 16}"] = np.arange(float(elems)) + i
    return groups


def test_a_packed_chain_tracks_objects_per_tree_not_per_leaf():
    nested = uniform_nested(256, 16)

    def chain():
        pieces = tt.lifted_split(tt.lift_unary("neg")(tt.build_tree(nested)), 4)
        return tt.rise(tt.subside(pieces))

    kept = chain()  # the structure is interned and its paths known from here on
    assert len(kept) == 4 and len(tt.leaves(kept[0])) == 256
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        out = chain()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    # 4 + 1 + 4 + 1 trees and their columns; a leaf object per leaf would add 256 or more
    assert added < 64, added
    assert canon(out) == canon(kept)
