"""Elementwise lifts at batch speed.

- Differential: `leaf.ew_columns` against `ew_nary` row by row, compared
  bitwise (up to the sign and payload of NaN), on NaN, ±inf, -0.0, zero-size leaves and i64 wraparound; every
  fallback case returns None; through `lift_multi`, raw leaves and
  outer/left defaults give what the per-leaf pass gives.
- Batched outputs are read-only, tagged with the output dtype, and view
  one buffer; `copy()` detaches a leaf from it.
- The merge memo and `rebuild`'s paths -> treedef table keep no treedef
  alive, and `rebuild` still drops an empty subtree. A second `rebuild` of
  one structure finds its treedef without building its key, and
  `lift._gather` agrees with a brute-force ancestor search.
- Guard: many-small's neg/add/mulsub/add_outer take the batched path.
"""

import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree import leaf as lf
from tensortree import lift
from tensortree.errors import DivisionByZero, LeafOpError, PathNotFound, TensorTreeError
from tensortree.functional import StackedLeaf, StructuredLeaf

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = settings(
    max_examples=300, derandomize=True, deadline=None, suppress_health_check=list(HealthCheck)
)
# NaN, inf and overflow make numpy warn; the kernel and the reference alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NP = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "bool": np.bool_}
FLOATS = np.array([0.0, -0.0, 1.5, -2.0, 0.5, np.nan, -np.nan, np.inf, -np.inf, 1e300])
INTS = np.array([0, 1, -1, 7, -3, 2**62, 2**63 - 1, -(2**63)], dtype=np.int64)
BIG = lf.BATCH_MAX_ELEMENTS
SHAPES = [(4,), (2, 3), (0,), (3, 0), (2, BIG // 2), (BIG + 1,)]
# how a column's leaves differ from the common dtype/shape/device/type;
# a strided leaf differs only in layout and still batches
ODD = ["dtype", "bool", "shape", "device", "stacked", "structured", "strided"]


def values(rng, dtype, shape):
    if dtype == "bool":
        return np.asarray(rng.integers(2, size=shape), dtype=np.bool_)
    pool = INTS if dtype == "i64" else FLOATS.astype(NP[dtype])
    return np.asarray(pool[rng.integers(len(pool), size=shape)])


def odd_leaf(rng, odd, dtype, shape):
    if odd == "dtype":
        other = [d for d in ("f32", "f64", "i64") if d != dtype][rng.integers(2)]
        return tt.TensorLeaf(values(rng, other, shape))
    if odd == "bool":
        return tt.TensorLeaf(values(rng, "bool", shape))
    if odd == "shape":
        return tt.TensorLeaf(values(rng, dtype, (5,)))
    if odd == "device":
        return tt.TensorLeaf(values(rng, dtype, shape), "gpu0")
    if odd == "strided":  # not C-contiguous once it has two or more elements
        return tt.TensorLeaf(values(rng, dtype, shape + (2,))[..., 0])
    if odd == "stacked":
        return StackedLeaf(values(rng, dtype, shape), "cpu")
    return StructuredLeaf({"x": tt.TensorLeaf(values(rng, dtype, shape))})


def columns(seed, arity, n, dtype, shape, p_scalar, raw, odd):
    """`arity` aligned columns of `n` leaves. A leaf is 0-d with chance
    `p_scalar`; column i < `raw` repeats one leaf; `odd`, if set, puts one
    leaf of that kind somewhere."""
    rng = np.random.default_rng(seed)

    def one():
        return tt.TensorLeaf(values(rng, dtype, () if rng.random() < p_scalar else shape))

    cols = [[one()] * n if i < raw else [one() for _ in range(n)] for i in range(arity)]
    if odd:
        j, i = rng.integers(arity), rng.integers(n)
        cols[j] = list(cols[j])
        cols[j][i] = odd_leaf(rng, odd, dtype, shape)
    return cols


def should_batch(cols) -> bool:
    """The rule ew_columns states: exact TensorLeafs of one dtype (not
    bool) and one device, one shape of ndim >= 1 and 1 to
    BATCH_MAX_ELEMENTS elements, and no row of 0-d leaves only."""
    leaves = [p for c in cols for p in c]
    if any(type(p) is not tt.TensorLeaf for p in leaves):
        return False
    shapes = {p.shape for p in leaves} - {()}
    if {p.dtype for p in leaves} & {"bool"} or len({p.dtype for p in leaves}) != 1:
        return False
    if len({p.device for p in leaves}) != 1 or len(shapes) != 1:
        return False
    return 0 < np.prod(next(iter(shapes))) <= BIG and not any(
        all(p.shape == () for p in row) for row in zip(*cols))


def bits(leaf) -> tuple:
    """Everything a leaf holds, its data as bytes. Where two NaNs meet, IEEE
    754 leaves the sign and payload of the result open, and numpy's loops
    pick them by position in the array (SIMD body or scalar tail), so one
    NaN stands for all; -0.0 and 0.0 stay apart."""
    a = leaf.array
    if a.dtype.kind == "f":
        a = np.where(np.isnan(a), np.nan, a)
    return type(leaf), leaf.dtype, leaf.device, leaf.shape, a.tobytes()


def same(got, want) -> bool:
    return bits(got) == bits(want)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(lf._FNS)),
       st.sampled_from([1] + [2, 3, 8] * 4), st.sampled_from(["f32", "f64", "i64"] * 3 + ["bool"]),
       st.sampled_from(SHAPES[:4] * 3 + SHAPES),
       st.sampled_from([0.0] * 3 + [0.3] * 2 + [1.0]), st.sampled_from([0] * 4 + [1, 2, 3]),
       st.sampled_from([None] * 12 + ODD))
def test_ew_columns_matches_ew_nary_bitwise(seed, fn_id, n, dtype, shape, p_scalar, raw, odd):
    cols = columns(seed, lf.fn_arity(fn_id), n, dtype, shape, p_scalar, raw, odd)
    try:
        want = [lf.ew_nary(fn_id, row) for row in zip(*cols)]
    except (TensorTreeError, AttributeError):
        want = None
    got = lf.ew_columns(fn_id, cols)
    if want is None or not should_batch(cols):
        assert got is None
        return
    assert got is not None and len(got) == n
    assert all(same(g, w) for g, w in zip(got, want))


def test_batched_outputs_are_read_only_views_of_one_buffer_with_the_output_tag():
    t = tt.build_tree({"a": np.arange(4), "b": {"c": np.arange(4) - 9, "d": np.arange(4) * 3}})
    out = tt.lift_unary("exp")(t)
    arrays = [leaf.array for _, leaf in tt.leaves(out)]
    assert {leaf.dtype for _, leaf in tt.leaves(out)} == {"f64"}
    assert not any(a.flags.writeable for a in arrays)

    def buffer(a):
        while a.base is not None:
            a = a.base
        return a

    assert len({id(buffer(a)) for a in arrays}) == 1
    assert not buffer(arrays[0]).flags.writeable
    copied = tt.get(out, ["a"]).copy()
    assert copied == tt.get(out, ["a"]) and buffer(copied.array) is not buffer(arrays[0])
    copies = tt.leaves(tt.deep_copy(out))
    assert all(buffer(leaf.array) is not buffer(arrays[0]) for _, leaf in copies)


def per_leaf(fn_id, policy, args):
    return lift._lift(args, policy, lambda ls: lf.ew_nary(fn_id, ls))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from(["neg", "add", "sub", "div", "mulsub"]),
       st.sampled_from(["strict", "inner", "outer", "left"]), st.sampled_from(["f64", "i64"]),
       st.booleans(), st.booleans())
def test_lifts_match_the_per_leaf_pass(seed, fn_id, kind, dtype, raw_scalar, full_default):
    """Trees missing random keys, a raw leaf in the last argument, and
    defaults 0-d or full: the batched lift gives the per-leaf lift's tree,
    or its error."""
    rng = np.random.default_rng(seed)
    keys = [("a",), ("b", "c"), ("b", "d"), ("e",), ("f", "g", "h")]

    def tree():
        kept = [k for k in keys if rng.random() < 0.8] or keys[:1]
        nested: dict = {}
        for k in kept:
            cur = nested
            for part in k[:-1]:
                cur = cur.setdefault(part, {})
            cur[k[-1]] = values(rng, dtype, () if rng.random() < 0.2 else (3,))
        return tt.build_tree(nested)

    default = None
    if kind in ("outer", "left"):
        default = tt.TensorLeaf(values(rng, dtype, (3,) if full_default else ()))
    policy = tt.MismatchPolicy(kind, default=default)
    arity = lf.fn_arity(fn_id)
    args = [tree() for _ in range(arity)]
    if arity > 1:
        args[-1] = tt.TensorLeaf(values(rng, dtype, () if raw_scalar else (3,)))
    try:
        want = per_leaf(fn_id, policy, args)
    except TensorTreeError as exc:
        with pytest.raises(type(exc)) as got:
            tt.lift_multi(fn_id, policy)(*args)
        assert getattr(got.value, "path", None) == getattr(exc, "path", None)
        return
    got = tt.lift_multi(fn_id, policy)(*args)
    assert got.treedef is want.treedef
    assert all(same(g, w) for (_, g), (_, w) in zip(tt.leaves(got), tt.leaves(want)))


def test_i64_div_by_zero_names_the_first_failing_path():
    ones = np.ones(4, dtype=np.int64)
    zero_at = lambda i: np.where(np.arange(4) == i, 0, ones)  # noqa: E731
    a = tt.build_tree({"a": ones, "b": {"c": ones, "d": ones}, "e": ones})
    b = tt.build_tree({"a": ones, "b": {"c": ones, "d": zero_at(2)}, "e": zero_at(0)})
    with pytest.raises(LeafOpError) as e:
        tt.lift_multi("div")(a, b)
    assert e.value.path == ("b", "d") and isinstance(e.value.cause, DivisionByZero)
    with pytest.raises(LeafOpError) as e:
        tt.lift_multi("div")(a, tt.scalar(0, "i64"))
    assert e.value.path == ("a",) and isinstance(e.value.cause, DivisionByZero)
    # a 0-d zero divisor broadcast onto zero-size leaves must still raise
    empty = tt.build_tree({"a": np.ones(0, dtype=np.int64), "b": np.ones(0, dtype=np.int64)})
    with pytest.raises(LeafOpError) as e:
        tt.lift_multi("div")(empty, tt.build_tree({"a": 1, "b": 0}))
    assert e.value.path == ("b",) and isinstance(e.value.cause, DivisionByZero)


def test_merge_memo_and_paths_table_keep_no_treedef_alive():
    a = tt.build_tree({"memo_x": np.ones(3), "memo_y": {"z": np.ones(3)}})
    b = tt.build_tree({"memo_x": np.ones(3), "memo_w": np.ones(3)})
    outer = tt.MismatchPolicy("outer", default=tt.scalar(0.0))
    out = tt.lift_multi("add", outer)(a, b)
    again = tt.lift_multi("add", outer)(a, b)
    assert again.treedef is out.treedef and again == out
    left = tt.lift_multi("add", tt.MismatchPolicy("left", default=tt.scalar(1.0)))(a, b)
    assert left.treedef is a.treedef
    rebuilt = tt.rebuild(tt.leaves(out))
    assert rebuilt.treedef is out.treedef and rebuilt == out
    merged = weakref.ref(out.treedef)
    del out, again, rebuilt
    gc.collect()
    assert merged() is None  # the memo on a's treedef holds it weakly
    refs = [weakref.ref(t.treedef) for t in (a, b, left)]
    del a, b, left
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_rebuild_drops_an_empty_subtree():
    x = tt.from_array(np.ones(2))
    with_empty = tt.build_tree({"a": x, "e": {}})
    r = tt.rebuild(tt.leaves(with_empty))
    assert r.treedef.key == (("a", None),)
    with pytest.raises(PathNotFound):
        tt.get(r, ["e"])
    plain = tt.build_tree({"a": x})
    tt.leaves(plain)  # its treedef's paths are now known
    assert tt.rebuild(tt.leaves(with_empty)).treedef is plain.treedef
    assert tt.leaves(with_empty)[0][0] == ("a",) and len(with_empty.root) == 2


def test_rebuild_checks_the_paths_of_the_structure_it_looks_up():
    # the table is keyed by leaf count and last path, which these share
    x = tt.from_array(np.ones(2))
    ac = tt.build_tree({"a": x, "c": x})
    tt.leaves(ac)
    bc = tt.rebuild([(("b",), x), (("c",), x)])
    assert bc.treedef.key == (("b", None), ("c", None)) and bc.treedef is not ac.treedef
    assert tt.rebuild(tt.leaves(ac)).treedef is ac.treedef
    assert tt.rebuild([]).treedef.key == ()


def test_a_second_rebuild_of_one_structure_does_not_rebuild_its_key(monkeypatch):
    from tensortree import tree

    built = []
    real = tree._paths_key
    monkeypatch.setattr(tree, "_paths_key", lambda paths, depth: built.append(depth) or real(paths, depth))
    x = tt.from_array(np.ones(2))
    t = tt.build_tree({"rb_a": x, "rb_b": {"c": x, "d": x}})
    r1 = tt.rebuild(tt.leaves(t))
    n = len(built)
    r2 = tt.rebuild(tt.leaves(t))
    assert len(built) == n and r1.treedef is r2.treedef is t.treedef
    with_empty = tt.build_tree({"rb_a": x, "rb_e": {}})
    r1 = tt.rebuild(tt.leaves(with_empty))
    assert tt.leaves(r1) == tt.leaves(with_empty)
    n = len(built)
    r2 = tt.rebuild(tt.leaves(with_empty))
    assert len(built) == n and r2.treedef is r1.treedef and r2.treedef.key == (("rb_a", None),)


def brute_gather(paths, merged_paths):
    """Each merged path's own position in `paths`, else that of its nearest
    ancestor in `paths` (a value node), else len(paths)."""
    def one(p):
        return next((paths.index(p[:j]) for j in range(len(p), 0, -1) if p[:j] in paths),
                    len(paths))
    return [one(p) for p in merged_paths]


_X = np.ones(1)
# nested dicts over three keys: leaves, subtrees and empty subtrees at any depth
structures = st.dictionaries(st.sampled_from("abc"), st.recursive(
    st.just(_X), lambda s: st.dictionaries(st.sampled_from("abc"), s, max_size=3), max_leaves=6),
    max_size=3)


@SETTINGS
@given(structures, structures, st.sampled_from(["inner", "outer", "left"]))
# an own leaf (a), a value-node ancestor (b over b/c), an empty subtree (c over c/d), the default (e)
@example({"a": _X, "b": _X, "c": {}}, {"a": _X, "b": {"c": _X}, "c": {"d": _X}, "e": _X}, "outer")
def test_gather_finds_the_own_leaf_or_the_value_node_ancestor(x, y, kind):
    default = tt.scalar(0.0) if kind != "inner" else None
    tds = [tt.build_tree(x).treedef, tt.build_tree(y).treedef]
    merged, _, mismatch = lift._merged(tds, tt.MismatchPolicy(kind, default=default))
    assert not mismatch
    for td in tds:
        assert lift._gather(td, merged.paths) == brute_gather(list(td.paths), merged.paths)


def test_many_small_elementwise_lifts_take_the_batched_path(monkeypatch):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    b = gen.many_small(1)
    t0, t1, t2 = (tt.build_tree(n) for n in b.nested[:3])
    missing = tt.build_tree(b.missing_nested)
    outer = tt.MismatchPolicy("outer", default=tt.scalar(0.0))
    calls = {"add_outer": (("add", outer), (t0, missing)), "neg": (("neg",), (t0,)),
             "add": (("add",), (t0, t1)), "mulsub": (("mulsub",), (t0, t1, t2))}
    want = {name: per_leaf(make[0], make[-1] if len(make) > 1 else lift.STRICT, args)
            for name, (make, args) in calls.items()}
    monkeypatch.setattr(lf, "ew_nary", lambda *a: pytest.fail("a per-leaf call"))
    for name, (make, args) in calls.items():
        got = tt.lift_multi(*make)(*args)
        assert all(same(g, w) for (_, g), (_, w) in zip(tt.leaves(got), tt.leaves(want[name])))
