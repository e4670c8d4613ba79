"""The batched axis-0 stack behind lifted_stack and subside, and the
per-column cat beside it.

Batches of same-structure trees mix f32/f64/i64/bool leaves, 0-d and
zero-size leaves, non-contiguous leaves (pieces of a split along axis 1),
devices, and StackedLeaf and StructuredLeaf payloads; some batches carry one
bad column (a changed dtype, dim 0 or tail, or a StructuredLeaf). Outputs
are compared bit for bit with numpy joining each column on its own;
failures are compared by type and `.path` with the per-column path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree import leaf as _lf
from tensortree.functional import StackedLeaf, StructuredLeaf
from tensortree.lift import STRICT, _lift
from tensortree.node import ValueNode, flatten

KEYS = ("a", "b", "c")
NP = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "bool": np.bool_}
SHAPES = ((), (0,), (1,), (3,), (2, 2), (0, 2), (2, 0), (2, 3), (3, 2, 2))
PAYLOADS = ("plain", "strided", "stacked")
BAD = (None, "dtype", "dim0", "tail", "structured")

SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def skeletons():
    spec = st.tuples(st.sampled_from(tuple(NP)), st.sampled_from(SHAPES))
    sub = st.recursive(
        spec, lambda s: st.dictionaries(st.sampled_from(KEYS), s, max_size=3), max_leaves=6
    )
    return st.dictionaries(st.sampled_from(KEYS), sub, max_size=3)


def values(rng, dtype, shape):
    if dtype == "bool":
        return rng.integers(2, size=shape).astype(np.bool_)
    if dtype == "i64":
        return rng.integers(-5, 6, size=shape)
    pool = np.array([0.0, -0.0, 1.5, -2.0, np.nan, np.inf])
    return pool[rng.integers(len(pool), size=shape)].astype(NP[dtype])


def make(rng, dtype, shape):
    """A leaf of one of the PAYLOADS kinds on a random device."""
    kind = PAYLOADS[rng.integers(len(PAYLOADS))]
    device = ("cpu", "gpu0")[rng.integers(2)]
    if kind == "strided" and len(shape) >= 2 and shape[1]:
        wide = values(rng, dtype, (shape[0], 2 * shape[1]) + shape[2:])
        return tt.split(tt.TensorLeaf(wide, device), shape[1], axis=1)[0]
    cls = StackedLeaf if kind == "stacked" else tt.TensorLeaf
    return cls(values(rng, dtype, shape), device)


def leaf_specs(skel, prefix=()):
    for k, v in sorted(skel.items()):
        if isinstance(v, dict):
            yield from leaf_specs(v, prefix + (k,))
        else:
            yield prefix + (k,), v


def batch(skel, k, seed, bad, ragged):
    """k trees of one structure; with `ragged`, dim 0 of each leaf is drawn
    per tree; with `bad`, one leaf of one tree is changed so that its column
    cannot be stacked (nor, for all but dim0, concatenated)."""
    rng = np.random.default_rng(seed)
    specs = list(leaf_specs(skel))
    flats = []
    for _ in range(k):
        flat = {}
        for path, (dtype, shape) in specs:
            if ragged and shape:
                shape = (int(rng.integers(4)),) + shape[1:]
            flat[path] = make(rng, dtype, shape)
        flats.append(flat)
    if bad and specs:
        path, (dtype, shape) = specs[rng.integers(len(specs))]
        flat = flats[rng.integers(k)]
        old = flat[path]
        if bad == "dtype":
            other = {"f32": "f64", "f64": "i64", "i64": "bool", "bool": "f32"}[dtype]
            flat[path] = make(rng, other, old.shape)
        elif bad == "dim0":
            flat[path] = make(rng, dtype, (old.shape[0] + 1,) + old.shape[1:] if old.shape else (1,))
        elif bad == "tail":
            flat[path] = make(rng, dtype, old.shape + (1,))
        else:
            flat[path] = ValueNode(StructuredLeaf([old]))
    return [tt.rebuild(sorted(flat.items())) if flat else tt.build_tree({}) for flat in flats]


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared by type and path
        return exc


def check_joined(out_leaf, column, np_join, cls):
    want = np_join([p.array for p in column])
    got = out_leaf.array
    assert type(out_leaf) is cls and type(got) is np.ndarray
    assert out_leaf.device == column[0].device
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert got.flags.c_contiguous and not got.flags.writeable
    if np_join is np.stack:  # a view into the batch's buffer, which is read-only too
        with pytest.raises(ValueError):
            got.setflags(write=True)
    for p in column:
        assert not np.shares_memory(got, p.array)


@SETTINGS
@given(skeletons(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from(BAD),
       st.booleans())
def test_stack_and_cat_match_numpy_per_column(skel, k, seed, bad, ragged):
    trees = batch(skel, k, seed, bad, ragged)
    columns = list(zip(*(flatten(t.root)[1] for t in trees)))
    for lifted, leaf_join, np_join in (
        (tt.lifted_stack, _lf.stack, np.stack),
        (tt.lifted_cat, _lf.cat, np.concatenate),
    ):
        got = outcome(lambda: lifted(trees, axis=0))
        # the per-column path: the strict fast path without the batch kernel
        want = outcome(lambda: _lift([t.root for t in trees], STRICT, lambda ls: leaf_join(ls, 0)))
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert getattr(got, "path", None) == getattr(want, "path", None)
            continue
        assert not isinstance(got, Exception), got
        out = flatten(got.root)[1]
        assert len(out) == len(columns)
        for o, column in zip(out, columns):
            check_joined(o, column, np_join, tt.TensorLeaf)


@SETTINGS
@given(skeletons(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from(BAD),
       st.booleans())
def test_subside_stacks_each_aligned_column_and_rise_views_it_back(skel, k, seed, bad, ragged):
    trees = batch(skel, k, seed, bad, ragged)
    columns = list(zip(*(flatten(t.root)[1] for t in trees)))
    s = tt.subside(trees)
    out = flatten(s.root)[1]
    assert len(out) == len(columns)
    aligned = True
    for o, column in zip(out, columns):
        f0 = column[0]
        if all(
            isinstance(p, tt.TensorLeaf) and p.dtype == f0.dtype and p.shape == f0.shape
            for p in column
        ):
            check_joined(o, column, np.stack, StackedLeaf)
        else:
            aligned = False
            assert isinstance(o, StructuredLeaf)
            assert all(a is b for a, b in zip(o.payload, column))
    if not aligned or not columns:
        return
    risen = tt.rise(s)
    assert len(risen) == k
    for tree, column_row in zip(risen, zip(*columns)):
        # a component takes its stacked leaf's device, the first tree's
        for r, p, o in zip(flatten(tree.root)[1], column_row, out):
            a = r.array
            assert type(r) is tt.TensorLeaf and r.device == o.device
            assert type(a) is np.ndarray  # a 0-d row stays an array, not a numpy scalar
            assert (a.dtype, a.shape, a.tobytes()) == (p.array.dtype, p.shape, p.array.tobytes())
            assert not a.flags.writeable
            # a view of its stacked leaf (a zero-size one has no element to share)
            assert a.size == 0 or np.shares_memory(a, o.array)
