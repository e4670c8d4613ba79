"""Differential test of every same-structure zip, map and unzip over trees.

Random trees (empty subtrees, 0-d and zero-size leaves, NaN, inf and -0.0)
go through the library and through a reference that works leaf by leaf with
numpy on the canonical JSON document of the inputs. Results are compared as
canonical `serialize_tree` bytes; failures are compared by error type and
`.path`. Mismatched inputs (a key added or removed, a leaf facing a subtree,
a changed shape) must fail, or broadcast, exactly as the reference says.
"""

import copy
import json
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree.errors import (
    LeafOpError,
    NonBooleanMask,
    StrictKeyMismatch,
    StructureMismatch,
    TailShapeMismatch,
    TensorTreeError,
)

KEYS = ("a", "b", "c")
NP = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "bool": np.bool_}
TAG = {np.dtype(v): k for k, v in NP.items()}
SHAPES = ((), (0,), (1,), (3,), (2, 2), (0, 2), (2, 0))
FLOATS = (0.0, -0.0, 1.0, -2.5, 0.5, 3.0, math.nan, math.inf)
INTS = (-3, -1, 0, 2, 5)

SETTINGS = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
seeds = st.integers(0, 2**32 - 1)
# NaN and inf leaves make numpy warn; the library and the reference alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def skeletons(dtypes=("f32", "f64", "i64"), shapes=SHAPES):
    """Nested dicts whose leaves are (dtype, shape) specs; any dict may be
    empty, the root included."""
    spec = st.tuples(st.sampled_from(dtypes), st.sampled_from(shapes))
    sub = st.recursive(
        spec, lambda s: st.dictionaries(st.sampled_from(KEYS), s, max_size=3), max_leaves=6
    )
    return st.dictionaries(st.sampled_from(KEYS), sub, max_size=3)


# ---------------------------------------------------------------------------
# building inputs


def array(rng, dtype, shape):
    pool = {"i64": INTS, "bool": (False, True)}.get(dtype, FLOATS)
    picks = rng.integers(len(pool), size=math.prod(shape))
    return np.array([pool[i] for i in picks], dtype=NP[dtype]).reshape(shape)


def build(skel, rng, dim0=None, length=None):
    """A tree for a skeleton. Dim 0 of every leaf of ndim >= 1 is redrawn
    from 0..dim0 when `dim0` is given, and set to `length` when that is."""

    def nested(s):
        out = {}
        for k, v in s.items():
            if isinstance(v, dict):
                out[k] = nested(v)
            else:
                dtype, shape = v
                if dim0 is not None and shape:
                    shape = (int(rng.integers(dim0 + 1)),) + shape[1:]
                if length is not None and shape:
                    shape = (length,) + shape[1:]
                out[k] = tt.TensorLeaf(array(rng, dtype, shape))
        return out

    return tt.build_tree(nested(skel))


def spec_leaves(skel, prefix=()):
    for k, v in sorted(skel.items()):
        if isinstance(v, dict):
            yield from spec_leaves(v, prefix + (k,))
        else:
            yield prefix + (k,), v


def has_empty(skel):
    return any(
        isinstance(v, dict) and (not v or has_empty(v)) for v in skel.values()
    )


def as_f64(skel):
    return {
        k: as_f64(v) if isinstance(v, dict) else ("f64", v[1]) for k, v in skel.items()
    }


def at(skel, path):
    for k in path:
        skel = skel[k]
    return skel


def node_paths(skel, prefix=()):
    for k, v in sorted(skel.items()):
        yield prefix + (k,)
        if isinstance(v, dict):
            yield from node_paths(v, prefix + (k,))


def mutate(skel, rnd):
    """A copy of `skel` with one change: a key added or removed, a leaf
    turned into a subtree or back, a leaf reshaped or a subtree emptied."""
    skel = copy.deepcopy(skel)
    paths = list(node_paths(skel))
    kind = rnd.randrange(4)
    if kind == 0 or not paths:
        parents = [()] + [p for p in paths if isinstance(at(skel, p), dict)]
        at(skel, rnd.choice(parents))["d"] = ("f64", (2,))
        return skel
    path = rnd.choice(paths)
    parent, key = at(skel, path[:-1]), path[-1]
    leaf = not isinstance(parent[key], dict)
    if kind == 1:
        del parent[key]
    elif kind == 2:
        parent[key] = {"a": ("f64", (2,))} if leaf else ("f64", (2,))
    else:
        parent[key] = ("f64", (5,)) if leaf else {}
    return skel


# ---------------------------------------------------------------------------
# the reference: numpy per leaf on canonical documents


class Fails(Exception):
    def __init__(self, kind, path=None):
        self.kind, self.path = kind, path


def doc(tree):
    return json.loads(tt.serialize_tree(tree))


def dumps(d):
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def is_leaf(d):
    return d.get("__leaf__") is True


def arr(d):
    return np.array(d["data"], dtype=NP[d["dtype"]]).reshape(d["shape"])


def json_number(x):
    """x as a canonical document writes it: JSON has no NaN or infinity, so
    they are the strings "NaN", "Infinity" and "-Infinity"."""
    if isinstance(x, float) and math.isnan(x):
        return "NaN"
    if isinstance(x, float) and math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return x


def leaf_doc(a, **extra):
    a = np.asarray(a)
    return {"__leaf__": True, "shape": list(a.shape), "dtype": TAG[a.dtype],
            "data": [json_number(x) for x in a.reshape(-1).tolist()], "device": "cpu", **extra}


def map_docs(d, f, path=()):
    """The document with every leaf document replaced by f(path, leaf doc)."""
    if is_leaf(d):
        return f(path, d)
    return {k: map_docs(c, f, path + (k,)) for k, c in d.items()}


def leaf_paths(d):
    out = []
    map_docs(d, lambda p, _: out.append(p))
    return sorted(out)


def at_doc(d, path):
    for k in path:
        d = d[k]
    return d


def skeleton_of(d):
    return map_docs(d, lambda p, _: None)


def ref_zip(docs, fn, path=()):
    """Strict zip: key sets must agree, a value node broadcasts into a
    subtree it faces, and fn (arrays -> array, ValueError on bad leaves)
    runs at each position in depth-first key order."""
    trees = [d for d in docs if not is_leaf(d)]
    if not trees:
        try:
            return leaf_doc(fn([arr(d) for d in docs]))
        except ValueError:
            raise Fails(LeafOpError, path)
    keys = set(trees[0])
    if any(set(t) != keys for t in trees[1:]):
        raise Fails(StrictKeyMismatch, path)
    return {
        k: ref_zip([d if is_leaf(d) else d[k] for d in docs], fn, path + (k,))
        for k in sorted(keys)
    }


def elementwise(f):
    """Leaf rule of the elementwise ops: non-scalar shapes must agree."""

    def fn(xs):
        if len({x.shape for x in xs if x.shape != ()}) > 1:
            raise ValueError("shapes differ")
        return f(*xs)

    return fn


def join(f, axis):
    def fn(xs):
        if len({x.dtype for x in xs}) > 1:
            raise ValueError("dtypes differ")
        return f(xs, axis=axis)

    return fn


REF_EW = {
    "neg": elementwise(np.negative),
    "add": elementwise(lambda x, y: x + y),
    "mulsub": elementwise(lambda x, y, z: x * y - z),
}
ARITY = {"neg": 1, "add": 2, "mulsub": 3}


def canon(x):
    """Library output as comparable data: trees as canonical bytes."""
    if isinstance(x, tt.TreeTensor):
        return tt.serialize_tree(x)
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {k: canon(v) for k, v in x.items()}
    if isinstance(x, tt.PaddedGroup):
        return canon(x.stacked), canon(x.lengths), x.fill
    return x


def outcome(run):
    try:
        return run()
    except (TensorTreeError, Fails) as exc:
        return getattr(exc, "kind", type(exc)), getattr(exc, "path", None)


def lib(run):
    return outcome(lambda: canon(run()))


def ref_tree(run):
    return outcome(lambda: dumps(run()))


def lift(fn_id, trees):
    if fn_id == "neg":
        return tt.lift_unary("neg")(*trees)
    return tt.lift_multi(fn_id)(*trees)


# ---------------------------------------------------------------------------
# elementwise lifting and stack/cat


@SETTINGS
@given(skeletons(), seeds, st.sampled_from(sorted(ARITY)))
def test_strict_elementwise(skel, seed, fn_id):
    rng = np.random.default_rng(seed)
    trees = [build(skel, rng) for _ in range(ARITY[fn_id])]
    want = ref_tree(lambda: ref_zip([doc(t) for t in trees], REF_EW[fn_id]))
    assert lib(lambda: lift(fn_id, trees)) == want
    assert lib(lambda: tt.lift_multi(fn_id)(*trees)) == want


@SETTINGS
@given(skeletons(), seeds, st.integers(1, 3), st.integers(0, 1), st.booleans())
def test_stack_and_cat(skel, seed, k, axis, ragged):
    rng = np.random.default_rng(seed)
    trees = [build(skel, rng, dim0=2 if ragged else None) for _ in range(k)]
    docs = [doc(t) for t in trees]
    assert lib(lambda: tt.lifted_stack(trees, axis)) == ref_tree(
        lambda: ref_zip(docs, join(np.stack, axis))
    )
    assert lib(lambda: tt.lifted_cat(trees, axis)) == ref_tree(
        lambda: ref_zip(docs, join(np.concatenate, axis))
    )


@SETTINGS
@given(skeletons(), seeds, st.sampled_from(["add", "mulsub", "stack", "cat"]))
def test_mismatched_structures(skel, seed, op):
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    skel = as_f64(skel)
    a, b = build(skel, rng), build(mutate(skel, rnd), rng)
    trees = [a, b] if op != "mulsub" else rnd.choice([[a, b, a], [a, a, b], [b, a, a]])
    docs = [doc(t) for t in trees]
    if op in REF_EW:
        got = lib(lambda: tt.lift_multi(op)(*trees))
        want = ref_tree(lambda: ref_zip(docs, REF_EW[op]))
    else:
        join_fn = {"stack": np.stack, "cat": np.concatenate}[op]
        lifted = {"stack": tt.lifted_stack, "cat": tt.lifted_cat}[op]
        got = lib(lambda: lifted(trees))
        want = ref_tree(lambda: ref_zip(docs, join(join_fn, 0)))
    assert got == want


# ---------------------------------------------------------------------------
# split


@SETTINGS
@given(skeletons(), seeds, st.integers(0, 4), st.integers(1, 3))
def test_split(skel, seed, n, chunk):
    assume(not has_empty(skel))
    # every leaf of ndim >= 1 has length n, so the piece counts agree
    t = build(skel, np.random.default_rng(seed), length=n)
    d = doc(t)

    def ref():
        for p, l in tt.leaves(t):
            if l.ndim == 0:
                raise Fails(LeafOpError, p)
        count = -(-n // chunk) if tt.leaves(t) else 0
        return [
            dumps(map_docs(d, lambda p, x: leaf_doc(arr(x)[i * chunk:(i + 1) * chunk])))
            for i in range(count)
        ]

    got = lib(lambda: tt.lifted_split(t, chunk))
    assert got == outcome(ref)
    if isinstance(got, list) and got:
        assert canon(tt.lifted_cat(tt.lifted_split(t, chunk))) == canon(t)


# ---------------------------------------------------------------------------
# subside / rise


def ref_subside(docs, outer_of):
    """outer_of(list) -> the outer container holding the list's items."""

    def sink(path, _):
        parts = [at_doc(d, path) for d in docs]
        arrays = [arr(p) for p in parts]
        if outer_of is list and len({(a.shape, a.dtype) for a in arrays}) == 1:
            return leaf_doc(np.stack(arrays), stacked_seq=True)
        return {"__structured__": True, "payload": outer_of(parts)}

    return map_docs(docs[0], sink)


def outer_map(outer, f):
    if isinstance(outer, list):
        return [outer_map(x, f) for x in outer]
    if isinstance(outer, dict):
        return {k: outer_map(v, f) for k, v in outer.items()}
    return f(outer)


@SETTINGS
@given(skeletons(), seeds, st.integers(1, 3), st.booleans(), st.booleans())
def test_subside_and_rise(skel, seed, k, ragged, nested):
    rng = np.random.default_rng(seed)
    trees = [build(skel, rng, dim0=2 if ragged else None) for _ in range(k)]
    docs = [doc(t) for t in trees]
    if nested:
        outer = {"p": list(trees), "q": trees[0]}
        outer_of = lambda parts: {"p": list(parts[:-1]), "q": parts[-1]}  # noqa: E731
        docs = docs + docs[:1]
    else:
        outer, outer_of = list(trees), list
    sunk = tt.subside(outer)
    assert canon(sunk) == dumps(ref_subside(docs, outer_of))
    risen = tt.rise(sunk)
    if tt.leaves(sunk):
        assert canon(risen) == outer_map(outer, tt.serialize_tree)
    else:
        assert risen is sunk


# ---------------------------------------------------------------------------
# group_pad / unpad


def ref_pad(docs, fill):
    def padded(path, _):
        arrays = [arr(at_doc(d, path)) for d in docs]
        a0 = arrays[0]
        if a0.ndim == 0 or any(
            (a.ndim, a.shape[1:], a.dtype) != (a0.ndim, a0.shape[1:], a0.dtype) for a in arrays
        ):
            raise Fails(TailShapeMismatch, path)
        l_max = max(a.shape[0] for a in arrays)
        return leaf_doc(np.stack([
            np.pad(a, [(0, l_max - a.shape[0])] + [(0, 0)] * (a.ndim - 1),
                   constant_values=fill)
            for a in arrays
        ]))

    def lengths(path, _):
        return leaf_doc(np.array([arr(at_doc(d, path)).shape[0] for d in docs], np.int64))

    return dumps(map_docs(docs[0], padded)), dumps(map_docs(docs[0], lengths)), fill


FILLS = (0.0, -1.5, 2.5, 7, True, math.nan, -math.inf)


@SETTINGS
@given(skeletons(("f32", "f64", "i64", "bool")), seeds, st.integers(1, 3),
       st.sampled_from(FILLS))
def test_group_pad_and_unpad(skel, seed, k, fill):
    if isinstance(fill, float) and not math.isfinite(fill):
        assume(all(dt != "i64" for _, (dt, _) in spec_leaves(skel)))
    rng = np.random.default_rng(seed)
    trees = [build(skel, rng, dim0=3) for _ in range(k)]
    want = outcome(lambda: ref_pad([doc(t) for t in trees], fill))
    assert lib(lambda: tt.group_pad(trees, fill)) == want
    # without a leaf the group does not record its batch size
    if len(want) == 3 and tt.leaves(trees[0]):
        assert canon(tt.unpad(tt.group_pad(trees, fill))) == canon(trees)


# ---------------------------------------------------------------------------
# deep_copy, filter/mask, lifted_shape, structure_equal


@SETTINGS
@given(skeletons(), seeds)
def test_deep_copy(skel, seed):
    t = build(skel, np.random.default_rng(seed))
    out = tt.deep_copy(t)
    assert canon(out) == canon(t)
    for (_, a), (_, b) in zip(tt.leaves(t), tt.leaves(out)):
        assert not np.shares_memory(a.array, b.array)


def ref_filter(d, keep, path=()):
    """Leaves kept by `keep`; a subtree emptied by removal is pruned, one
    that was empty to begin with stays."""
    if is_leaf(d):
        return d if keep[path] else None
    if not d:
        return d
    kept = {}
    for k, c in d.items():
        out = ref_filter(c, keep, path + (k,))
        if out is not None:
            kept[k] = out
    return kept or None


def selector(skel, flag, prefix=()):
    return {
        k: selector(v, flag, prefix + (k,)) if isinstance(v, dict) else flag(prefix + (k,))
        for k, v in skel.items()
    }


@SETTINGS
@given(skeletons(), seeds)
def test_filter_and_mask(skel, seed):
    rng = np.random.default_rng(seed)
    t = build(skel, rng)
    keep = {p: bool(rng.integers(2)) for p, _ in tt.leaves(t)}
    want = dumps(ref_filter(doc(t), keep) or {})
    assert canon(tt.filter(t, lambda p, _: keep[p])) == want
    sel = tt.build_tree(selector(skel, lambda p: tt.scalar(keep[p], "bool")))
    assert canon(tt.mask(t, sel)) == want


@SETTINGS
@given(skeletons(), seeds)
def test_mismatched_group_pad_subside_and_mask(skel, seed):
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    other = mutate(skel, rnd)
    a, b = build(skel, rng, dim0=3), build(other, rng, dim0=3)
    da, db = doc(a), doc(b)
    if skeleton_of(da) != skeleton_of(db):
        want = StructureMismatch, None
        assert lib(lambda: tt.group_pad([a, b], 0.0)) == want
        assert lib(lambda: tt.subside([a, b])) == want
        sel = tt.build_tree(selector(other, lambda p: tt.scalar(True, "bool")))
        assert lib(lambda: tt.mask(a, sel)) == want
    else:
        assert lib(lambda: tt.group_pad([a, b], 0.0)) == outcome(lambda: ref_pad([da, db], 0.0))
    paths = leaf_paths(da)
    if paths:
        bad = rnd.choice(paths)
        sel = tt.build_tree(selector(
            skel, lambda p: tt.scalar(1.0) if p == bad else tt.scalar(True, "bool")
        ))
        assert lib(lambda: tt.mask(a, sel)) == (NonBooleanMask, None)


def ref_shape(d):
    return map_docs(d, lambda p, x: list(x["shape"]))


@SETTINGS
@given(skeletons(), seeds)
def test_lifted_shape_and_structure_equal(skel, seed):
    rnd = random.Random(seed)
    rng = np.random.default_rng(seed)
    t = build(skel, rng)
    assert tt.lifted_shape(t) == ref_shape(doc(t))
    for other in (skel, mutate(skel, rnd)):
        u = build(other, rng)
        assert tt.structure_equal(t, u) == (skeleton_of(doc(t)) == skeleton_of(doc(u)))
        assert tt.structure_equal(t.root, u.root) == tt.structure_equal(t, u)
