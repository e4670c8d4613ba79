"""group_pad and unpad on ragged batches of small uniform leaves.

- Differential: on random ragged batches, `group_pad` gives the same
  stacked and lengths bits as a per-leaf numpy reference, or the same error
  type and path, and `unpad` of the result gives the input back. Batches
  cover k of 1-4, every dtype, tails () and (2, 3), empty parts, parts with
  nothing to pad, parts at and above BATCH_MAX_ELEMENTS elements, fills
  that numpy casts in odd ways, and one part that is unlike the others (a
  dtype, device or tail of its own, a 0-d part, a `StructuredLeaf`, a
  `StackedLeaf`, or a part that is not C-contiguous).
- Corrupt groups: `unpad` gives the same trees, or raises the same error
  with the same message, whether the lengths tree is packed (a
  `leaf.Column`) or a leaf list. The corruptions are negative lengths,
  lengths above the padded length, a wrong batch size, f64 lengths, a
  stacked leaf without a length dimension and another structure.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree.errors import (
    CorruptLengths,
    DtypeUnsupported,
    LeafOpError,
    StructureMismatch,
    TailShapeMismatch,
)
from tensortree.functional import StructuredLeaf
from tensortree.leaf import BATCH_MAX_ELEMENTS, Column

SETTINGS = settings(
    max_examples=200, derandomize=True, database=None, deadline=None,
    suppress_health_check=list(HealthCheck),
)
# NaN and infinities cast to bool or i64 make numpy warn, on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

NP = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "bool": np.bool_}
FILLS = [0, -0.0, float("nan"), float("inf"), -float("inf"), 2.7, True, 2**63, -(2**63)]
TAILS = [(), (2, 3)]
BREAKS = [None, "dtype", "device", "tail", "0d", "structured", "stacked", "strided"]


def leaf_path(i):
    return ("g", f"x{i}") if i % 2 else (f"x{i}",)


def values(rng, dtype, shape):
    if dtype == "bool":
        return rng.integers(2, size=shape).astype(np.bool_)
    if dtype == "i64":
        return rng.integers(-(2**62), 2**62, size=shape)
    pool = np.asarray([0.0, -0.0, 1.5, -2.25, np.nan, np.inf], dtype=NP[dtype])
    return pool[rng.integers(len(pool), size=shape)]


def lengths_for(rng, mode, k, tail):
    """k axis-0 lengths: ragged, all equal (nothing to pad), or ragged with
    one part at or just above BATCH_MAX_ELEMENTS elements."""
    cap = BATCH_MAX_ELEMENTS // int(np.prod(tail))  # the longest part of at most 64 elements
    if mode == "equal":
        return [int(rng.integers(0, 6))] * k
    lens = [int(x) for x in rng.integers(0, 6, size=k)]
    if mode == "large":
        lens[int(rng.integers(k))] = cap + int(rng.integers(2))
    return lens


def ragged_batch(seed, k, n_leaves, dtype, tail, modes, brk):
    """k trees of n_leaves leaves each, one part replaced as `brk` says."""
    rng = np.random.default_rng(seed)
    table = [[tt.TensorLeaf(values(rng, dtype, (n,) + tail)) for n in lengths_for(rng, m, k, tail)]
             for m in modes]  # table[leaf][tree]
    if brk and n_leaves:
        i, r = int(rng.integers(n_leaves)), int(rng.integers(k))
        a = table[i][r].array
        table[i][r] = {
            "dtype": lambda: tt.TensorLeaf(a.astype(np.float32 if dtype != "f32" else np.float64)),
            "device": lambda: tt.TensorLeaf(a.copy(), device="gpu"),
            "tail": lambda: tt.TensorLeaf(values(rng, dtype, (len(a), 4))),
            "0d": lambda: tt.TensorLeaf(values(rng, dtype, ())),
            "structured": lambda: StructuredLeaf([tt.TensorLeaf(a.copy())]),
            "stacked": lambda: tt.StackedLeaf(a.copy()),
            "strided": lambda: tt.TensorLeaf(np.stack([a, a], axis=-1)[..., 0]),  # not C-contiguous
        }[brk]()
    return [tt.rebuild([(leaf_path(i), table[i][r]) for i in range(n_leaves)]) for r in range(k)]


def reference_pad(trees, fill):
    """The per-leaf rule: (path, stacked array, lengths, device) per leaf,
    or the error group_pad raises."""
    cols = [[leaf for _, leaf in tt.leaves(t)] for t in trees]
    out = []
    for (path, _), parts in zip(tt.leaves(trees[0]), zip(*cols)):
        first = parts[0]
        for p in parts:
            if not isinstance(p, tt.TensorLeaf):
                return LeafOpError, path
            if p.ndim == 0 or p.shape[1:] != first.shape[1:] or p.dtype != first.dtype:
                return TailShapeMismatch, path
        lens = [p.shape[0] for p in parts]
        shape = (len(parts), max(lens)) + first.shape[1:]
        if min(lens) != max(lens) and first.dtype == "i64" and not -(2**63) <= fill < 2**63:
            return LeafOpError, path
        if min(lens) == max(lens):  # nothing to pad: the fill is never cast
            stacked = np.empty(shape, NP[first.dtype])
        else:
            try:
                stacked = np.full(shape, fill, NP[first.dtype])
            except OverflowError:  # 2**63 in a bool leaf: numpy's own error, with no path
                return OverflowError, None
        for row, p in zip(stacked, parts):
            row[: p.shape[0]] = p.array
        out.append((path, stacked, np.asarray(lens, np.int64), first.device))
    return out


def bits(leaf):
    """All a leaf holds; one NaN stands for all."""
    a = leaf.array
    data = np.where(np.isnan(a), np.nan, a) if a.dtype.kind == "f" else a
    return type(leaf), leaf.dtype, leaf.device, a.shape, a.dtype.str, a.flags.writeable, data.tobytes()


def want_bits(array, device):
    return bits(tt.TensorLeaf(array.copy(), device=device))


def outcome(fn):
    """unpad's trees as leaf bits, or its error's type, path and text."""
    try:
        trees = fn()
    except Exception as exc:  # noqa: BLE001 - compared by type, path and text
        return type(exc), getattr(exc, "path", None), str(exc)
    return [[(p, bits(leaf)) for p, leaf in tt.leaves(t)] for t in trees]


@pytest.mark.parametrize("brk", BREAKS)
@settings(SETTINGS, max_examples=60)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from([3, 2, 4, 1]), st.sampled_from([3, 1, 5, 2, 4, 0]),
    st.sampled_from(sorted(NP)), st.sampled_from(TAILS),
    st.lists(st.sampled_from(["ragged"] * 4 + ["equal"] * 2 + ["large"]), min_size=5, max_size=5),
    st.sampled_from(FILLS),
)
def test_group_pad_matches_the_per_leaf_reference(brk, seed, k, n_leaves, dtype, tail, modes, fill):
    modes = modes[:n_leaves]
    trees = ragged_batch(seed, k, n_leaves, dtype, tail, modes, brk)
    want = reference_pad(trees, fill)
    try:
        g = tt.group_pad(trees, fill)
    except Exception as exc:  # noqa: BLE001
        assert (type(exc), getattr(exc, "path", None)) == want
        if type(exc) is LeafOpError:
            assert isinstance(exc.cause, DtypeUnsupported)
        return
    assert isinstance(want, list), want
    assert g.fill is fill
    got = [(p, bits(s), bits(n)) for (p, s), (_, n) in zip(tt.leaves(g.stacked), tt.leaves(g.lengths))]
    assert got == [(p, want_bits(s, dev), want_bits(n, "cpu")) for p, s, n, dev in want]
    if not n_leaves:  # a leafless batch keeps no batch size (an open defect)
        return
    back = tt.unpad(g)
    assert len(back) == k
    for r, tree in enumerate(back):
        assert tree.treedef == trees[r].treedef
        for (_, leaf), (_, part), (_, _, _, dev) in zip(tt.leaves(tree), tt.leaves(trees[r]), want):
            assert bits(leaf) == want_bits(part.array, dev)
    assert back == trees or brk == "device"


def lengths_tree(pairs, packed):
    """The lengths (path, array) pairs as a packed tree or as a leaf list."""
    if packed:
        t = tt.build_tree(_nest(pairs))
        assert type(t._flat()[1]) is Column
        return t
    return tt.rebuild([(p, tt.TensorLeaf(a.copy())) for p, a in pairs])


def _nest(pairs):
    out = {}
    for p, a in pairs:
        d = out
        for key in p[:-1]:
            d = d.setdefault(key, {})
        d[p[-1]] = a
    return out


CORRUPTIONS = [None, "negative", "above", "wrong_k", "f64", "no_length_dim", "other_structure"]


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5),
       st.sampled_from(sorted(NP)), st.sampled_from(TAILS), st.sampled_from(CORRUPTIONS))
def test_unpad_of_a_corrupt_group_raises_as_the_per_leaf_checks_do(seed, k, n_leaves, dtype,
                                                                     tail, corruption):
    trees = ragged_batch(seed, k, n_leaves, dtype, tail, ["ragged"] * n_leaves, None)
    g = tt.group_pad(trees, 0)
    rng = np.random.default_rng(seed)
    i = int(rng.integers(n_leaves))
    stacked = [(p, leaf.array) for p, leaf in tt.leaves(g.stacked)]
    lengths = [(p, leaf.array.copy()) for p, leaf in tt.leaves(g.lengths)]
    p, n = lengths[i]
    if corruption == "negative":
        n[int(rng.integers(k))] = -1
    elif corruption == "above":
        n[int(rng.integers(k))] = stacked[i][1].shape[1] + 1
    elif corruption == "wrong_k":
        lengths = [(q, np.append(m, 0)) for q, m in lengths]
    elif corruption == "f64":
        lengths = [(q, m.astype(np.float64)) for q, m in lengths]
    elif corruption == "no_length_dim":
        stacked[i] = (p, np.zeros(k) if rng.integers(2) else np.array(1.0))
    elif corruption == "other_structure":
        lengths.append((("zz",), np.zeros(k, np.int64)))
    stacked_tree = tt.rebuild([(q, tt.TensorLeaf(a.copy())) for q, a in stacked])
    want_type = {None: list, "negative": CorruptLengths, "above": CorruptLengths, "wrong_k": CorruptLengths,
                 "f64": CorruptLengths, "no_length_dim": CorruptLengths,
                 "other_structure": StructureMismatch}[corruption]
    got = [outcome(lambda: tt.unpad(tt.PaddedGroup(stacked_tree, lengths_tree(lengths, packed), 0)))
           for packed in (False, True)]
    assert type(got[0]) is list if corruption is None else got[0][0] is want_type, got[0]
    assert got[1] == got[0]
