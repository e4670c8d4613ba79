"""Operations on the components of a `rise`, which view the buffers of the
subside they came from.

- Packed trees rise to columns over strided views of the stacked buffer.
- List-held trees (leaves larger than BATCH_MAX_ELEMENTS, or of mixed
  dtypes and shapes) rise to leaves over rows of their stacked leaves.

Every operation gives the same result, bit for bit (`test_packed.canon`),
as on `deep_copy`'d components, which own compact row-major storage.
"""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import tensortree as tt
from tensortree.leaf import BATCH_MAX_ELEMENTS, Column

from test_packed import SETTINGS, SHAPES, canon, fill, outcome, paths, skeletons, values

# NaN, inf and overflow make numpy warn, on both sides alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

DTYPES = ("f32", "f64", "i64", "bool")
LARGE = ((BATCH_MAX_ELEMENTS + 6,), (9, 8), (2, 40))  # too large to pack
MIXED = (("f32", (3,)), ("f64", (2, 2)), ("i64", (BATCH_MAX_ELEMENTS + 6,)), ("bool", (4,)))


def family(skel, seed, storage, dtype, shape, k=3):
    """k trees of one skeleton: packed ones of `dtype` and `shape`, list-held
    ones of a shape too large to pack, or list-held ones whose leaves mix
    dtypes and shapes (one (dtype, shape) a path, as subside needs)."""
    rng = np.random.default_rng(seed)
    kind = {q: MIXED[rng.integers(len(MIXED))] for q in paths(skel)}
    if storage != "mixed":
        kind = dict.fromkeys(kind, (dtype, shape))
    return [tt.build_tree(fill(skel, lambda q: values(rng, *kind[q]))) for _ in range(k)]


def chain(c, dtype):
    """Every operation of the chain over components `c`, by name."""
    c0, c1, c2 = c
    return {
        "neg": lambda: tt.lift_unary("neg")(c0),
        "add": lambda: tt.lift_multi("add")(c0, c1),
        "add_raw": lambda: tt.lift_multi("add")(c0, tt.scalar(1, dtype)),
        "mulsub": lambda: tt.lift_multi("mulsub")(c0, c1, c2),
        "stack": lambda: tt.lifted_stack(c),
        "stack_1": lambda: tt.lifted_stack(c, axis=1),
        "cat": lambda: tt.lifted_cat(c),
        "cat_1": lambda: tt.lifted_cat(c, axis=1),
        "split": lambda: tt.lifted_split(c0, 2),
        # pieces along axis 1 are non-contiguous views of the components
        "split_1_neg": lambda: tt.lift_unary("neg")(tt.lifted_split(c0, 1, axis=1)[0]),
        "split_1_add": lambda: tt.lift_multi("add")(*tt.lifted_split(c1, 1, axis=1)[:2]),
        "pad_unpad": lambda: tt.unpad(tt.group_pad(c, 0)),
        "serialize": lambda: [tt.serialize_tree(x) for x in c],
        "round_trip": lambda: [tt.parse_tree(tt.serialize_tree(x)) for x in c],
        "pickle": lambda: [pickle.loads(pickle.dumps(x)) for x in c],
        "subside_rise": lambda: tt.rise(tt.subside(c)),
        "eq": lambda: (c0 == c0, c0 == c1, c0 == tt.TreeTensor(c0.root)),
    }


@SETTINGS
@given(skeletons, st.integers(0, 2**32 - 1), st.sampled_from(("packed", "list", "mixed")),
       st.sampled_from(DTYPES), st.sampled_from(SHAPES), st.sampled_from(LARGE))
def test_risen_components_behave_as_their_deep_copies(skel, seed, storage, dtype, small, large):
    assume(next(paths(skel), None) is not None)
    trees = family(skel, seed, storage, dtype, small if storage == "packed" else large)
    s = tt.subside(trees)
    risen = tt.rise(s)
    copies = [tt.deep_copy(x) for x in risen]
    assert [canon(x) for x in copies] == [canon(t) for t in trees]
    stacked = [leaf.array for _, leaf in tt.leaves(s)]
    packed = s._flat()[1]
    if storage != "mixed":  # a mixed tree packs when every path drew one small kind
        assert (type(packed) is Column) == (storage == "packed")
    for x in risen:
        held = x._flat()[1]
        if type(packed) is Column:  # a strided view: row i of component j is buf[i, j]
            assert type(held) is Column and np.shares_memory(held.buf, packed.buf)
        else:
            assert type(held) is list
        for (_, leaf), buf in zip(tt.leaves(x), stacked):
            assert np.shares_memory(leaf.array, buf) and not leaf.array.flags.writeable
    for x in copies:
        assert not any(np.shares_memory(leaf.array, buf)
                       for (_, leaf), buf in zip(tt.leaves(x), stacked))
    want = {name: outcome(fn) for name, fn in chain(copies, dtype).items()}
    got = {name: outcome(fn) for name, fn in chain(risen, dtype).items()}
    for name in want:
        assert got[name] == want[name], name
