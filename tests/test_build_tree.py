"""`build_tree` and `set` against the plain recipe in
`helpers.build_reference`, over nested mappings of every value kind they
take, bad keys at any depth and arrays of unsupported dtypes included: the
same structure key and payloads, or the same error. Good keys include ones
that hold a NUL, a `_` or an inner `__`, which a batched key check may
flag and must then pass."""

from collections import OrderedDict
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensortree as tt

from helpers import build_reference

pytestmark = pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")

SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


class Frozen(Mapping):
    """A Mapping that is not a dict."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


ARRAYS = {
    "f64": lambda i: np.arange(4.0) + i,
    "f32": lambda i: np.arange(3, dtype=np.float32) * i,
    "i64": lambda i: np.arange(6, dtype=np.int64).reshape(2, 3) - i,
    "bool": lambda i: np.arange(3) % 2 == i % 2,
    "0-d": lambda i: np.array(float(i)),
    "strided": lambda i: (np.arange(12.0) + i).reshape(3, 4)[:, ::2],
    "fortran": lambda i: np.asfortranarray(np.arange(6.0).reshape(2, 3) + i),
    "empty": lambda i: np.zeros((0, 2)),
    "matrix": lambda i: np.matrix([[1.0, 2.0], [3.0, float(i)]]),
}

# DtypeUnsupported from build_tree, so kept out of the strategies that build
UNSUPPORTED = {
    "complex128": lambda i: np.arange(3) + 1j * i,
    "object": lambda i: np.array([i, "x"], dtype=object),
    "complex matrix": lambda i: np.matrix([[1.0, 1j * i]]),  # through from_array
}

arrays = st.builds(lambda kind, i: ARRAYS[kind](i), st.sampled_from(sorted(ARRAYS)),
                   st.integers(0, 3))
unsupported = st.builds(lambda kind, i: UNSUPPORTED[kind](i), st.sampled_from(sorted(UNSUPPORTED)),
                        st.integers(0, 3))
# one plain array value in 10 has an unsupported dtype
plain_arrays = st.builds(lambda i, good, bad: bad if i == 0 else good,
                         st.integers(0, 9), arrays, unsupported)
scalars = st.one_of(
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),
)
tensor_leaves = st.builds(lambda a, stacked: (tt.StackedLeaf if stacked else tt.TensorLeaf)(a),
                          arrays.filter(lambda a: type(a) is np.ndarray), st.booleans())
small_trees = st.builds(
    lambda a, b: tt.build_tree({"p": a, "q": {"r": b}}), st.integers(0, 5), arrays
)
# one key in 30 is bad; the sampled good keys start with one "_", hold an
# inner "__" or hold a NUL
good_keys = st.one_of(
    st.text(alphabet="abk", min_size=1, max_size=2),
    st.sampled_from(["_a", "_", "a__b", "a\0", "\0", "\0__a", "b_\0_"]),
)
bad_keys = st.sampled_from(["", "__a", "__", "a/b", "/", 1])
keys = st.builds(lambda i, good, bad: bad if i == 0 else good,
                 st.integers(0, 29), good_keys, bad_keys)
values = st.recursive(
    st.one_of(plain_arrays, scalars, tensor_leaves, small_trees, small_trees.map(lambda t: t.root)),
    lambda children: st.builds(
        lambda kind, items: kind(items),
        st.sampled_from([dict, OrderedDict, MappingProxyType, Frozen]),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)
documents = st.dictionaries(keys, values, max_size=4)


def inputs(value, arrays, leaves):
    """Collect the ndarrays and TensorLeafs that `value` holds."""
    if isinstance(value, np.ndarray):
        arrays.append(value)
    elif isinstance(value, tt.TensorLeaf):
        leaves.append(value)
    elif isinstance(value, Mapping):
        for v in value.values():
            inputs(v, arrays, leaves)


@SETTINGS
@given(documents)
def test_build_tree_agrees_with_the_reference(doc):
    arrays, given_leaves = [], []
    inputs(doc, arrays, given_leaves)
    before = [(a.copy(), a.flags.writeable) for a in arrays]
    try:
        key, payloads = build_reference(doc)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            tt.build_tree(doc)
        assert str(info.value) == str(exc)
        return
    t = tt.build_tree(doc)
    assert t.treedef.key == key
    got = [leaf for _, leaf in tt.leaves(t)]
    assert len(got) == len(payloads)
    for g, want in zip(got, payloads):
        assert type(g) is type(want) and g == want
        a = g.array
        assert type(a) is np.ndarray and not a.flags.writeable
        if any(want is leaf for leaf in given_leaves):
            assert g is want  # a TensorLeaf value goes in as itself
        else:
            assert a.flags.c_contiguous
    for a, (copy, writeable) in zip(arrays, before):
        assert a.flags.writeable == writeable and np.array_equal(a, copy)


BASE = tt.build_tree({"w": 1.0, "x": 2, "y": {"z": np.arange(3.0)}})


@SETTINGS
@given(documents)
def test_set_agrees_with_the_reference(doc):
    try:
        key, payloads = build_reference({"x": doc})
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            tt.set(BASE, ("x",), doc)
        assert str(info.value) == str(exc)
        return
    t = tt.set(BASE, ("x",), doc)
    assert dict(t.treedef.key) == {**dict(BASE.treedef.key), "x": dict(key)["x"]}
    got = [leaf for path, leaf in tt.leaves(t) if path[0] == "x"]
    assert len(got) == len(payloads)
    assert all(type(g) is type(want) and g == want for g, want in zip(got, payloads))
    assert tt.leaves(t)[0] == tt.leaves(BASE)[0] and tt.leaves(t)[-1] == tt.leaves(BASE)[-1]


def test_a_bad_key_is_found_before_any_value_of_its_mapping_is_built():
    # "b" holds a bad key deeper down, but the bad "__c" beside it comes first
    with pytest.raises(tt.errors.BadKey, match="__c"):
        tt.build_tree({"a": 1, "b": {"__d": 2}, "__c": 3})
    with pytest.raises(tt.errors.BadKey, match="__d"):
        tt.build_tree({"a": 1, "b": {"__d": 2}, "c": 3})
    with pytest.raises(tt.errors.EmptyKey):
        tt.build_tree({"a": {"": np.zeros(2)}})
    assert tt.leaves(tt.build_tree({"_a": 1.0}))[0][0] == ("_a",)


@pytest.mark.parametrize("make", [
    lambda: np.zeros(2, complex),  # an exact ndarray whose dtype has no tag
    lambda: np.matrix([[1j]]),  # an ndarray subclass: its own call
    lambda: None,  # not a value build_tree takes
    lambda: {1: 2, "a": 3},  # keys that do not sort
], ids=["complex", "matrix", "none", "unsortable"])
def test_a_key_queued_for_the_batched_check_still_wins_over_a_later_value(make):
    # "z/" is queued with "c" before the walk reaches the value under "c"
    doc = {"c": {"d": make(), "e": np.zeros(2)}, "z/": np.zeros(2)}
    for build in (tt.build_tree, lambda d: tt.set(BASE, ("x",), d)):
        with pytest.raises(tt.errors.BadKey, match="z/"):
            build(doc)


def test_keys_the_batched_check_flags_but_check_key_passes_build():
    doc = {"\0__a": 1.0, "a\0": {"\0": np.zeros(2), "_": np.ones(2)}, "a__b": np.ones(2)}
    assert [p for p, _ in tt.leaves(tt.build_tree(doc))] == [
        ("\0__a",), ("a\0", "\0"), ("a\0", "_"), ("a__b",)]
