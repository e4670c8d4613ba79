import random

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import BadKey, EmptyKey, PathNotFound

from helpers import paper_tree, rand_leaf, rand_tree, trees_close


def test_build_and_get():
    t = paper_tree()
    assert tt.get(t, ["a"]).leaf.item() == 2
    assert tt.get(t, ["x", "d"]).leaf.item() == 7
    sub = tt.get(t, ["x"])
    assert sorted(sub.children) == ["c", "d"]


def test_get_missing_path():
    t = paper_tree()
    with pytest.raises(PathNotFound):
        tt.get(t, ["nope"])
    with pytest.raises(PathNotFound):
        tt.get(t, ["a", "deeper"])


def test_keys_are_sorted():
    t = tt.build_tree({"z": 1, "a": 2, "m": {"q": 3, "b": 4}})
    assert list(t.root.children) == ["a", "m", "z"]
    assert [p for p, _ in tt.leaves(t)] == [("a",), ("m", "b"), ("m", "q"), ("z",)]


def test_bad_keys_rejected():
    with pytest.raises(EmptyKey):
        tt.build_tree({"": 1})
    with pytest.raises(BadKey):
        tt.build_tree({"a/b": 1})
    with pytest.raises(BadKey):
        tt.build_tree({"__meta": 1})


def test_path_string_helpers():
    p = ("x", "c")
    s = tt.path_to_string(p)
    assert s == "x/c"
    assert tt.path_from_string(s) == p
    assert tt.path_from_string("") == ()


def test_coercion_of_python_values():
    t = tt.build_tree({"i": 3, "f": 2.5, "b": True, "arr": np.arange(4.0)})
    assert tt.get(t, ["i"]).leaf.dtype == "i64"
    assert tt.get(t, ["f"]).leaf.dtype == "f64"
    assert tt.get(t, ["b"]).leaf.dtype == "bool"
    assert tt.get(t, ["arr"]).leaf.shape == (4,)


def test_set_is_persistent():
    t = paper_tree()
    t2 = tt.set(t, ["a"], 99)
    assert tt.get(t, ["a"]).leaf.item() == 2
    assert tt.get(t2, ["a"]).leaf.item() == 99
    # untouched subtrees are shared, not copied
    assert tt.get(t2, ["x"]) is tt.get(t, ["x"])


def test_set_creates_new_paths():
    t = paper_tree()
    t2 = tt.set(t, ["x", "e"], 11)
    assert tt.get(t2, ["x", "e"]).leaf.item() == 11
    assert [p for p, _ in tt.leaves(t)] == [("a",), ("b",), ("x", "c"), ("x", "d")]
    t3 = tt.set(t, ["y"], {"deep": {"leaf": 1.0}})
    assert tt.get(t3, ["y", "deep", "leaf"]).leaf.item() == 1.0
    # parent of the target path must already exist
    with pytest.raises(PathNotFound):
        tt.set(t, ["missing", "leaf"], 1.0)


def test_set_subtree_value():
    t = paper_tree()
    t2 = tt.set(t, ["x"], {"only": 1})
    assert [p for p, _ in tt.leaves(t2)] == [("a",), ("b",), ("x", "only")]


def test_remove_is_persistent():
    t = paper_tree()
    t2 = tt.remove(t, ["x", "c"])
    assert [p for p, _ in tt.leaves(t2)] == [("a",), ("b",), ("x", "d")]
    assert [p for p, _ in tt.leaves(t)] == [("a",), ("b",), ("x", "c"), ("x", "d")]
    with pytest.raises(PathNotFound):
        tt.remove(t, ["x", "zz"])
    with pytest.raises(PathNotFound):
        tt.remove(t, [])


def test_structure_equal():
    a = tt.build_tree({"a": 1, "x": {"c": 2}})
    b = tt.build_tree({"a": 9.5, "x": {"c": 0}})
    c = tt.build_tree({"a": 1, "x": {"d": 2}})
    assert tt.structure_equal(a, b)
    assert not tt.structure_equal(a, c)
    assert not tt.structure_equal(a, tt.build_tree({"a": 1}))


def test_tree_value_equality():
    a = tt.build_tree({"a": 1, "x": {"c": 2}})
    b = tt.build_tree({"x": {"c": 2}, "a": 1})
    assert a == b
    assert a != tt.build_tree({"a": 1, "x": {"c": 3}})


def test_deep_copy_shares_nothing():
    t = paper_tree()
    c = tt.deep_copy(t)
    assert c == t
    for (_, l1), (_, l2) in zip(tt.leaves(t), tt.leaves(c)):
        assert l1.array is not l2.array


def test_leaves_rebuild_roundtrip():
    rng = random.Random(42)
    for _ in range(50):
        t = rand_tree(rng)
        assert tt.rebuild(tt.leaves(t)) == t


def test_rebuild_of_random_edits():
    rng = random.Random(43)
    t = rand_tree(rng, max_leaves=8)
    for _ in range(20):
        paths = [p for p, _ in tt.leaves(t)]
        p = rng.choice(paths)
        if rng.random() < 0.3 and len(paths) > 1:
            t = tt.remove(t, p)
        else:
            t = tt.set(t, p, rand_leaf(rng))
        assert tt.rebuild(tt.leaves(t)) == t


def test_set_self_replacement_is_identity():
    rng = random.Random(44)
    for _ in range(20):
        t = rand_tree(rng)
        paths = [p for p, _ in tt.leaves(t)]
        p = rng.choice(paths)
        cut = rng.randint(1, len(p))
        assert tt.set(t, p[:cut], tt.get(t, p[:cut])) == t


def test_empty_tree():
    t = tt.build_tree({})
    assert tt.leaves(t) == []
    assert len(t.root) == 0


def test_str_paths_are_rejected():
    t = tt.build_tree({"a": {"b": 1.0}, "ab": 2.0})
    for call in (
        lambda: tt.get(t, "ab"),
        lambda: tt.set(t, "", tt.build_tree({"z": 1.0})),
        lambda: tt.set(t, "ab", 3.0),
        lambda: tt.remove(t, "ab"),
    ):
        with pytest.raises(TypeError, match="path_from_string"):
            call()
    assert tt.get(t, tt.path_from_string("a/b")).leaf.item() == 1.0


def test_build_tree_accepts_any_mapping():
    from types import MappingProxyType

    t = tt.build_tree(MappingProxyType({"a": 1.0, "x": MappingProxyType({"b": np.arange(2)})}))
    assert t == tt.build_tree({"a": 1.0, "x": {"b": np.arange(2)}})
    with pytest.raises(TypeError):
        tt.build_tree({"a": "text"})


def test_rebuild_rejects_a_leaf_below_a_leaf_and_an_empty_path():
    from tensortree.errors import BadPath

    a, b = tt.scalar(1.0), tt.scalar(2.0)
    for pairs in ([(("x",), a), (("x", "y"), b)], [(("x", "y"), b), (("x",), a)]):
        with pytest.raises(BadPath, match="x/y lies below the leaf at x"):
            tt.rebuild(pairs)
    with pytest.raises(PathNotFound):
        tt.rebuild([(("x",), a), ((), b)])


def test_tree_and_node_values_build_and_set_like_dicts():
    sub = {"c": np.arange(3.0), "d": {"e": 2}}
    want = tt.build_tree({"a": 1.0, "x": sub})
    sub_tree = tt.build_tree(sub)
    for value in (sub_tree, sub_tree.root, tt.TreeTensor(sub_tree.root)):
        assert tt.build_tree({"a": 1.0, "x": value}) == want
        assert tt.set(tt.build_tree({"a": 1.0, "x": 0.0}), ["x"], value) == want
        assert tt.set(tt.build_tree({"a": 1.0}), ["x"], value) == want
