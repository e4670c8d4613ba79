"""A TensorLeaf is its own value node: one object per tensor leaf."""

import gc
import pickle
import random

import numpy as np
import pytest

import tensortree as tt
from tensortree.errors import ArityMismatch
from tensortree.functional import StructuredLeaf


def nested(rng, depth=0):
    """A nested dict of small f64 arrays, with an occasional empty subtree."""
    out = {}
    for i in range(rng.randint(1, 4)):
        if depth < 3 and rng.random() < 0.4:
            out[f"k{i}"] = nested(rng, depth + 1)
        elif rng.random() < 0.1:
            out[f"k{i}"] = {}
        else:
            out[f"k{i}"] = rng.random() * np.arange(float(rng.randint(0, 5)))
    return out


def counts(d):
    """(leaves, inner nodes) of a nested dict, the root included."""
    n, m = 0, 1
    for v in d.values():
        if isinstance(v, dict):
            vn, vm = counts(v)
            n, m = n + vn, m + vm
        else:
            n += 1
    return n, m


def value_nodes(node):
    if isinstance(node, tt.ValueNode):
        yield node
    else:
        for child in node.children.values():
            yield from value_nodes(child)


def test_build_tree_tracks_one_object_per_leaf():
    rng = random.Random(7)
    for _ in range(20):
        d = {"a": nested(rng), "b": nested(rng)}
        n, m = counts(d)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            root = tt.build_tree(d).root
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        # a leaf is one object; an inner node is a TreeNode and its dict
        assert added <= n + 2 * m, (added, n, m)
        assert len(tt.leaves(root)) == n


def test_a_leaf_is_its_own_value_node():
    t = tt.build_tree({"a": np.arange(3.0), "x": {"b": 1, "c": True}})
    for path in (["a"], ["x", "b"], ["x", "c"]):
        node = tt.get(t, path)
        assert isinstance(node, tt.TensorLeaf)
        assert node.leaf is node
        assert node.is_leaf
    assert not tt.get(t, ["x"]).is_leaf
    leaf = tt.scalar(2.0)
    assert tt.ValueNode(leaf) is leaf


def test_wrapped_and_bare_leaves_build_equal_trees():
    leaf = tt.make_leaf([2], "i64", [1, 2])
    inner = tt.TreeNode({"r": tt.ValueNode(leaf)})
    wrapped = tt.TreeTensor(tt.TreeNode({"p": tt.ValueNode(leaf), "q": inner}))
    bare = tt.build_tree({"p": leaf, "q": {"r": leaf}})
    assert wrapped == bare
    assert hash(wrapped.root) == hash(bare.root)


def test_non_tensor_payloads_stay_wrapped():
    payload = StructuredLeaf([tt.scalar(1.0), tt.scalar(2.0)])
    node = tt.ValueNode(payload)
    assert type(node) is tt.ValueNode and node.leaf is payload
    assert node == tt.ValueNode(StructuredLeaf([tt.scalar(1.0), tt.scalar(2.0)]))
    assert node != tt.scalar(1.0)
    assert pickle.loads(pickle.dumps(node)) == node


def test_leaves_pickle_as_themselves():
    for leaf in (tt.scalar(1.5), tt.StackedLeaf(np.arange(6.0).reshape(3, 2))):
        back = pickle.loads(pickle.dumps(leaf))
        assert type(back) is type(leaf) and back == leaf
        assert not back.array.flags.writeable


def test_no_operation_wraps_a_tensor_leaf():
    rng = random.Random(3)
    d = nested(rng)
    trees = [tt.build_tree(d) for _ in range(3)]
    ragged = [tt.build_tree({"s": np.arange(float(n)), "t": {"u": np.ones((n, 2))}}) for n in (1, 3)]
    outer = tt.MismatchPolicy("outer", default=tt.scalar(0.0))
    padded = tt.group_pad(ragged, 0.0)
    outputs = [
        *trees,
        tt.rebuild(tt.leaves(trees[0])),
        tt.deep_copy(trees[0]),
        tt.set(trees[0], ["new"], np.arange(2.0)),
        tt.lift_unary("neg")(trees[0]),
        tt.lift_multi("add")(trees[0], trees[1]),
        tt.lift_multi("add", outer)(trees[0], tt.build_tree({"zz": 1.0})),
        tt.lifted_stack(trees),
        tt.lifted_cat(ragged),
        *tt.lifted_split(tt.lifted_cat(ragged), 1),
        tt.subside(trees),
        tt.subside([ragged[0], [ragged[1]]]),
        *tt.rise(tt.subside(trees)),
        padded.stacked,
        padded.lengths,
        *tt.unpad(padded),
        tt.filter(trees[0], lambda p, _l: len(p) > 1),
        tt.parse_tree(tt.serialize_tree(tt.subside(trees))),
    ]
    for t in outputs:
        for node in value_nodes(t.root):
            if isinstance(node.leaf, tt.TensorLeaf):
                assert node.leaf is node
            else:
                assert isinstance(node.leaf, StructuredLeaf)


def test_lift_of_raw_leaves_only_needs_a_tree():
    with pytest.raises(ArityMismatch, match="at least one argument must be a tree"):
        tt.lift_multi("add")(tt.scalar(1.0), tt.scalar(2.0))
    with pytest.raises(ArityMismatch, match="at least one argument must be a tree"):
        tt.lift_multi("neg")(tt.scalar(1.0))
    # a raw leaf still broadcasts against a tree
    out = tt.lift_multi("add")(tt.build_tree({"a": 1.0, "b": {"c": 2.0}}), tt.scalar(10.0))
    assert {p: l.item() for p, l in tt.leaves(out)} == {("a",): 11.0, ("b", "c"): 12.0}


def test_a_structured_value_node_fails_leaf_atoms():
    a, b = tt.build_tree({"p": 1.0}), tt.build_tree({"p": 2.0})
    t = tt.subside([a, [b]])  # a nested outer: a StructuredLeaf at p
    assert isinstance(tt.get(t, ["p"]).leaf, StructuredLeaf)
    f64 = tt.inherit_atom(tt.DtypeIs("f64"))
    assert not tt.satisfies(f64, t.root)
    for placed in ((), ("p",)):
        with pytest.raises(tt.errors.ConstraintViolation) as e:
            t.with_constraints({placed: f64})
        assert e.value.path == ("p",)
