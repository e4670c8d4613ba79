"""`set`/`remove` on trees in flat form against an independent oracle.

Random sequences of edits (a leaf over a leaf, a new leaf, a mapping,
TreeTensor or TreeNode value, a write over or into an empty subtree, a
removal, and the writes that must fail, a bad new key among them) run on a
tree from `build_tree` and on a node oracle edited by
`helpers.replace_node`. Each result must agree with the oracle: its node
view, its structure key, its leaf paths against paths recomputed from the
key, the object every leaf `get` returns, and the error every failing edit
raises, with its `.path`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree.errors import PathNotFound, TensorTreeError
from tensortree.node import flatten

from helpers import get_node, replace_node

KEYS = ("a", "b", "c", "d")
SHAPES = ((), (0,), (2,), (2, 3))

tensor_leaves = st.builds(
    lambda shape, v: tt.TensorLeaf(np.full(shape, float(v))),
    st.sampled_from(SHAPES), st.integers(0, 9),
)
mappings = st.recursive(
    st.dictionaries(st.sampled_from(KEYS), tensor_leaves, max_size=3),
    lambda kids: st.dictionaries(st.sampled_from(KEYS), st.one_of(tensor_leaves, kids), max_size=3),
    max_leaves=8,
)


def to_node(value):
    """The oracle's node for a mapping of TensorLeafs, built key by key."""
    if isinstance(value, tt.TensorLeaf):
        return value
    return tt.TreeNode({k: to_node(v) for k, v in value.items()})


def positions(node, prefix=()):
    """(path, node) of every position in pre-order, the root's () included."""
    yield prefix, node
    if isinstance(node, tt.TreeNode):
        for k, child in node.children.items():
            yield from positions(child, prefix + (k,))


def key_paths(key, prefix=()):
    """Leaf paths of a structure key, recomputed from the key alone."""
    out = []
    for k, sub in key:
        if sub is None:
            out.append(prefix + (k,))
        else:
            out.extend(key_paths(sub, prefix + (k,)))
    return out


@st.composite
def edits(draw, oracle):
    """(op, path, library value, oracle node) against the oracle's positions."""
    where = list(positions(oracle))
    leaves = [p for p, n in where if not isinstance(n, tt.TreeNode)]
    inner = [p for p, n in where if isinstance(n, tt.TreeNode)]
    empty = [p for p, n in where if isinstance(n, tt.TreeNode) and len(n) == 0 and p]
    kind = draw(st.sampled_from(
        ("leaf_over_leaf", "new_leaf", "mapping", "tree", "node", "over_empty", "into_empty",
         "remove", "missing_parent", "value_parent", "remove_missing", "root_value",
         "bad_key")))
    leaf = draw(tensor_leaves)
    if kind == "leaf_over_leaf" and leaves:
        return "set", draw(st.sampled_from(leaves)), leaf, leaf
    if kind == "new_leaf":
        return "set", draw(st.sampled_from(inner)) + (draw(st.sampled_from(KEYS)),), leaf, leaf
    if kind in ("mapping", "tree", "node"):
        path = draw(st.sampled_from([p for p, _ in where]))
        m = draw(mappings)
        node = to_node(m)
        value = {"mapping": m, "tree": tt.build_tree(m), "node": node}[kind]
        return "set", path, value, node
    if kind == "over_empty" and empty:
        value = draw(st.one_of(tensor_leaves, mappings))
        return "set", draw(st.sampled_from(empty)), value, to_node(value)
    if kind == "into_empty" and empty:
        return "set", draw(st.sampled_from(empty)) + ("a",), leaf, leaf
    if kind == "remove" and len(where) > 1:
        return "remove", draw(st.sampled_from([p for p, _ in where[1:]])), None, None
    if kind == "missing_parent":
        return "set", draw(st.sampled_from(inner)) + ("zz", "a"), leaf, leaf
    if kind == "value_parent" and leaves:
        op = draw(st.sampled_from(("set", "remove")))
        return op, draw(st.sampled_from(leaves)) + ("a",), leaf, leaf
    if kind == "remove_missing":
        return "remove", draw(st.sampled_from(inner)) + ("zz",), None, None
    if kind == "bad_key":
        key = draw(st.sampled_from(("", "a/b", "__x")))
        return "set", draw(st.sampled_from(inner)) + (key,), leaf, leaf
    if kind == "root_value":
        return draw(st.sampled_from((("set", (), leaf, leaf), ("remove", (), None, None))))
    return "set", ("a",), leaf, leaf


def oracle_edit(oracle, op, path, node):
    if not path:
        if op == "remove" or not isinstance(node, tt.TreeNode):
            raise PathNotFound(path)
        return node
    return replace_node(oracle, path, node if op == "set" else None)


def check(out, oracle):
    key, payloads = flatten(oracle)
    assert out.treedef.key == key
    assert out.treedef.paths == tuple(key_paths(key))
    assert [leaf for _, leaf in tt.leaves(out)] == payloads
    for path in out.treedef.paths:
        assert tt.get(out, path) is get_node(oracle, path)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(mappings, st.booleans(), st.data())
def test_edits_agree_with_the_node_oracle(start, eager, data):
    tree, oracle = tt.build_tree(start), to_node(start)
    results = []
    for _ in range(data.draw(st.integers(1, 8))):
        op, path, value, node = data.draw(edits(oracle))
        try:
            want = oracle_edit(oracle, op, path, node)
        except TensorTreeError as exc:
            with pytest.raises(type(exc)) as got:
                tt.remove(tree, path) if op == "remove" else tt.set(tree, path, value)
            assert getattr(got.value, "path", None) == getattr(exc, "path", None), (op, path)
            continue
        out = tt.remove(tree, path) if op == "remove" else tt.set(tree, path, value)
        check(out, want)
        if eager:
            assert out.root == want
        results.append((out, want))
        tree, oracle = out, want
    # persistence: every earlier result still reads as its oracle
    for out, want in results:
        check(out, want)
        assert out.root == want
