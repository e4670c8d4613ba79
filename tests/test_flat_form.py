"""The flat form of a tree: a structure object and the leaf list.

- Guard: over trees from `build_tree`, the same-structure operations, the
  mismatch policies and IO build no `TreeNode` and call no `flatten`; only
  `.root` builds nodes.
- Agreement: for the output of each of those operations, the node view
  `.root` says what the flat form says (its flatten, a tree rebuilt from
  it, its leaves and its canonical document).
- Readable reprs of large trees.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree import constraints, functional, io_formats, lift, node, padding, tree
from tensortree.errors import TensorTreeError

from helpers import iter_leaves
from test_batched_join import BAD, batch, skeletons

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def nested(i):
    return {
        "a": np.arange(4.0) + i,
        "x": {"b": np.arange(8.0).reshape(4, 2) * i, "c": {"d": np.full(4, float(i))}},
        "e": {},
    }


def flat_ops(trees):
    """Every operation that works on the flat form alone, over trees of one
    structure and a tree of another; returns the results."""
    t0, t1, t2 = trees[:3]
    stacked = tt.subside(trees)
    g = tt.group_pad(trees, 0.0)
    sel = tt.build_tree({
        "a": tt.scalar(True, "bool"),
        "x": {"b": tt.scalar(False, "bool"), "c": {"d": tt.scalar(True, "bool")}},
        "e": {},
    })
    other = tt.build_tree({"a": np.ones(4), "x": 2.0, "f": np.zeros(4)})
    policies = [tt.INNER] + [tt.MismatchPolicy(k, tt.scalar(0.0)) for k in ("outer", "left")]
    return [
        tt.lift_multi("add")(t0, t1),
        tt.lift_multi("mulsub")(t0, t1, t2),
        tt.lift_unary("neg")(t0),
        tt.lifted_stack(trees),
        tt.lifted_cat(trees),
        *tt.lifted_split(t0, 1),
        stacked,
        tt.rise(stacked),
        g.stacked,
        g.lengths,
        *tt.unpad(g),
        tt.filter(t0, lambda path, _leaf: path != ("a",)),
        tt.mask(t1, sel),
        tt.leaves(t0),
        tt.rebuild(tt.leaves(t1)),
        tt.deep_copy(t2),
        tt.set(t0, ["x", "b"], np.zeros(2)),
        t0 == t1,
        tt.structure_equal(t0, t1),
        # another structure: "x" a value node facing t0's subtree, "e" and
        # "f" each missing on one side
        *[tt.lift_multi("add", policy)(t0, other) for policy in policies],
        tt.lift_multi("mulsub", tt.INNER)(t0, other, t2),
        tt.lift_multi("add")(t0, tt.build_tree({"a": 1.0, "e": {}, "x": 2.0})),
        tt.lift_multi("add")(t0, tt.scalar(1.0)),  # a raw leaf broadcasts
        tt.parse_tree(tt.serialize_tree(t0)),
        tt.serialize_outer([t0, {"k": t1}]),
        tt.serialize_padded_group(g),
    ]


def test_flat_operations_build_no_nodes_and_call_no_flatten(monkeypatch):
    counts = {"nodes": 0, "flatten": 0}
    init, from_validated = node.TreeNode.__init__, node.TreeNode._from_validated.__func__
    flatten = node.flatten

    def counted_init(self, *args, **kwargs):
        counts["nodes"] += 1
        init(self, *args, **kwargs)

    def counted_from_validated(cls, children):
        counts["nodes"] += 1
        return from_validated(cls, children)

    def counted_flatten(n):
        counts["flatten"] += 1
        return flatten(n)

    monkeypatch.setattr(node.TreeNode, "__init__", counted_init)
    monkeypatch.setattr(node.TreeNode, "_from_validated", classmethod(counted_from_validated))
    for module in (node, tree, lift, functional, padding, constraints, io_formats):
        if hasattr(module, "flatten"):
            monkeypatch.setattr(module, "flatten", counted_flatten)

    trees = [tt.build_tree(nested(i)) for i in range(1, 4)]
    outs = flat_ops(trees)
    assert counts == {"nodes": 0, "flatten": 0}
    # the counters see the node view when it is asked for
    assert outs[0].root.get("x") is not None
    assert counts["nodes"] > 0


def test_a_set_over_a_leaf_shares_the_untouched_subtrees():
    t = tt.build_tree(nested(1))
    u = tt.set(tt.set(t, ["a"], np.ones(4)), ["x", "c", "d"], np.ones(2))
    assert u.treedef is t.treedef
    assert tt.get(u, ["e"]) is tt.get(t, ["e"])
    assert tt.get(u, ["x", "b"]) is tt.get(t, ["x", "b"])
    assert tt.get(u, ["x"]) is not tt.get(t, ["x"])
    assert tt.get(u, ["x", "c", "d"]).data == [1.0, 1.0]


def test_a_set_keeps_no_earlier_tree_alive():
    t = tt.build_tree(nested(1))
    u = tt.set(t, ["a"], np.ones(4))
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None
    assert tt.get(u, ["a"]).data == [1.0] * 4
    assert tt.get(u, ["x", "c", "d"]).data == [1.0] * 4
    v = tt.set(u, ["a"], np.zeros(4))
    assert pickle.loads(pickle.dumps(v)) == v


def test_trees_of_one_structure_share_one_treedef():
    a, b = tt.build_tree(nested(1)), tt.build_tree(nested(2))
    assert a.treedef is b.treedef
    assert tt.TreeTensor(a.root).treedef is a.treedef
    assert a.treedef.paths == tuple(p for p, _ in tt.leaves(a))
    assert a.treedef.count == 3


NP_DTYPES = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "bool": np.bool_}


def tensor_leaves(out):
    """Every TensorLeaf an output holds: in trees, lists, (path, leaf)
    pairs and StructuredLeaf payloads."""
    if isinstance(out, tt.TensorLeaf):
        yield out
    elif isinstance(out, tt.TreeTensor):
        yield from tensor_leaves([leaf for _, leaf in tt.leaves(out)])
    elif isinstance(out, tt.StructuredLeaf):
        yield from tensor_leaves(out.payload)
    elif isinstance(out, (list, tuple)):
        for x in out:
            yield from tensor_leaves(x)
    elif isinstance(out, dict):
        yield from tensor_leaves(list(out.values()))


def test_every_output_leaf_is_read_only_and_holds_the_dtype_of_its_tag():
    given = [nested(i) for i in range(1, 4)]
    outs = flat_ops([tt.build_tree(n) for n in given])
    # unpad copies a stacked leaf that is not row-major before viewing it
    strided = tt.TensorLeaf(np.arange(24.0).reshape(2, 12)[:, ::2])
    lengths = tt.build_tree({"s": np.array([3, 6])})
    outs.append(tt.unpad(tt.PaddedGroup(tt.build_tree({"s": strided}), lengths, 0.0)))
    found = list(tensor_leaves(outs))
    assert len(found) > 50
    for leaf in found:
        assert not leaf.array.flags.writeable
        assert leaf.array.dtype == NP_DTYPES[leaf.dtype]
    # build_tree copies the arrays it is given and leaves them writeable
    for n in given:
        assert all(a.flags.writeable for a in (n["a"], n["x"]["b"], n["x"]["c"]["d"]))


# ---------------------------------------------------------------------------
# agreement of the node view with the flat form


def flat_form(t):
    """(structure key, payloads) as the tree holds them: from its treedef
    where it has one, from its nodes otherwise."""
    td = getattr(t, "treedef", None)
    key = td.key if td is not None else node.flatten(t.root)[0]
    return key, [leaf for _, leaf in tt.leaves(t)]


def agrees(out):
    key, payloads = flat_form(out)
    view_key, view_payloads = node.flatten(out.root)
    assert view_key == key
    assert len(view_payloads) == len(payloads)
    assert all(a is b for a, b in zip(view_payloads, payloads))
    assert tt.TreeTensor(out.root) == out
    assert tt.leaves(out) == list(iter_leaves(out.root))
    # a StructuredLeaf nested in another has no document; both sides say so
    assert document(out) == document(tt.TreeTensor(out.root))


def document(t):
    try:
        return tt.serialize_tree(t)
    except TensorTreeError as exc:
        return type(exc)


def outputs(trees):
    """Each operation's tree outputs; an operation that raises on these
    inputs gives none."""
    t0 = trees[0]
    paths = [p for p, _ in tt.leaves(t0)]
    ops = [
        lambda: [tt.lift_multi("add")(t0, trees[-1])],
        lambda: [tt.lift_multi("mulsub")(t0, trees[-1], t0)],
        lambda: [tt.lift_unary("neg")(t0)],
        lambda: [tt.lifted_stack(trees)],
        lambda: [tt.lifted_cat(trees)],
        lambda: tt.lifted_split(t0, 1),
        lambda: [tt.subside(trees)],
        lambda: [tt.rise(tt.subside(trees))],
        lambda: [tt.group_pad(trees, 0).stacked, tt.group_pad(trees, 0).lengths],
        lambda: tt.unpad(tt.group_pad(trees, 0)),
        lambda: [tt.filter(t0, lambda p, _l: len(p) % 2 == 1)],
        lambda: [tt.rebuild(tt.leaves(t0))],
        lambda: [tt.deep_copy(t0)],
        lambda: [tt.set(t0, list(p), tt.scalar(1.5)) for p in paths[:2]],
    ]
    for op in ops:
        try:
            outs = op()
        except TensorTreeError:
            continue
        for out in outs:
            if isinstance(out, list):  # rise of a flat list: a list of trees
                yield from out
            else:
                yield out


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(skeletons(), st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from(BAD),
       st.booleans())
def test_the_node_view_agrees_with_the_flat_form(skel, k, seed, bad, ragged):
    for out in outputs(batch(skel, k, seed, bad, ragged)):
        agrees(out)


# ---------------------------------------------------------------------------
# reprs


def test_reprs_of_large_trees_stay_short():
    t = tt.build_tree({f"k{i:02d}": np.arange(1000.0) for i in range(50)})
    text = repr(t)
    assert len(text) < 1000
    assert text.startswith("TreeTensor(50 leaves: {k00: [1000] f64, ")
    assert text.count(": [1000] f64") == 8 and text.endswith("…})")
    leaf = repr(tt.get(t, ["k00"]))
    assert leaf == "TensorLeaf(shape=[1000], dtype=f64, data=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, …])"
    short = tt.make_leaf([2], "i64", [1, 2])
    assert repr(short) == "TensorLeaf(shape=[2], dtype=i64, data=[1, 2])"
