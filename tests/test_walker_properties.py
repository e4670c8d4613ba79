"""Properties of the nested walkers, checked against references written
here from the documented definitions:

- `satisfies` against a recursive reference: an inheriting atom holds for
  a node iff it holds on every value node below it (vacuously for a
  subtree without leaves); a non-inheriting leaf atom holds only on a
  tensor leaf; a node atom is checked at the node itself;
- `StructuredLeaf` equality and copy over list, tuple and dict payloads
  (a tuple reads as a list; foreign elements compare unequal);
- `rise(subside(outer))` over nested list and dict outer structures;
- the error type and `.path` of `set`/`remove` on missing parents,
  value-node parents and the root.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensortree as tt
from tensortree.errors import PathNotFound
from tensortree.functional import StructuredLeaf

KEYS = ("a", "b", "c")
DTYPES = ("f32", "f64", "i64", "bool")
SHAPES = ((), (0,), (1,), (2,), (3,), (2, 2), (1, 3), (2, 1, 2))
DEVICES = ("cpu", "gpu0")

SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


def leaf(dtype, shape, device="cpu", seed=0):
    rng = np.random.default_rng(seed)
    data = rng.integers(-3, 4, size=shape)
    return tt.TensorLeaf(data.astype({"f32": np.float32, "f64": np.float64,
                                      "i64": np.int64, "bool": np.bool_}[dtype]), device)


leaves = st.builds(leaf, st.sampled_from(DTYPES), st.sampled_from(SHAPES),
                   st.sampled_from(DEVICES), st.integers(0, 3))


def structured(payloads):
    return st.builds(lambda p: tt.ValueNode(StructuredLeaf(p)), payloads)


def payloads(max_leaves=4):
    return st.recursive(
        leaves,
        lambda s: st.one_of(
            st.lists(s, max_size=3),
            st.lists(s, max_size=3).map(tuple),
            st.dictionaries(st.sampled_from(KEYS), s, max_size=3),
        ),
        max_leaves=max_leaves,
    )


def nodes():
    """Tree nodes mixing tensor leaves, StructuredLeaf value nodes and empty
    subtrees."""
    value = st.one_of(leaves, leaves, structured(payloads(2)))
    sub = st.recursive(
        value,
        lambda s: st.dictionaries(st.sampled_from(KEYS), s, max_size=3).map(tt.TreeNode),
        max_leaves=6,
    )
    return st.dictionaries(st.sampled_from(KEYS), sub, max_size=3).map(tt.TreeNode)


def positions(node, prefix=()):
    """Pre-order (path, node) of every position under `node`."""
    yield prefix, node
    if isinstance(node, tt.TreeNode):
        for k, child in node.children.items():
            yield from positions(child, prefix + (k,))


# ---------------------------------------------------------------------------
# satisfies


def ref_value_nodes(node):
    if isinstance(node, tt.ValueNode):
        return [node]
    return [v for c in node.children.values() for v in ref_value_nodes(c)]


def ref_resolve(node, path):
    for key in path:
        if not isinstance(node, tt.TreeNode) or key not in node.children:
            return None
        node = node.children[key]
    return node


def ref_leaf_atom(atom, node) -> bool:
    if not isinstance(node, tt.TensorLeaf):
        return False
    shape = tuple(node.array.shape)
    if isinstance(atom, tt.DtypeIs):
        return node.dtype == atom.dtype
    if isinstance(atom, tt.NdimIs):
        return len(shape) == atom.n
    if isinstance(atom, tt.DimEquals):
        return atom.axis < len(shape) and shape[atom.axis] == atom.size
    if isinstance(atom, tt.DimAtLeast):
        return atom.axis < len(shape) and shape[atom.axis] >= atom.size
    assert isinstance(atom, tt.DeviceIs)
    return node.device == atom.tag


def ref_node_atom(atom, node) -> bool:
    if isinstance(atom, tt.LeafCountIs):
        return len(ref_value_nodes(node)) == atom.n
    targets = [ref_resolve(node, p) for p in atom.paths]
    if not all(isinstance(t, tt.TensorLeaf) for t in targets):
        return False
    shapes = [tuple(t.array.shape) for t in targets]
    if isinstance(atom, tt.ShapesEqual):
        return len(set(shapes)) <= 1
    return all(len(s) >= atom.k and s[: atom.k] == shapes[0][: atom.k] for s in shapes)


def ref_satisfies(c, node) -> bool:
    for inh, atom in c.entries:
        if isinstance(atom, (tt.LeafCountIs, tt.ShapesEqual, tt.SharedPrefix)):
            ok = ref_node_atom(atom, node)
        elif inh:
            ok = all(ref_leaf_atom(atom, v) for v in ref_value_nodes(node))
        else:
            ok = ref_leaf_atom(atom, node)
        if not ok:
            return False
    return True


rel_paths = st.lists(st.sampled_from(KEYS), max_size=3).map(tuple)
small = st.integers(0, 3)
leaf_atoms = st.one_of(
    st.builds(tt.DtypeIs, st.sampled_from(DTYPES)),
    st.builds(tt.NdimIs, small),
    st.builds(tt.DimEquals, small, small),
    st.builds(tt.DimAtLeast, small, small),
    st.builds(tt.DeviceIs, st.sampled_from(DEVICES)),
)
node_atoms = st.one_of(
    st.builds(tt.LeafCountIs, st.integers(0, 6)),
    st.builds(tt.ShapesEqual, st.lists(rel_paths, max_size=3).map(tuple)),
    st.builds(tt.SharedPrefix, st.lists(rel_paths, max_size=3).map(tuple), small),
)
entries = st.lists(
    st.one_of(st.tuples(st.booleans(), leaf_atoms), st.tuples(st.just(False), node_atoms)),
    max_size=3,
)


@SETTINGS
@given(nodes(), entries)
def test_satisfies_matches_the_recursive_definition(root, es):
    c = tt.Constraint(es)
    for path, node in positions(root):
        assert tt.satisfies(c, node) == ref_satisfies(c, node), (path, c)


# ---------------------------------------------------------------------------
# StructuredLeaf equality and copy


def as_lists(payload):
    if isinstance(payload, (list, tuple)):
        return [as_lists(p) for p in payload]
    if isinstance(payload, dict):
        return {k: as_lists(v) for k, v in reversed(payload.items())}
    return payload


def payload_leaves(payload):
    if isinstance(payload, (list, tuple)):
        return [l for p in payload for l in payload_leaves(p)]
    if isinstance(payload, dict):
        return [l for v in payload.values() for l in payload_leaves(v)]
    return [payload]


def changed(payload):
    """The payload with its first leaf replaced by a different one, or None."""
    if isinstance(payload, tt.TensorLeaf):
        return leaf("i64" if payload.dtype != "i64" else "f64", payload.shape)
    items = list(payload.items()) if isinstance(payload, dict) else list(enumerate(payload))
    for k, v in items:
        new = changed(v)
        if new is not None:
            out = dict(payload) if isinstance(payload, dict) else list(payload)
            out[k] = new
            return out
    return None


@SETTINGS
@given(payloads(6), st.sampled_from([None, 3, "x", 1.5, np.zeros(2)]))
def test_structured_leaf_equality_and_copy(payload, foreign):
    s = StructuredLeaf(payload)
    # tuples read as lists; dict order does not matter
    assert s == StructuredLeaf(as_lists(payload))
    assert s != leaf("f64", ())
    other = changed(payload)
    if other is not None:
        assert s != StructuredLeaf(other)
    # a foreign element compares unequal, without raising
    for bad in ([foreign], {"a": foreign}, [payload, foreign]):
        assert StructuredLeaf(bad) != s and s != StructuredLeaf(bad)
        assert StructuredLeaf(bad) != StructuredLeaf(bad)
    c = s.copy()
    assert isinstance(c, StructuredLeaf) and c == s
    assert c.payload == as_lists(payload)
    for a, b in zip(payload_leaves(payload), payload_leaves(c.payload)):
        assert a == b and a is not b and not np.shares_memory(a.array, b.array)


def test_structured_leaf_equality_reads_tuples_as_lists():
    x = leaf("f64", (2,))
    assert StructuredLeaf((x, [x])) == StructuredLeaf([x, (x,)])
    assert StructuredLeaf({"a": (x,)}) == StructuredLeaf({"a": [x]})
    assert StructuredLeaf([x]) != StructuredLeaf({"0": x})
    assert StructuredLeaf([x]) != StructuredLeaf([x, x])
    assert type(StructuredLeaf((x, (x,))).copy().payload[1]) is list


# ---------------------------------------------------------------------------
# rise(subside(outer))


def families():
    """A skeleton of leaf paths, then trees over it whose leaves may differ
    in shape (ragged), each tree holding at least one leaf: a tree without
    leaves carries nothing of the outer structure it sat in."""
    spec = st.tuples(st.sampled_from(DTYPES), st.sampled_from(SHAPES))
    skeleton = st.dictionaries(
        st.sampled_from(KEYS),
        st.one_of(spec, st.dictionaries(st.sampled_from(KEYS), spec, min_size=1, max_size=2)),
        min_size=1, max_size=3,
    )
    return st.tuples(skeleton, st.booleans())


def tree_over(skeleton, seed, ragged):
    def build(s, depth):
        if isinstance(s, tuple):
            dtype, shape = s
            if ragged and shape:
                shape = ((shape[0] + seed) % 3,) + shape[1:]
            return leaf(dtype, shape, seed=seed)
        return {k: build(v, depth + 1) for k, v in s.items()}
    return tt.build_tree(build(skeleton, 0))


def outers(count):
    def grow(s):
        return st.one_of(
            st.lists(s, min_size=1, max_size=3),
            st.lists(s, min_size=1, max_size=2).map(tuple),
            st.dictionaries(st.sampled_from(KEYS), s, min_size=1, max_size=2),
        )
    return st.recursive(st.just(None), grow, max_leaves=count)


def fill(outer, trees):
    if outer is None:
        return next(trees)
    if isinstance(outer, (list, tuple)):
        return type(outer)(fill(o, trees) for o in outer)
    return {k: fill(v, trees) for k, v in outer.items()}


@SETTINGS
@given(families(), outers(6))
def test_rise_inverts_subside(family, shape):
    skeleton, ragged = family
    trees = (tree_over(skeleton, i, ragged) for i in range(100))
    outer = fill(shape, trees)
    sunk = tt.subside(outer)
    assert tt.rise(sunk) == as_lists(outer)


# ---------------------------------------------------------------------------
# set / remove failures


def bad_writes(root):
    """(op, path, expected .path) for every failing set/remove the tree
    admits near its existing positions."""
    out = [("set_value", (), ()), ("remove", (), ())]
    for path, node in positions(root):
        if isinstance(node, tt.TreeNode):
            out.append(("set", path + ("zz", "y"), path + ("zz",)))
            out.append(("remove", path + ("zz",), path + ("zz",)))
            out.append(("remove", path + ("zz", "y"), path + ("zz", "y")))
        else:
            # a value-node parent; set reports the parent's path
            out.append(("set", path + ("y",), path))
            out.append(("set", path + ("y", "w"), path + ("y",)))
            out.append(("remove", path + ("y",), path + ("y",)))
    return out


@SETTINGS
@given(nodes(), st.booleans())
def test_set_and_remove_failures_name_the_path(root, constrained):
    t = tt.TreeTensor(root)
    if constrained:
        t = t.with_constraints({(): tt.noninherit_atom(tt.LeafCountIs(len(tt.leaves(t))))})
    value = leaf("f64", (2,))
    for op, path, where in bad_writes(root):
        with pytest.raises(PathNotFound) as info:
            if op == "remove":
                tt.remove(t, path)
            else:
                tt.set(t, path, value)
        assert info.value.path == where, (op, path)
