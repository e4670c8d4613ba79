"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own vectorized code:
elementwise results are recomputed with python scalar loops, and lifted
results with a flatten / apply-per-leaf / rebuild reference.
"""

import math
import random
import string
from collections.abc import Mapping

import numpy as np

import tensortree as tt
from tensortree.constraints import EMPTY, Constraint, ConstraintTree, c_sum, inherit
from tensortree.errors import PathNotFound
from tensortree.node import Node, Path, ValueNode, check_key, flatten

LEAF_DTYPES = ("f32", "f64", "i64")
KEY_ALPHABET = string.ascii_lowercase


def rand_key(rng: random.Random) -> str:
    n = rng.randint(1, 4)
    return "".join(rng.choice(KEY_ALPHABET) for _ in range(n))


def rand_shape(rng: random.Random, max_elems: int = 64) -> tuple:
    ndim = rng.randint(0, 3)
    shape = []
    budget = max_elems
    for _ in range(ndim):
        d = rng.randint(1, max(1, min(4, budget)))
        shape.append(d)
        budget //= max(d, 1)
    return tuple(shape)


def rand_leaf(rng: random.Random, dtype=None, shape=None, max_elems=64) -> tt.TensorLeaf:
    dtype = dtype or rng.choice(LEAF_DTYPES)
    shape = rand_shape(rng, max_elems) if shape is None else tuple(shape)
    n = math.prod(shape)
    if dtype == "i64":
        data = [rng.randint(-20, 20) for _ in range(n)]
    elif dtype == "bool":
        data = [rng.random() < 0.5 for _ in range(n)]
    else:
        data = [round(rng.uniform(-4.0, 4.0), 3) for _ in range(n)]
    return tt.make_leaf(shape, dtype, data)


def rand_paths(rng: random.Random, max_depth=4, max_leaves=16) -> list:
    """A prefix-free set of leaf paths forming a valid tree skeleton."""
    n = rng.randint(1, max_leaves)
    paths: list[tuple] = []
    tried = 0
    while len(paths) < n and tried < 200:
        tried += 1
        depth = rng.randint(1, max_depth)
        p = tuple(rand_key(rng) for _ in range(depth))
        ok = True
        for q in paths:
            m = min(len(p), len(q))
            if p[:m] == q[:m]:
                ok = False
                break
        if ok:
            paths.append(p)
    return sorted(paths)


def rand_tree(rng: random.Random, max_depth=4, max_leaves=16, dtype=None,
              paths=None, shapes=None, dtypes=None, max_elems=64) -> tt.TreeTensor:
    paths = rand_paths(rng, max_depth, max_leaves) if paths is None else paths
    pairs = []
    for i, p in enumerate(paths):
        shape = None if shapes is None else shapes[i]
        dt = dtypes[i] if dtypes is not None else dtype
        pairs.append((p, rand_leaf(rng, dtype=dt, shape=shape, max_elems=max_elems)))
    return tt.rebuild(pairs)


def rand_tree_family(rng: random.Random, count: int, max_depth=4, max_leaves=16,
                     dtype=None, max_elems=64):
    """`count` structurally equal trees with matching per-path shapes/dtypes."""
    paths = rand_paths(rng, max_depth, max_leaves)
    shapes = [rand_shape(rng, max_elems) for _ in paths]
    dtypes = [dtype or rng.choice(LEAF_DTYPES) for _ in paths]
    return [
        rand_tree(rng, paths=paths, shapes=shapes, dtypes=dtypes, max_elems=max_elems)
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# scalar-loop elementwise oracles

_UNARY_PY = {
    "neg": lambda x: -x,
    "abs": abs,
    "square": lambda x: x * x,
    "exp": math.exp,
    "pow2": lambda x: 2.0 ** x,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)),
}
TRANSCENDENTAL = ("exp", "pow2", "sigmoid")

_BINARY_PY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}

_NARY_PY = {
    "mulsub": lambda x, y, z: x * y - z,
}


def _div_py(a, b, int_result):
    if int_result:
        if b == 0:
            raise ZeroDivisionError
        return a // b
    return a / b


def _promote_py(da, db):
    if da == db:
        return da
    floats = [d for d in (da, db) if d in ("f32", "f64")]
    return "f64" if "f64" in floats else "f32"


def _result_dtype(fn_id, dtypes):
    if fn_id in TRANSCENDENTAL:
        return "f64" if dtypes[0] == "i64" else dtypes[0]
    d = dtypes[0]
    for o in dtypes[1:]:
        d = _promote_py(d, o)
    return d


def oracle_unary(fn_id: str, leaf: tt.TensorLeaf) -> tt.TensorLeaf:
    out_dtype = _result_dtype(fn_id, [leaf.dtype])
    fn = _UNARY_PY[fn_id]
    if out_dtype == "f32":
        vals = [float(np.float32(fn(np.float32(x)))) for x in leaf.data]
    else:
        vals = [fn(x) for x in leaf.data]
    return tt.make_leaf(leaf.shape, out_dtype, vals)


def oracle_binary(fn_id: str, a: tt.TensorLeaf, b: tt.TensorLeaf) -> tt.TensorLeaf:
    # shapes must agree or one side be a 0-d scalar
    shape = b.shape if a.shape == () else a.shape
    av = a.data if a.shape == shape else a.data * math.prod(shape)
    bv = b.data if b.shape == shape else b.data * math.prod(shape)
    out_dtype = _result_dtype(fn_id, [a.dtype, b.dtype])
    if fn_id == "div":
        vals = [_div_py(x, y, out_dtype == "i64") for x, y in zip(av, bv)]
    else:
        fn = _BINARY_PY[fn_id]
        vals = [fn(x, y) for x, y in zip(av, bv)]
    if out_dtype == "f32":
        vals = [float(np.float32(v)) for v in vals]
    return tt.make_leaf(shape, out_dtype, vals)


def oracle_nary(fn_id: str, leaves) -> tt.TensorLeaf:
    fn = _NARY_PY[fn_id]
    shape = next((l.shape for l in leaves if l.shape != ()), ())
    cols = [l.data if l.shape == shape else l.data * math.prod(shape) for l in leaves]
    out_dtype = _result_dtype(fn_id, [l.dtype for l in leaves])
    vals = [fn(*xs) for xs in zip(*cols)]
    if out_dtype == "f32":
        vals = [float(np.float32(v)) for v in vals]
    return tt.make_leaf(shape, out_dtype, vals)


def leaves_close(a: tt.TensorLeaf, b: tt.TensorLeaf, rel=1e-12) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype in ("i64", "bool"):
        return a.data == b.data
    tol = rel if a.dtype == "f64" else 1e-5
    return all(
        x == y or abs(x - y) <= tol * max(abs(x), abs(y), 1.0)
        for x, y in zip(a.data, b.data)
    )


def trees_close(t1: tt.TreeTensor, t2: tt.TreeTensor, rel=1e-12) -> bool:
    l1, l2 = tt.leaves(t1), tt.leaves(t2)
    if [p for p, _ in l1] != [p for p, _ in l2]:
        return False
    return all(leaves_close(a, b, rel) for (_, a), (_, b) in zip(l1, l2))


def flat_apply_rebuild(fn, *trees) -> tt.TreeTensor:
    """Reference for lifted ops over structurally equal trees."""
    all_leaves = [tt.leaves(t) for t in trees]
    paths = [p for p, _ in all_leaves[0]]
    out = []
    for i, p in enumerate(paths):
        out.append((p, fn(*[ls[i][1] for ls in all_leaves])))
    return tt.rebuild(out)


def iter_leaves(node, prefix=()):
    """Depth-first, key-ascending (path, payload) pairs of a node, by a
    recursive walk over its children."""
    if isinstance(node, tt.ValueNode):
        yield prefix, node.leaf
    else:
        for k, child in node.children.items():
            yield from iter_leaves(child, prefix + (k,))


def build_reference(pairs):
    """(structure key, payloads) of `build_tree(pairs)` by the plain recipe:
    a mapping's items in key order, every key through `check_key` before any
    of its values is built, arrays through `from_array`, nodes and trees
    through `flatten`, python scalars as 0-d leaves."""
    payloads = []

    def walk(value):
        if isinstance(value, tt.TreeTensor):
            value = value.root
        if isinstance(value, tt.Node):
            key, found = flatten(value)
            payloads.extend(found)
            return key
        if isinstance(value, np.ndarray):
            payloads.append(tt.from_array(value))
            return None
        if isinstance(value, Mapping):
            items = sorted(value.items(), key=lambda kv: kv[0])
            for k, _ in items:
                check_key(k)
            return tuple((k, walk(v)) for k, v in items)
        tag = {bool: "bool", int: "i64", float: "f64"}[type(value)]
        payloads.append(tt.scalar(value, tag))
        return None

    return walk(dict(pairs)), payloads


def paper_tree() -> tt.TreeTensor:
    return tt.build_tree({"a": 2, "b": 3, "x": {"c": 5, "d": 7}})


# ---------------------------------------------------------------------------
# the dense constraint-tree reference: a trie position for every node


def mirror(node: Node, constraint: Constraint = EMPTY) -> ConstraintTree:
    """Reference oracle: all-`constraint` tree with the same shape as `node`."""
    if isinstance(node, ValueNode):
        return ConstraintTree(constraint)
    return ConstraintTree(
        constraint, {k: mirror(c, constraint) for k, c in node.children.items()}
    )


def distribute(ct: ConstraintTree) -> ConstraintTree:
    """Reference oracle: one top-down pass, child <- child + inherit(parent).

    A single pass reaches the fixpoint because the inherit map is idempotent.
    """
    inherited = inherit(ct.constraint)
    children = {
        k: distribute(ConstraintTree(c_sum([child.constraint, inherited]), child.children))
        for k, child in ct.children.items()
    }
    return ConstraintTree(ct.constraint, children)


def place(ct: ConstraintTree, path: Path, constraint: Constraint) -> ConstraintTree:
    """Reference oracle: add `constraint` at an existing position of a mirror."""
    if not path:
        return ConstraintTree(c_sum([ct.constraint, constraint]), ct.children)
    head, rest = path[0], path[1:]
    if head not in ct.children:
        raise PathNotFound(path)
    children = dict(ct.children)
    children[head] = place(children[head], rest, constraint)
    return ConstraintTree(ct.constraint, children)
