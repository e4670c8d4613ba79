"""Seeded input generators for the four workloads.

Nothing here imports tensortree: the library receives only what these
functions return. Every size that sets the cost of a step (leaf counts,
leaf lengths, dtype mix, number of writes and rejections) is fixed, so
different seeds give inputs of equal cost and differ only in structure and
values.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("many-small", "few-large", "constrained-edit", "cli-docs")

BATCH = 8  # trees per batch in many-small and few-large


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# structure


def _keys(rng, k: int) -> list[str]:
    keys: set[str] = set()
    while len(keys) < k:
        letters = rng.choice(list(string.ascii_lowercase), size=int(rng.integers(1, 4)))
        keys.add("".join(letters) + str(int(rng.integers(0, 100))))
    return sorted(keys)


SHAPE_ENTROPY = 2602_08517  # fixed: the tree shape is not drawn from the seed


def leaf_paths(rng, n_leaves: int, workload: str) -> list[tuple]:
    """Sorted leaf paths of a random tree with exactly n_leaves leaves and a
    fan-out of 2 to 8 at every inner node.

    The shape (fan-outs and subtree sizes, in key order) is the same for
    every seed of a workload, because it sets the cost of a step; the seed
    picks the keys.
    """
    shape = np.random.default_rng([SHAPE_ENTROPY, WORKLOADS.index(workload)])
    return _paths(shape, rng, n_leaves, ())


def _paths(shape, rng, n_leaves: int, prefix: tuple) -> list[tuple]:
    if n_leaves == 1 and prefix:
        return [prefix]
    k = int(min(n_leaves, shape.integers(2, 9)))
    cuts = np.sort(shape.choice(np.arange(1, n_leaves), k - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [n_leaves])))
    out = []
    for key, size in zip(_keys(rng, k), sizes):
        out.extend(_paths(shape, rng, int(size), prefix + (key,)))
    return sorted(out)


def nest(flat: dict) -> dict:
    """{path tuple: value} -> nested dict."""
    root: dict = {}
    for path, value in flat.items():
        cur = root
        for key in path[:-1]:
            cur = cur.setdefault(key, {})
        cur[path[-1]] = value
    return root


def inner_nodes(paths) -> list[tuple]:
    """Every proper, non-empty prefix of the given leaf paths, sorted."""
    return sorted({p[:i] for p in paths for i in range(1, len(p))})


def _values(rng, shape, dtype: str) -> np.ndarray:
    """Seeded values; float leaves get one NaN and one -0.0."""
    if dtype == "i64":
        return rng.integers(-1000, 1000, size=shape, dtype=np.int64)
    arr = rng.standard_normal(shape).astype(dtype_np(dtype))
    if arr.size >= 4:
        flat = arr.reshape(-1)
        flat[int(rng.integers(flat.size))] = np.nan
        flat[int(rng.integers(flat.size))] = -0.0
    return arr


_NP = {"f32": np.float32, "f64": np.float64, "i64": np.int64, "bool": np.bool_}
DTYPE_NAME = {np.dtype(v): k for k, v in _NP.items()}  # numpy dtype -> library tag


def dtype_np(dtype: str):
    return _NP[dtype]


# ---------------------------------------------------------------------------
# many-small / few-large


@dataclass
class BatchInputs:
    """One batch of structurally equal trees plus the side inputs of a step."""

    paths: list
    length: int  # axis-0 length of every leaf
    flats: list  # BATCH dicts {path: array}
    nested: list  # the same arrays as nested dicts
    missing: dict  # flats[3] minus about 5% of its leaves
    ragged: list  # BATCH copies of flats cut along axis 0
    keep: frozenset  # paths the filter keeps
    sets: list  # (path, array) replacements applied to flats[5]

    @property
    def missing_nested(self):
        return nest(self.missing)

    @property
    def ragged_nested(self):
        return [nest(f) for f in self.ragged]


def batch_inputs(rng, workload, n_leaves: int, length: int, dtypes: list) -> BatchInputs:
    """dtypes[i] is the dtype of the i-th leaf path (shuffled by the caller)."""
    paths = leaf_paths(rng, n_leaves, workload)
    dt = dict(zip(paths, dtypes))
    flats = [
        {p: _values(rng, (length,), dt[p]) for p in paths} for _ in range(BATCH)
    ]
    n_missing = max(1, round(0.05 * n_leaves))
    drop = {paths[i] for i in rng.choice(n_leaves, n_missing, replace=False)}
    missing = {p: a for p, a in flats[3].items() if p not in drop}
    ragged = []
    for f in flats:
        cut = rng.integers(length // 2, length + 1, size=n_leaves)
        ragged.append({p: f[p][: int(c)].copy() for p, c in zip(paths, cut)})
    keep = frozenset(paths[i] for i in rng.choice(n_leaves, (7 * n_leaves) // 10, replace=False))
    set_paths = [paths[i] for i in rng.choice(n_leaves, BATCH, replace=False)]
    sets = [(p, _values(rng, (length,), dt[p])) for p in set_paths]
    return BatchInputs(paths, length, flats, [nest(f) for f in flats], missing, ragged, keep, sets)


def many_small(seed: int) -> BatchInputs:
    rng = rng_for(seed, "many-small")
    return batch_inputs(rng, "many-small", 1024, 16, ["f64"] * 1024)


def few_large(seed: int) -> BatchInputs:
    rng = rng_for(seed, "few-large")
    dtypes = list(rng.permutation(["f32"] * 8 + ["f64"] * 8))
    return batch_inputs(rng, "few-large", 16, 65536, dtypes)


# ---------------------------------------------------------------------------
# constrained-edit

# Atom specs are plain tuples, read by the naive checker and turned into
# library atoms by the pipeline: ("dtype", str), ("ndim", int),
# ("device", str), ("leaf_count", int), ("shapes_equal", [relative paths]).

N_EDIT_LEAVES = 1024
WRITES = {"replace": 7, "insert": 6, "remove": 5}
REJECTED_WRITES = 2  # of 20 writes per stream
GETS = 30
LEAVES_READS = 2
STREAMS = 4


@dataclass
class Placement:
    path: tuple
    inherit: bool
    atoms: list


@dataclass
class EditInputs:
    flat: dict  # base tree {path: array}
    placements: list  # [Placement]
    streams: list  # [[op]]; op = (kind, path, array or None, must_reject)

    @property
    def nested(self):
        return nest(self.flat)


_EDIT_SHAPES = [(8,), (6,), (2, 4), (3, 3)]


def constrained_edit(seed: int) -> EditInputs:
    rng = rng_for(seed, "constrained-edit")
    paths = leaf_paths(rng, N_EDIT_LEAVES, "constrained-edit")
    tops = sorted({p[0] for p in paths})
    dtype_of = {t: ("f32", "f64", "i64")[i % 3] for i, t in enumerate(rng.permutation(tops))}
    shape_of = {t: _EDIT_SHAPES[int(rng.integers(len(_EDIT_SHAPES)))] for t in tops}
    flat = {p: _values(rng, shape_of[p[0]], dtype_of[p[0]]) for p in paths}

    placements = [Placement((), True, [("device", "cpu")])]
    for t in tops:
        placements.append(Placement((t,), True, [("dtype", dtype_of[t]), ("ndim", len(shape_of[t]))]))
    inner = [n for n in inner_nodes(paths) if len(n) >= 2]
    under = {n: [p for p in paths if p[: len(n)] == n] for n in inner}
    candidates = [n for n in inner if len(under[n]) >= 3]
    picks = [candidates[i] for i in rng.choice(len(candidates), 6, replace=False)]
    locked = picks[:3]
    for n in locked:
        placements.append(Placement(n, False, [("leaf_count", len(under[n]))]))
    pinned: set = set()
    for n in picks[3:]:
        refs = [under[n][i] for i in rng.choice(len(under[n]), 2, replace=False)]
        pinned.update(refs)
        placements.append(Placement(n, False, [("shapes_equal", [r[len(n):] for r in refs])]))

    def is_locked(path):
        return any(path[: len(n)] == n for n in locked)

    removable = [p for p in paths if not is_locked(p) and p not in pinned]
    open_parents = [n for n in inner_nodes(paths) if not is_locked(n)]
    locked_parents = [n for n in inner_nodes(paths) if is_locked(n)]
    locked_leaves = [p for p in paths if is_locked(p)]
    pinned_list = sorted(pinned)

    def leaf_like(path, dtype=None, shape=None):
        top = path[0]
        return _values(rng, shape or shape_of[top], dtype or dtype_of[top])

    streams = []
    for s in range(STREAMS):
        removed = [removable[i] for i in rng.choice(len(removable), WRITES["remove"], replace=False)]
        stable = [p for p in paths if p not in set(removed)]
        writes = [("remove", p, None, False) for p in removed]
        for i in rng.choice(len(stable), WRITES["replace"], replace=False):
            writes.append(("replace", stable[i], leaf_like(stable[i]), False))
        for j in range(WRITES["insert"]):
            parent = open_parents[int(rng.integers(len(open_parents)))]
            path = parent + (f"ins{s}x{j}",)
            writes.append(("insert", path, leaf_like(path), False))
        for j, kind in enumerate(rng.choice(4, REJECTED_WRITES, replace=False)):
            if kind == 0:  # wrong dtype under an inherited DtypeIs
                p = stable[int(rng.integers(len(stable)))]
                wrong = "i64" if dtype_of[p[0]] != "i64" else "f64"
                writes.append(("replace", p, leaf_like(p, dtype=wrong), True))
            elif kind == 1:  # changes a LeafCountIs count
                parent = locked_parents[int(rng.integers(len(locked_parents)))]
                path = parent + (f"bad{s}x{j}",)
                writes.append(("insert", path, leaf_like(path), True))
            elif kind == 2:
                p = locked_leaves[int(rng.integers(len(locked_leaves)))]
                writes.append(("remove", p, None, True))
            else:  # breaks a ShapesEqual
                p = pinned_list[int(rng.integers(len(pinned_list)))]
                shape = shape_of[p[0]][:-1] + (shape_of[p[0]][-1] + 1,)
                writes.append(("replace", p, leaf_like(p, shape=shape), True))
        # Reads and replaces target only `stable` paths, which no accepted
        # removal touches, so any order of the stream is valid.
        reads = [("get", stable[int(rng.integers(len(stable)))], None, False) for _ in range(GETS)]
        reads += [("leaves", (), None, False)] * LEAVES_READS
        ops = writes + reads
        streams.append([ops[i] for i in rng.permutation(len(ops))])
    return EditInputs(flat, placements, streams)


# ---------------------------------------------------------------------------
# cli-docs

N_DOC_LEAVES = 256
DOC_LENGTH = 1024
CLI_COMMANDS = ("show", "neg", "add", "validate", "pad")


@dataclass
class DocInputs:
    a: dict  # {path: f64 array}
    b: dict  # a's structure minus about 5% of the leaves, other values
    ragged: list  # two ragged copies of a's structure
    placements: list  # [Placement] that a satisfies

    def documents(self) -> dict[str, str]:
        """File name -> canonical document text."""
        return {
            "a.ttj": tree_document(self.a),
            "b.ttj": tree_document(self.b),
            "r0.ttj": tree_document(self.ragged[0]),
            "r1.ttj": tree_document(self.ragged[1]),
            "spec.ttc": spec_document(self.placements),
        }


def _doc_values(rng, n: int) -> np.ndarray:
    # two decimals keep a document near 1.6 MB
    return np.round(rng.uniform(-10.0, 10.0, size=n), 2)


def cli_docs(seed: int) -> DocInputs:
    rng = rng_for(seed, "cli-docs")
    paths = leaf_paths(rng, N_DOC_LEAVES, "cli-docs")
    a = {p: _doc_values(rng, DOC_LENGTH) for p in paths}
    n_missing = round(0.05 * N_DOC_LEAVES)
    drop = {paths[i] for i in rng.choice(N_DOC_LEAVES, n_missing, replace=False)}
    b = {p: _doc_values(rng, DOC_LENGTH) for p in paths if p not in drop}
    ragged = [
        {p: _doc_values(rng, int(rng.integers(DOC_LENGTH // 2, DOC_LENGTH + 1))) for p in paths}
        for _ in range(2)
    ]
    inner = inner_nodes(paths)
    counted = inner[int(rng.integers(len(inner)))]
    shaped = inner[int(rng.integers(len(inner)))]
    under = [p[len(shaped):] for p in paths if p[: len(shaped)] == shaped]
    placements = [
        Placement((), True, [("dtype", "f64"), ("ndim", 1), ("device", "cpu")]),
        Placement(counted, False, [("leaf_count", sum(p[: len(counted)] == counted for p in paths))]),
        Placement(shaped, False, [("shapes_equal", under[:2])]),
    ]
    return DocInputs(a, b, ragged, placements)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def leaf_doc(arr: np.ndarray) -> dict:
    return {"__leaf__": True, "data": arr.reshape(-1).tolist(), "device": "cpu",
            "dtype": DTYPE_NAME[arr.dtype], "shape": list(arr.shape)}


def tree_doc(flat: dict) -> dict:
    return nest({p: leaf_doc(a) for p, a in flat.items()})


def tree_document(flat: dict) -> str:
    """Canonical tree document (.ttj) text of {path: array}."""
    return _json(tree_doc(flat))


def padded_group_document(stacked: dict, lengths: dict, fill: float) -> str:
    return _json({"__padded_group__": True, "fill": fill,
                  "stacked": tree_doc(stacked), "lengths": tree_doc(lengths)})


def _atom_doc(atom) -> dict:
    kind, value = atom
    if kind == "shapes_equal":
        return {"kind": kind, "paths": ["/".join(p) for p in value]}
    return {"kind": kind, "value": value}


def spec_document(placements) -> str:
    return _json([
        {"path": "/".join(pl.path), "inherit": pl.inherit, "atoms": [_atom_doc(a) for a in pl.atoms]}
        for pl in placements
    ])
