"""The naive flat-dict baseline: each workload's steps written over plain
``{path tuple: ndarray}`` dicts, without tensortree.

These pipelines are both the denominator of ``overhead_ratio`` and the
reference every tree output is checked against, so they do the same array
work as the tree pipelines and never call the library.

A pipeline is a generator that yields ``(op name, thunk, view)`` and is sent
the thunk's result. The runner times each thunk, and compares
``view(result)`` (or the result itself when view is None) with the other
pipeline's value for the same op.
"""

from __future__ import annotations

import json

import numpy as np

from gen import BATCH, DTYPE_NAME, Placement, dtype_np, padded_group_document, tree_document

REJECTED = "rejected"  # result of a write that a constraint refuses


def _copy(a):
    return np.ascontiguousarray(a).copy()


def _mulsub(x, y, z):
    return x * y - z


# ---------------------------------------------------------------------------
# many-small / few-large


def batch_ops(b):
    """One step of the batch pipeline (mirrors pipelines.batch_ops)."""
    paths = b.paths
    default = np.array(0.0)
    ds = yield "build", lambda: [{p: _copy(a) for p, a in f.items()} for f in b.flats], None
    s = yield "subside", lambda: {p: np.stack([d[p] for d in ds]) for p in paths}, None
    yield "rise", lambda: [{p: s[p][i].copy() for p in paths} for i in range(BATCH)], None
    del s
    yield "stack", lambda: {p: np.stack([d[p] for d in ds], axis=0) for p in paths}, None
    c = yield "cat", lambda: {p: np.concatenate([d[p] for d in ds], axis=0) for p in paths}, None
    n = b.length
    yield "split", lambda: [{p: c[p][i * n:(i + 1) * n] for p in paths} for i in range(BATCH)], None
    del c
    d0, d1, d2 = ds[0], ds[1], ds[2]
    yield "neg", lambda: {p: np.negative(d0[p]) for p in paths}, None
    yield "add", lambda: {p: d0[p] + d1[p] for p in paths}, None
    yield "mulsub", lambda: {p: _mulsub(d0[p], d1[p], d2[p]) for p in paths}, None
    miss = b.missing
    yield "add_outer", lambda: {p: d0[p] + miss.get(p, default) for p in paths}, None
    g = yield "group_pad", lambda: group_pad(b.ragged, 0.0), None
    yield "unpad", lambda: unpad(*g), None
    del g
    keep = b.keep
    yield "filter", lambda: {p: a for p, a in ds[4].items() if p in keep}, None
    t = yield "set", lambda: persistent_sets(ds[5], b.sets), None
    pairs = yield "leaves", lambda: sorted(t.items()), None
    yield "rebuild", lambda: dict(pairs), None


def persistent_sets(d, sets):
    for p, a in sets:
        d = dict(d)  # no structural sharing: every set copies the whole dict
        d[p] = _copy(a)
    return d


def group_pad(flats, fill):
    stacked, lengths = {}, {}
    for p in flats[0]:
        parts = [f[p] for f in flats]
        lens = [a.shape[0] for a in parts]
        out = np.full((len(parts), max(lens)) + parts[0].shape[1:], fill, dtype=parts[0].dtype)
        for i, a in enumerate(parts):
            out[i, : a.shape[0]] = a
        stacked[p] = out
        lengths[p] = np.asarray(lens, dtype=np.int64)
    return stacked, lengths


def unpad(stacked, lengths):
    k = len(next(iter(lengths.values())))
    return [
        {p: np.ascontiguousarray(a[i, : int(lengths[p][i])]) for p, a in stacked.items()}
        for i in range(k)
    ]


# ---------------------------------------------------------------------------
# constrained-edit


def _atom_holds(kind, value, arr) -> bool:
    if kind == "dtype":
        return DTYPE_NAME[arr.dtype] == value
    if kind == "ndim":
        return arr.ndim == value
    if kind == "device":
        return value == "cpu"  # plain arrays live on the cpu
    raise ValueError(kind)


def violations(flat, placements) -> list:
    """Paths of the placements that flat breaks: one pass over the leaves,
    checking each against the placements on its ancestors."""
    at = {}
    for pl in placements:
        at.setdefault(pl.path, []).append(pl)
    bad, counts = set(), {}
    for path, arr in flat.items():
        for i in range(len(path)):
            for pl in at.get(path[:i], ()):
                if pl.inherit:
                    if not all(_atom_holds(k, v, arr) for k, v in pl.atoms):
                        bad.add(pl.path)
                else:
                    counts[pl.path] = counts.get(pl.path, 0) + 1
    for pl in placements:
        if not pl.inherit and not _node_atoms_hold(flat, pl, counts.get(pl.path, 0)):
            bad.add(pl.path)
    return sorted(bad)


def _node_atoms_hold(flat, pl: Placement, count: int) -> bool:
    for kind, value in pl.atoms:
        if kind == "leaf_count":
            if count != value:
                return False
        elif not _shapes_equal(flat, pl.path, value):
            return False
    return True


def _shapes_equal(flat, at, relative_paths) -> bool:
    targets = [at + rel for rel in relative_paths]
    return all(t in flat for t in targets) and len({flat[t].shape for t in targets}) == 1


def write_ok(new, placements, path, arr, count_delta: int) -> bool:
    """Incremental check of a write on a dict that met every placement.

    Only placements at an ancestor of path can break: inherited atoms on
    the written leaf, a leaf count that the write changes, and the shapes
    of the leaves a shapes_equal names.
    """
    for pl in placements:
        if path[: len(pl.path)] != pl.path:
            continue
        for kind, value in pl.atoms:
            if pl.inherit:
                if arr is not None and not _atom_holds(kind, value, arr):
                    return False
            elif kind == "leaf_count":
                if count_delta:
                    return False
            elif not _shapes_equal(new, pl.path, value):
                return False
    return True


def edit_ops(inputs, stream):
    """One step of constrained-edit (mirrors pipelines.edit_ops)."""
    placements = inputs.placements
    d = inputs.flat
    for kind, path, arr, must_reject in stream:
        if kind == "get":
            yield "get", lambda: d[path], None
        elif kind == "leaves":
            yield "leaves", lambda: sorted(d.items()), None
        else:
            def write():
                new = dict(d)
                if kind == "remove":
                    del new[path]
                    delta = -1
                else:
                    delta = 0 if path in new else 1
                    new[path] = _copy(arr)
                return new if write_ok(new, placements, path, arr, delta) else REJECTED
            out = yield kind, write, _written(path)
            if (out is REJECTED) != must_reject:
                raise RuntimeError(f"generator and naive checker disagree on {kind} {path}")
            if out is not REJECTED:
                d = out
    yield "validate_full", lambda: violations(d, placements), None
    yield "with_constraints", lambda: REJECTED if violations(d, placements) else d, None


def _written(path):
    """View of a write's result: the written leaf, None if absent."""
    return lambda out: out if out is REJECTED else out.get(path)


# ---------------------------------------------------------------------------
# cli-docs


def parse_document(text: str) -> dict:
    """Tree document text -> {path: array}; padded groups -> (stacked, lengths)."""
    obj = json.loads(text)
    if obj.get("__padded_group__") is True:
        return (_flat_doc(obj["stacked"]), _flat_doc(obj["lengths"]))
    obj.pop("__constraints__", None)
    return _flat_doc(obj)


def _flat_doc(obj, prefix=()) -> dict:
    if obj.get("__leaf__") is True:
        arr = np.array(obj["data"], dtype=dtype_np(obj["dtype"]))
        return {prefix: arr.reshape(obj["shape"])}
    out = {}
    for k, v in obj.items():
        out.update(_flat_doc(v, prefix + (k,)))
    return out


def cli_command(texts: dict, command: str):
    """The flat-dict version of one CLI step on the document texts.

    Returns (result, output text); result is what the CLI's stdout must
    parse to.
    """
    if command == "show":
        out = parse_document(texts["a.ttj"])
    elif command == "neg":
        out = {p: np.negative(a) for p, a in parse_document(texts["a.ttj"]).items()}
    elif command == "add":
        a, b = parse_document(texts["a.ttj"]), parse_document(texts["b.ttj"])
        zero = np.array(0.0)
        out = {p: x + b.get(p, zero) for p, x in a.items()}
    elif command == "validate":
        spec = json.loads(texts["spec.ttc"])
        placements = [_placement(e) for e in spec]
        bad = violations(parse_document(texts["a.ttj"]), placements)
        return ("ok" if not bad else bad), ("ok" if not bad else repr(bad))
    elif command == "pad":
        stacked, lengths = group_pad([parse_document(texts[f]) for f in ("r0.ttj", "r1.ttj")], 0.0)
        return (stacked, lengths), padded_group_document(stacked, lengths, 0.0)
    else:
        raise ValueError(command)
    return out, tree_document(out)


def _placement(entry) -> Placement:
    path = tuple(k for k in entry["path"].split("/") if k)
    atoms = []
    for a in entry["atoms"]:
        if a["kind"] == "shapes_equal":
            atoms.append(("shapes_equal", [tuple(k for k in p.split("/") if k) for p in a["paths"]]))
        else:
            atoms.append((a["kind"], a["value"]))
    return Placement(path, entry["inherit"], atoms)
