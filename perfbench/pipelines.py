"""The tree side of each in-process workload, written against tensortree's
public API, and the table of library calls the benchmark makes.

Every library call goes through ``calls``, a dict keyed by span name
``<layer>.<function>``. Untraced runs hold the library functions
themselves; traced runs hold wrappers that record a span per call. The
layer is the module whose work dominates the call: a ``set`` or
``remove`` on a constrained tree is counted as ``constraints``, because
constrained-edit replays the same write on the unconstrained tree under
``tree.set``/``tree.remove`` to split persistence from validation.

Each pipeline is a generator with the protocol described in naive.py and
yields the same op names, in the same order, as its naive counterpart.
"""

from __future__ import annotations

import tensortree as tt
from tensortree.errors import ConstraintViolation

from naive import REJECTED


def _leaf_count(args, out) -> int:
    trees = out if isinstance(out, list) else [out]
    return sum(len(tt.leaves(t)) for t in trees)


def _nbytes(args, leaf) -> int:
    return leaf.array.nbytes


def _text_in(args, out) -> int:
    return len(args[0])


def _text_out(args, out) -> int:
    return len(out)


def layer_calls(tracer=None) -> dict:
    """Span name -> callable. ``tracer.wrap(name, fn, size)`` adds spans;
    ``size(args, result)`` gives the span's work (leaves or bytes)."""
    outer = tt.MismatchPolicy("outer", default=tt.scalar(0.0))
    table = {
        "leaf.from_array": (tt.from_array, _nbytes),
        "tree.build_tree": (tt.build_tree, None),
        "tree.get": (tt.get, None),
        "tree.leaves": (tt.leaves, None),
        "tree.rebuild": (tt.rebuild, None),
        "tree.set": (tt.set, None),
        "tree.remove": (tt.remove, None),
        "lift.lifted_stack": (tt.lifted_stack, _leaf_count),
        "lift.lifted_cat": (tt.lifted_cat, _leaf_count),
        "lift.lifted_split": (tt.lifted_split, _leaf_count),
        "lift.lift_unary.neg": (tt.lift_unary("neg"), _leaf_count),
        "lift.lift_multi.add": (tt.lift_multi("add"), _leaf_count),
        "lift.lift_multi.mulsub": (tt.lift_multi("mulsub"), _leaf_count),
        "lift.lift_multi.add_outer": (tt.lift_multi("add", policy=outer), _leaf_count),
        "functional.subside": (tt.subside, None),
        "functional.rise": (tt.rise, None),
        "functional.filter": (tt.filter, None),
        "padding.group_pad": (tt.group_pad, None),
        "padding.unpad": (tt.unpad, None),
        "constraints.set": (tt.set, None),
        "constraints.remove": (tt.remove, None),
        "constraints.validate_full": (tt.validate_full, None),
        "constraints.with_constraints": (lambda t, pl: t.with_constraints(pl), None),
        "io_formats.parse_tree": (tt.parse_tree, _text_in),
        "io_formats.parse_constraint_spec": (tt.parse_constraint_spec, _text_in),
        "io_formats.serialize_tree": (tt.serialize_tree, _text_out),
        "io_formats.serialize_padded_group": (tt.serialize_padded_group, _text_out),
    }
    if tracer is None:
        return {name: fn for name, (fn, _) in table.items()}
    return {name: tracer.wrap(name, fn, size) for name, (fn, size) in table.items()}


# ---------------------------------------------------------------------------
# many-small / few-large


class BatchSide:
    """Library objects a batch step reuses: built once in set-up, because
    the library's values are immutable."""

    def __init__(self, b):
        self.missing = tt.build_tree(b.missing_nested)
        self.ragged = [tt.build_tree(n) for n in b.ragged_nested]


def batch_ops(c, b, side):
    """One step: build, subside/rise, stack/cat/split, lifted elementwise
    ops, group_pad/unpad, filter, 8 persistent sets, leaves/rebuild."""
    build = c["tree.build_tree"]
    trees = yield "build", lambda: [build(n) for n in b.nested], None
    s = yield "subside", lambda: c["functional.subside"](trees), None
    yield "rise", lambda: c["functional.rise"](s), None
    del s  # few-large holds 64 MiB per intermediate
    yield "stack", lambda: c["lift.lifted_stack"](trees, axis=0), None
    cat = yield "cat", lambda: c["lift.lifted_cat"](trees, axis=0), None
    yield "split", lambda: c["lift.lifted_split"](cat, b.length, axis=0), None
    del cat
    t0, t1, t2 = trees[0], trees[1], trees[2]
    yield "neg", lambda: c["lift.lift_unary.neg"](t0), None
    yield "add", lambda: c["lift.lift_multi.add"](t0, t1), None
    yield "mulsub", lambda: c["lift.lift_multi.mulsub"](t0, t1, t2), None
    yield "add_outer", lambda: c["lift.lift_multi.add_outer"](t0, side.missing), None
    g = yield "group_pad", lambda: c["padding.group_pad"](side.ragged, fill=0.0), None
    yield "unpad", lambda: c["padding.unpad"](g), None
    del g
    keep = b.keep
    yield "filter", lambda: c["functional.filter"](trees[4], lambda p, _: p in keep), None
    t = yield "set", lambda: _persistent_sets(c, trees[5], b.sets), None
    pairs = yield "leaves", lambda: c["tree.leaves"](t), None
    yield "rebuild", lambda: c["tree.rebuild"](pairs), None


def _persistent_sets(c, t, sets):
    set_, from_array = c["tree.set"], c["leaf.from_array"]
    for path, arr in sets:
        t = set_(t, path, from_array(arr))
    return t


# ---------------------------------------------------------------------------
# constrained-edit

_ATOMS = {
    "dtype": tt.DtypeIs,
    "ndim": tt.NdimIs,
    "device": tt.DeviceIs,
    "leaf_count": tt.LeafCountIs,
    "shapes_equal": lambda paths: tt.ShapesEqual(tuple(tuple(p) for p in paths)),
}


def placements(specs) -> dict:
    """gen.Placement specs -> the library's {path: Constraint}."""
    out = {}
    for pl in specs:
        make = tt.inherit_atom if pl.inherit else tt.noninherit_atom
        c = tt.c_sum([make(_ATOMS[kind](value)) for kind, value in pl.atoms])
        out[pl.path] = tt.c_sum([out[pl.path], c]) if pl.path in out else c
    return out


class EditSide:
    def __init__(self, inputs):
        self.placements = placements(inputs.placements)
        self.base = tt.build_tree(inputs.nested).with_constraints(self.placements)
        self.values = [
            [None if arr is None else tt.from_array(arr) for _, _, arr, _ in stream]
            for stream in inputs.streams
        ]


def _guarded(fn, *args):
    try:
        return fn(*args)
    except ConstraintViolation:
        return REJECTED


def _written(path):
    """View of a write's result: the written leaf, None if absent."""
    return lambda out: out if out is REJECTED else _get_or_none(out, path)


def _get_or_none(tree, path):
    try:
        return tt.get(tree, path)
    except tt.errors.PathNotFound:
        return None


def edit_ops(c, side, stream_index, stream, replay=None):
    """One step: the stream's reads and writes on the constrained base
    tree, then validate_full and one with_constraints re-attach.

    ``replay(op, thunk)`` is called after each write with a thunk that
    repeats it on the unconstrained tree; traced runs time it as
    tree.set/remove.
    """
    t = side.base
    values = side.values[stream_index]
    for (kind, path, _, _), leaf in zip(stream, values):
        if kind == "get":
            yield "get", lambda: c["tree.get"](t, path), None
        elif kind == "leaves":
            yield "leaves", lambda: c["tree.leaves"](t), None
        else:
            if kind == "remove":
                write = lambda: _guarded(c["constraints.remove"], t, path)
            else:
                write = lambda: _guarded(c["constraints.set"], t, path, leaf)
            out = yield kind, write, _written(path)
            if replay is not None:
                u = tt.TreeTensor(t.root)
                if kind == "remove":
                    replay(kind, lambda: c["tree.remove"](u, path))
                else:
                    replay(kind, lambda: c["tree.set"](u, path, leaf))
            if out is not REJECTED:
                t = out
    yield "validate_full", lambda: c["constraints.validate_full"](t), lambda bad: [p for p, _ in bad]
    yield "with_constraints", lambda: _guarded(c["constraints.with_constraints"], t, side.placements), None
