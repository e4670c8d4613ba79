"""Function lifting: turn leaf-level operations into tree-level ones.

A lifted function preserves structure and applies the underlying leaf
function at each leaf position. Tree arguments of one structure (equal
`TreeDef`s) take one path: a pass over their leaf lists, whose result keeps
that treedef. Key-set disagreements between tree arguments, and raw leaves
broadcast against trees, are resolved by a mismatch policy (strict / inner
/ outer / left) that merges the structure keys, memoised per structures
and policy kind; each argument then gives a leaf column over the merged
paths. Neither path builds a node. Elementwise lifts, stack, cat and split
try one batched call over the columns (`leaf.ew_columns`,
`leaf.join_columns`, `leaf.split_column`) before the per-leaf pass; a
packed tree's column goes in as its buffer, and the output is packed.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from . import leaf as _lf
from .constraints import first_violation
from .errors import (
    ArityMismatch,
    ConstraintViolation,
    EmptyInput,
    InvalidChunk,
    LeafOpError,
    MissingDefault,
    ShapeMismatchLeaf,
    StrictKeyMismatch,
    TensorTreeError,
)
from .leaf import TensorLeaf, _check_tensors
from .node import Node, Path, TreeDef, TreeNode, as_dict, treedef
from .tree import TreeTensor

POLICIES = ("strict", "inner", "outer", "left")


@dataclass(frozen=True)
class MismatchPolicy:
    """Key-merge rule plus the default leaf required by outer/left."""

    kind: str = "strict"
    default: TensorLeaf | None = None

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise ValueError(f"unknown policy {self.kind!r}")
        if self.kind in ("outer", "left"):
            if self.default is None:
                raise MissingDefault(f"{self.kind} policy requires a default leaf")
        elif self.default is not None:
            raise ValueError(f"{self.kind} policy forbids a default leaf")


STRICT = MismatchPolicy("strict")
INNER = MismatchPolicy("inner")


def merge_keys(children_maps: Sequence, policy: MismatchPolicy) -> list[str]:
    """Resolve the output key set of tree-node arguments under a policy."""
    if not children_maps:
        raise EmptyInput("merge_keys of zero tree nodes")
    key_sets = [set(m.keys()) for m in children_maps]
    union, inter = set().union(*key_sets), set.intersection(*key_sets)
    if policy.kind == "strict" and union != inter:
        raise StrictKeyMismatch(union - inter)
    return sorted({"inner": inter, "left": key_sets[0]}.get(policy.kind, union))


def _merge(keys: list, policy: MismatchPolicy, path: Path, mismatch: list):
    """The structure key of the lifted result at `path`, given the keys of
    the tree arguments there (None for a value node, which broadcasts, or
    for a key missing under outer/left, which takes the default). A strict
    key mismatch is appended to `mismatch` and leaves an empty subtree."""
    trees = [k for k in keys if k is not None]
    if not trees:
        return None
    if all(k == trees[0] for k in trees):
        return trees[0]  # an equal subtree merges to itself
    maps = [dict(k) for k in trees]
    try:
        names = merge_keys(maps, policy)
    except StrictKeyMismatch as exc:
        mismatch.append(StrictKeyMismatch(exc.difference, path))
        return ()
    return tuple((n, _merge([m.get(n) for m in maps], policy, path + (n,), mismatch)) for n in names)


def _gather(td: TreeDef, paths) -> list[int]:
    """The position in `td`'s leaf list of an argument's leaf at each merged
    path: its own, else that of its value-node ancestor, else `td.count`,
    where the caller puts the default. No path sorts between a leaf's and
    one below it, so the ancestor, if any, is the last path not after it."""
    own, out = td.paths, []
    for p in paths:
        i = bisect_right(own, p) - 1
        out.append(i if i >= 0 and own[i] == p[:len(own[i])] else td.count)
    return out


def _merged(tds: list[TreeDef], policy: MismatchPolicy) -> tuple[TreeDef, list, list]:
    """(merged treedef, gather list of each structure, None for the merged
    one, strict mismatches). A merge without mismatches is memoised on the
    first treedef, keyed by the policy kind and the others' serials (never
    reused), and holds the merged treedef weakly."""
    memo, key = tds[0]._merges, (policy.kind, *[t.serial for t in tds[1:]])
    hit = memo.get(key)
    td = hit and hit[0]()
    if td is not None:
        return td, hit[1], []
    mismatch: list = []
    td = treedef(_merge([t.key for t in tds], policy, (), mismatch))
    cut = bisect_left(td.paths, mismatch[0].path) if mismatch else None
    gathers = [None if t == td else _gather(t, td.paths[:cut]) for t in tds]
    if not mismatch:
        if len(memo) >= 16:  # a bound: entries for dead treedefs are never hit
            memo.clear()
        memo[key] = (weakref.ref(td), gathers)
    return td, gathers, mismatch


def _leafwise(fn, columns: Sequence[list], path_of: Callable[[int], Path]) -> list:
    """fn over each column of aligned leaf lists. A TensorTreeError, or a
    payload that is not a tensor, becomes a LeafOpError at `path_of(i)` for
    the failing column i, which is looked up only then."""
    out = []
    try:
        for column in zip(*columns):
            out.append(fn(column))
    except TensorTreeError as exc:
        raise LeafOpError(path_of(len(out)), exc) from exc
    except AttributeError:
        _check_tensors(path_of(len(out)), column)
        raise
    return out


def _lift(args: Sequence, policy: MismatchPolicy, fn, batch=None) -> TreeTensor:
    """fn over the leaf columns of the arguments. Trees of one structure
    give their leaf lists and the result takes that structure. Otherwise
    the structures are merged under the policy and each argument gives a
    column over the merged paths; a strict key mismatch is raised after
    the leaf ops that precede it in key order. `batch`, if given, is tried
    first on the columns: it returns every output leaf at once, or None to
    leave them to fn."""
    flat = [_flat(a) for a in args]
    tds = [td for td, _ in flat if td is not None]
    if not tds:
        raise ArityMismatch("at least one argument must be a tree")
    td, gathers, mismatch = tds[0], [None] * len(tds), []
    if not all(other == td for other in tds[1:]):
        td, gathers, mismatch = _merged(tds, policy)
    n = bisect_left(td.paths, mismatch[0].path) if mismatch else td.count
    gathers = iter(gathers)  # a raw leaf repeats; a tree gives its leaves or a gather of them
    columns = [[ls] * n if t is None else ls if (g := next(gathers)) is None
               else list(map([*ls, policy.default].__getitem__, g)) for t, ls in flat]
    out = batch(columns) if batch and not mismatch else None
    if out is None:
        out = _leafwise(fn, columns, lambda i: td.paths[i])
    if mismatch:
        raise mismatch[0]
    return TreeTensor._of(td, out)


def _flat(arg) -> tuple[TreeDef | None, list]:
    """(treedef, leaves) of a tree; (None, payload) of a raw leaf."""
    if isinstance(arg, TreeNode):
        arg = TreeTensor(arg)
    if isinstance(arg, TreeTensor):
        return arg._flat()
    if isinstance(arg, Node):
        return None, arg.leaf  # a raw TensorLeaf is its own value node
    raise TypeError(f"cannot lift over a {type(arg).__name__}")


def lift_unary(fn_id: str) -> Callable[[TreeTensor], TreeTensor]:
    """Lift a registered unary leaf function to trees: `lift_multi(fn_id)`
    plus an optional constraint carry."""
    apply = lift_multi(fn_id)

    def lifted(tree: TreeTensor, *, carry_constraints: bool = False) -> TreeTensor:
        """With carry_constraints, the result keeps the input's constraints
        and is validated in full; a violation raises ConstraintViolation."""
        out = apply(tree)
        if not (carry_constraints and isinstance(tree, TreeTensor)):
            return out
        bad = first_violation(out, tree.constraints)
        if bad:
            raise ConstraintViolation(*bad)
        # strict lifting keeps the structure, so the trie still fits it
        return TreeTensor._of(*out._flat(), tree.constraints)

    return lifted


def lift_multi(fn_id: str, policy: MismatchPolicy = STRICT) -> Callable[..., TreeTensor]:
    """Lift a registered function of any arity; arguments may be trees or
    raw leaves (raw leaves broadcast like value nodes).

    When `leaf.ew_columns` takes a call (one dtype, leaves of at most
    BATCH_MAX_ELEMENTS elements) the output leaves are read-only rows of
    one buffer, so a single surviving leaf keeps the call's whole buffer
    alive; `leaf.copy()` or `deep_copy` detaches it.
    """
    arity = _lf.fn_arity(fn_id)
    batch = partial(_lf.ew_columns, fn_id)

    def lifted(*args) -> TreeTensor:
        if len(args) != arity:
            raise ArityMismatch(f"{fn_id} takes {arity} arguments, got {len(args)}")
        return _lift(args, policy, lambda ls: _lf.ew_nary(fn_id, ls), batch)

    return lifted


# ---------------------------------------------------------------------------
# structural lifted ops


def _check_axis(axis: int, what: str) -> None:
    """Negative axes are rejected, even on a tree without leaves."""
    if axis < 0:
        raise ShapeMismatchLeaf(f"negative {what} axis {axis}")


def _joined(trees: Sequence[TreeTensor], axis: int, what: str, fn, batch=None) -> TreeTensor:
    if not trees:
        raise EmptyInput(f"{what} of zero trees")
    _check_axis(axis, what)
    return _lift(trees, STRICT, fn, batch)


def lifted_stack(trees: Sequence[TreeTensor], axis: int = 0) -> TreeTensor:
    """Per-position leaf stack of structurally equal trees. As in strict
    lift_multi, a value node facing a subtree broadcasts into each of its
    leaves.

    Along axis 0 the output leaves of one call are read-only views into one
    buffer per dtype (`leaf.stack_axis0`), so a single surviving leaf keeps
    its dtype's whole buffer alive; `leaf.copy()` or `deep_copy` detaches it.
    """
    batch = _lf.stack_axis0 if axis == 0 else None
    return _joined(trees, axis, "stack", lambda ls: _lf.stack(ls, axis), batch)


def lifted_cat(trees: Sequence[TreeTensor], axis: int = 0) -> TreeTensor:
    """Per-position leaf concatenation of structurally equal trees. As in
    strict lift_multi, a value node facing a subtree broadcasts into each of
    its leaves. Packed trees of one dtype give one concatenate, whose output
    leaves are read-only rows of one buffer (`leaf.join_columns`); otherwise
    each output leaf is its own copy.
    """
    batch = partial(_lf.join_columns, "cat", axis=axis)
    return _joined(trees, axis, "cat", lambda ls: _lf.cat(ls, axis), batch)


def lifted_split(tree: TreeTensor, chunk: int, axis: int = 0) -> list[TreeTensor]:
    """Split every leaf; regroup piece i of each leaf into tree i. Every
    leaf must give the same number of pieces; subtrees without leaves are
    carried into every piece. The pieces are read-only views of the input
    leaves, not copies; a packed tree is split as one buffer."""
    if chunk < 1:
        raise InvalidChunk(f"chunk must be >= 1, got {chunk}")
    _check_axis(axis, "split")
    td, leaves = _flat(tree)
    columns = _lf.split_column(leaves, chunk, axis)
    if columns:
        return [TreeTensor._of(td, c) for c in columns]
    path_of = lambda i: td.paths[i]  # noqa: E731
    pieces = _leafwise(lambda ls: _lf.split(ls[0], chunk, axis), [leaves], path_of)
    counts = [len(p) for p in pieces]
    for i, n in enumerate(counts):
        if n != counts[0]:
            raise LeafOpError(path_of(i), TensorTreeError(
                f"split gives {n} pieces here but {counts[0]} at the first leaf"
            ))
    return [TreeTensor._of(td, list(column)) for column in zip(*pieces)]


def lifted_shape(tree: TreeTensor):
    """Tree of shape descriptors as a nested plain dict."""
    td, leaves = _flat(tree)
    shapes = _leafwise(lambda ls: list(ls[0].shape), [leaves], lambda i: td.paths[i])
    return as_dict(td.key, iter(shapes))


def lifted_surface() -> dict:
    """Catalogue of every lifted operation, keyed by stable fn_id.

    Elementwise entries are factories taking a policy; structural entries
    are the lifted callables themselves.
    """
    surface: dict[str, dict] = {}
    for fn_id, (arity, _) in _lf._FNS.items():
        surface[fn_id] = {
            "kind": "unary" if arity == 1 else "elementwise",
            "arity": arity,
            "make": partial(lift_multi, fn_id),
        }
    surface["stack"] = {"kind": "structural", "fn": lifted_stack}
    surface["cat"] = {"kind": "structural", "fn": lifted_cat}
    surface["split"] = {"kind": "structural", "fn": lifted_split}
    surface["shape"] = {"kind": "query", "fn": lifted_shape}
    return surface
