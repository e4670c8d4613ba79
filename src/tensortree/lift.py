"""Function lifting: turn leaf-level operations into tree-level ones.

A lifted function preserves structure and applies the underlying leaf
function at each leaf position. Strict tree arguments of one structure
(equal `TreeDef`s) take one path: a pass over their leaf lists, whose
result keeps that treedef, with no node built. Key-set disagreements
between tree arguments, and raw leaves broadcast against trees, are
resolved node by node by a mismatch policy (strict / inner / outer / left).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from . import leaf as _lf
from .constraints import first_violation
from .errors import (
    ArityMismatch,
    ConstraintViolation,
    DtypeUnsupported,
    EmptyInput,
    InvalidChunk,
    LeafOpError,
    MissingDefault,
    ShapeMismatchLeaf,
    StrictKeyMismatch,
    TensorTreeError,
)
from .leaf import TensorLeaf
from .node import Node, Path, TreeDef, TreeNode, flatten, treedef
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
    if policy.kind == "strict":
        union = set().union(*key_sets)
        inter = set.intersection(*key_sets)
        if union != inter:
            raise StrictKeyMismatch(union - inter)
        keys = union
    elif policy.kind == "inner":
        keys = set.intersection(*key_sets)
    elif policy.kind == "outer":
        keys = set().union(*key_sets)
    else:  # left
        keys = key_sets[0]
    return sorted(keys)


def _apply_nodes(
    nodes: Sequence[Node],
    policy: MismatchPolicy,
    fn: Callable[[Sequence[TensorLeaf]], TensorLeaf],
    path: Path = (),
) -> Node:
    """The policy machinery: merges key sets node by node and broadcasts a
    value node into every branch of a subtree it faces."""
    tree_nodes = [n for n in nodes if isinstance(n, TreeNode)]
    if not tree_nodes:
        return _leafwise(fn, [[n.leaf] for n in nodes], lambda _i: path)[0]
    try:
        keys = merge_keys([t._children for t in tree_nodes], policy)
    except StrictKeyMismatch as exc:
        raise StrictKeyMismatch(exc.difference, path) from exc
    flags = [isinstance(n, TreeNode) for n in nodes]
    children = {}
    for k in keys:
        sub = []
        for n, is_tree in zip(nodes, flags):
            if is_tree:
                child = n._children.get(k)
                if child is None:
                    if policy.default is None:
                        raise MissingDefault(
                            f"no child {k!r} at {'/'.join(path) or '<root>'} "
                            "and the policy carries no default"
                        )
                    child = policy.default
                sub.append(child)
            else:
                # value nodes and raw leaves broadcast into every branch
                sub.append(n)
        children[k] = _apply_nodes(sub, policy, fn, path + (k,))
    return TreeNode._from_validated(children)


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


def _check_tensors(path: Path, payloads) -> None:
    """Raise LeafOpError at `path` if a payload is not a TensorLeaf (a
    StructuredLeaf from a ragged or nested subside). Leaf ops call it only
    once they have failed, so trees of tensor leaves pay nothing."""
    for p in payloads:
        if not isinstance(p, TensorLeaf):
            cause = DtypeUnsupported(f"{type(p).__name__} payload is not a tensor")
            raise LeafOpError(path, cause)


def _lift(args: Sequence, policy: MismatchPolicy, fn, batch=None) -> TreeTensor:
    """The strict path when every argument is a tree and all share one
    structure: fn runs over the leaf columns and the result takes that
    structure. `batch`, if given, is tried first on the leaf lists: it
    returns every output leaf at once, or None to leave the columns to fn.
    Other policies, raw leaves, and strict trees whose structures differ (a
    missing key, or a value node facing a subtree), go through _apply_nodes."""
    if policy.kind == "strict" and all(isinstance(a, (TreeTensor, TreeNode)) for a in args):
        flat = [_flat(a) for a in args]
        td = flat[0][0]
        if all(other == td for other, _ in flat[1:]):
            lists = [ls for _, ls in flat]
            out = batch(lists) if batch else None
            if out is None:
                out = _leafwise(fn, lists, lambda i: td.paths[i])
            return TreeTensor._of(td, out)
    return TreeTensor(_apply_nodes([_as_node(a) for a in args], policy, fn))


def _flat(arg) -> tuple[TreeDef, list]:
    if isinstance(arg, TreeTensor):
        return arg._flat()
    if isinstance(arg, TreeNode):
        key, leaves = flatten(arg)
        return treedef(key, len(leaves)), leaves
    raise TypeError(f"cannot lift over a {type(arg).__name__}")


def _as_node(arg) -> Node:
    if isinstance(arg, TreeTensor):
        return arg.root
    if isinstance(arg, Node):
        return arg  # a raw TensorLeaf is a value node already
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
        bad = first_violation(out.root, tree.constraints)
        if bad:
            raise ConstraintViolation(*bad)
        # strict lifting keeps the structure, so the trie still fits the root
        return TreeTensor._of(*out._flat(), tree.constraints)

    return lifted


def lift_multi(fn_id: str, policy: MismatchPolicy = STRICT) -> Callable[..., TreeTensor]:
    """Lift a registered function of any arity; arguments may be trees or
    raw leaves (raw leaves broadcast like value nodes)."""
    arity = _lf.fn_arity(fn_id)

    def lifted(*args) -> TreeTensor:
        if len(args) != arity:
            raise ArityMismatch(f"{fn_id} takes {arity} arguments, got {len(args)}")
        if not any(isinstance(a, (TreeTensor, TreeNode)) for a in args):
            raise ArityMismatch("at least one argument must be a tree")
        return _lift(args, policy, lambda ls: _lf.ew_nary(fn_id, ls))

    return lifted


# ---------------------------------------------------------------------------
# structural lifted ops


def _joined(trees: Sequence[TreeTensor], axis: int, what: str, fn, batch=None) -> TreeTensor:
    if not trees:
        raise EmptyInput(f"{what} of zero trees")
    if not 0 <= axis:
        raise ShapeMismatchLeaf(f"negative {what} axis {axis}")
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
    its leaves. Each output leaf is its own copy: one buffer per dtype, as
    lifted_stack does, costs more than it saves below about 1 MB a leaf.
    """
    return _joined(trees, axis, "cat", lambda ls: _lf.cat(ls, axis))


def lifted_split(tree: TreeTensor, chunk: int, axis: int = 0) -> list[TreeTensor]:
    """Split every leaf; regroup piece i of each leaf into tree i. Every
    leaf must give the same number of pieces; subtrees without leaves are
    carried into every piece. The pieces are read-only views of the input
    leaves, not copies."""
    if chunk < 1:
        raise InvalidChunk(f"chunk must be >= 1, got {chunk}")
    td, leaves = _flat(tree)
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
    return _as_dict(td.key, iter(shapes))


def _as_dict(structure, items):
    """The nested plain dicts of a structure key, the next of `items` at
    each value position."""
    if structure is None:
        return next(items)
    return {k: _as_dict(s, items) for k, s in structure}


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
