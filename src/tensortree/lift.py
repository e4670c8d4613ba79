"""Function lifting: turn leaf-level operations into tree-level ones.

A lifted function preserves structure and applies the underlying leaf
function at each leaf position. Strict arguments with the same structure
key (`node.flatten`) take one fast path: a pass over their leaf lists.
Key-set disagreements between tree arguments are resolved node by node by
a mismatch policy (strict / inner / outer / left).
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .leaf import TensorLeaf
from .node import Node, Path, TreeNode, ValueNode, flatten, leaf_path, unflatten
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
    if policy.kind == "strict":
        # fast path: dict key views compare as sets in C
        first = children_maps[0].keys()
        if all(m.keys() == first for m in children_maps[1:]):
            return list(first)
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
        payloads = [n.leaf for n in nodes]
        try:
            return fn(payloads)
        except LeafOpError:
            raise
        except TensorTreeError as exc:
            raise LeafOpError(path, exc) from exc
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


def _leafwise(fn, columns: Sequence[list], root: Node) -> list:
    """fn over each column of aligned leaf lists, in flatten order. A
    TensorTreeError becomes a LeafOpError at the failing leaf's path in
    `root`, which is looked up only then."""
    out = []
    try:
        for column in zip(*columns):
            out.append(fn(column))
    except TensorTreeError as exc:
        raise LeafOpError(leaf_path(root, len(out)), exc) from exc
    return out


def _lift(nodes: Sequence[Node], policy: MismatchPolicy, fn, batch=None) -> Node:
    """The strict fast path when every argument has the same structure key:
    fn runs over the leaf columns and the result takes that structure.
    `batch`, if given, is tried first on the leaf lists: it returns every
    output leaf at once, or None to leave the columns to fn. Other policies,
    and strict arguments whose structures differ (a missing key, or a value
    node facing a subtree), go through _apply_nodes."""
    if policy.kind == "strict":
        flat = [flatten(n) for n in nodes]
        structure = flat[0][0]
        if all(s == structure for s, _ in flat[1:]):
            lists = [ls for _, ls in flat]
            out = batch(lists) if batch else None
            if out is None:
                out = _leafwise(fn, lists, nodes[0])
            return unflatten(structure, out)
    return _apply_nodes(nodes, policy, fn)


def _as_node(arg) -> Node:
    if isinstance(arg, TreeTensor):
        return arg.root
    if isinstance(arg, Node):
        return arg  # a raw TensorLeaf is a value node already
    raise TypeError(f"cannot lift over a {type(arg).__name__}")


def lift_unary(fn_id: str) -> Callable[[TreeTensor], TreeTensor]:
    """Lift a registered unary leaf function to trees."""
    _lf.fn_arity(fn_id)  # fail fast on unknown ids

    def lifted(tree: TreeTensor, *, carry_constraints: bool = False) -> TreeTensor:
        """With carry_constraints, the result keeps the input's constraints
        and is validated in full; a violation raises ConstraintViolation."""
        root = _lift([_as_node(tree)], STRICT, lambda ls: _lf.ew_unary(fn_id, ls[0]))
        if not (carry_constraints and isinstance(tree, TreeTensor)):
            return TreeTensor(root)
        bad = first_violation(root, tree.constraints)
        if bad:
            raise ConstraintViolation(*bad)
        # strict lifting keeps the structure, so the trie still fits the root
        return TreeTensor._make(root, tree.constraints)

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
        nodes = [_as_node(a) for a in args]
        if arity == 1:
            root = _lift(nodes, policy, lambda ls: _lf.ew_unary(fn_id, ls[0]))
        else:
            root = _lift(nodes, policy, lambda ls: _lf.ew_nary(fn_id, ls))
        return TreeTensor(root)

    return lifted


# ---------------------------------------------------------------------------
# structural lifted ops


def lifted_stack(trees: Sequence[TreeTensor], axis: int = 0) -> TreeTensor:
    """Per-position leaf stack of structurally equal trees. As in strict
    lift_multi, a value node facing a subtree broadcasts into each of its
    leaves.

    Along axis 0 the output leaves of one call are read-only views into one
    buffer per dtype (`leaf.stack_axis0`), so a single surviving leaf keeps
    its dtype's whole buffer alive; `leaf.copy()` or `deep_copy` detaches it.
    """
    if not trees:
        raise EmptyInput("stack of zero trees")
    if not 0 <= axis:
        raise ShapeMismatchLeaf(f"negative stack axis {axis}")
    nodes = [_as_node(t) for t in trees]
    return TreeTensor(_lift(
        nodes, STRICT, lambda ls: _lf.stack(ls, axis),
        _lf.stack_axis0 if axis == 0 else None,
    ))


def lifted_cat(trees: Sequence[TreeTensor], axis: int = 0) -> TreeTensor:
    """Per-position leaf concatenation of structurally equal trees. As in
    strict lift_multi, a value node facing a subtree broadcasts into each of
    its leaves. Each output leaf is its own copy: one buffer per dtype, as
    lifted_stack does, costs more than it saves below about 1 MB a leaf.
    """
    if not trees:
        raise EmptyInput("cat of zero trees")
    if not 0 <= axis:
        raise ShapeMismatchLeaf(f"negative cat axis {axis}")
    nodes = [_as_node(t) for t in trees]
    return TreeTensor(_lift(nodes, STRICT, lambda ls: _lf.cat(ls, axis)))


def lifted_split(tree: TreeTensor, chunk: int, axis: int = 0) -> list[TreeTensor]:
    """Split every leaf; regroup piece i of each leaf into tree i. Every
    leaf must give the same number of pieces; subtrees without leaves are
    carried into every piece. The pieces are read-only views of the input
    leaves, not copies."""
    if chunk < 1:
        raise InvalidChunk(f"chunk must be >= 1, got {chunk}")
    node = _as_node(tree)
    structure, leaves = flatten(node)
    pieces = _leafwise(lambda ls: _lf.split(ls[0], chunk, axis), [leaves], node)
    counts = [len(p) for p in pieces]
    for i, n in enumerate(counts):
        if n != counts[0]:
            raise LeafOpError(leaf_path(node, i), TensorTreeError(
                f"split gives {n} pieces here but {counts[0]} at the first leaf"
            ))
    return [TreeTensor(unflatten(structure, column)) for column in zip(*pieces)]


def lifted_shape(tree: TreeTensor):
    """Tree of shape descriptors as a nested plain dict."""
    node = _as_node(tree)
    if isinstance(node, ValueNode):
        return list(node.leaf.shape)
    return {k: lifted_shape(c) for k, c in node.children.items()}


def lifted_surface() -> dict:
    """Catalogue of every lifted operation, keyed by stable fn_id.

    Elementwise entries are factories taking a policy; structural entries
    are the lifted callables themselves.
    """
    surface: dict[str, dict] = {}
    for fn_id in _lf.UNARY_FN_IDS:
        surface[fn_id] = {
            "kind": "unary",
            "arity": 1,
            "make": (lambda f: lambda policy=STRICT: lift_multi(f, policy))(fn_id),
        }
    for fn_id in _lf.BINARY_FN_IDS + _lf.NARY_FN_IDS:
        surface[fn_id] = {
            "kind": "elementwise",
            "arity": _lf.fn_arity(fn_id),
            "make": (lambda f: lambda policy=STRICT: lift_multi(f, policy))(fn_id),
        }
    surface["stack"] = {"kind": "structural", "fn": lifted_stack}
    surface["cat"] = {"kind": "structural", "fn": lifted_cat}
    surface["split"] = {"kind": "structural", "fn": lifted_split}
    surface["shape"] = {"kind": "query", "fn": lifted_shape}
    return surface
