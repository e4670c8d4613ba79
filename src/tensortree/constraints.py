"""Constraint DSL, algebra, inheritance and constraint-tree machinery.

A constraint is a canonical conjunction (``Sum``) of atoms, each flagged as
inheriting or non-inheriting. Inheriting atoms hold for a tree node iff they
hold on all descendants; non-inheriting atoms are pinned to a single node
and their inherited form is the empty constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .errors import ConstraintViolation, PathNotFound
from .leaf import TensorLeaf
from .node import Node, Path, TreeNode, ValueNode, flatten, get_node

# ---------------------------------------------------------------------------
# atoms


class _Atom:
    """Base of the atoms: every int field must be >= 0."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 0:
                raise ValueError(f"{type(self).__name__}.{f.name} must be >= 0, got {value}")


@dataclass(frozen=True)
class DtypeIs(_Atom):
    dtype: str


@dataclass(frozen=True)
class NdimIs(_Atom):
    n: int


@dataclass(frozen=True)
class DimEquals(_Atom):
    axis: int
    size: int


@dataclass(frozen=True)
class DimAtLeast(_Atom):
    axis: int
    size: int


@dataclass(frozen=True)
class DeviceIs(_Atom):
    tag: str


@dataclass(frozen=True)
class LeafCountIs(_Atom):
    """Subtree leaf count; non-inheriting only."""

    n: int


@dataclass(frozen=True)
class ShapesEqual(_Atom):
    """Leaves at the given relative paths share one shape; non-inheriting only."""

    paths: tuple[Path, ...]


@dataclass(frozen=True)
class SharedPrefix(_Atom):
    """Leaves at the given relative paths agree on the first k dims."""

    paths: tuple[Path, ...]
    k: int


_NODE_ATOMS = (LeafCountIs, ShapesEqual, SharedPrefix)


def _leaf_atom_holds(atom, leaf: TensorLeaf) -> bool:
    if isinstance(atom, DtypeIs):
        return leaf.dtype == atom.dtype
    if isinstance(atom, NdimIs):
        return leaf.ndim == atom.n
    if isinstance(atom, DimEquals):
        return atom.axis < leaf.ndim and leaf.shape[atom.axis] == atom.size
    if isinstance(atom, DimAtLeast):
        return atom.axis < leaf.ndim and leaf.shape[atom.axis] >= atom.size
    if isinstance(atom, DeviceIs):
        return leaf.device == atom.tag
    raise TypeError(f"not a leaf atom: {atom!r}")


def _node_atom_holds(atom, node: Node) -> bool:
    if isinstance(atom, LeafCountIs):
        return len(flatten(node)[1]) == atom.n
    shapes = []
    for p in atom.paths:
        target = get_node(node, p)
        if not isinstance(target, TensorLeaf):
            return False
        shapes.append(target.shape)
    if isinstance(atom, ShapesEqual):
        return all(s == shapes[0] for s in shapes)
    if isinstance(atom, SharedPrefix):
        return all(len(s) >= atom.k and s[: atom.k] == shapes[0][: atom.k] for s in shapes)
    raise TypeError(f"not a node atom: {atom!r}")


def _atom_key(entry):
    inh, atom = entry
    fields = tuple(
        v if not isinstance(v, tuple) else repr(v) for v in vars(atom).values()
    )
    return (type(atom).__name__, fields, inh)


# ---------------------------------------------------------------------------
# constraints


class Constraint:
    """Canonical conjunction of (inherit-flag, atom) entries; () is empty."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[bool, object]] = ()):
        dedup = sorted(set(entries), key=_atom_key)
        for inh, atom in dedup:
            if inh and isinstance(atom, _NODE_ATOMS):
                raise ValueError(f"{type(atom).__name__} cannot be inheriting")
        self.entries = tuple(dedup)

    def __eq__(self, other):
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __repr__(self):
        if not self.entries:
            return "Empty"
        parts = [
            f"{'I' if inh else 'N'}:{atom!r}" for inh, atom in self.entries
        ]
        return f"Sum[{', '.join(parts)}]"


EMPTY = Constraint()


def inherit_atom(atom) -> Constraint:
    return Constraint([(True, atom)])


def noninherit_atom(atom) -> Constraint:
    return Constraint([(False, atom)])


def c_sum(cs: Sequence[Constraint]) -> Constraint:
    entries = []
    for c in cs:
        entries.extend(c.entries)
    return Constraint(entries)


def is_empty(c: Constraint) -> bool:
    return not c.entries


def inherit(c: Constraint) -> Constraint:
    """The inherit map: keeps inheriting atoms, drops the rest."""
    return Constraint([(inh, atom) for inh, atom in c.entries if inh])


def _atom_implies(a1, a2) -> bool:
    if a1 == a2:
        return True
    if isinstance(a1, DimAtLeast) and isinstance(a2, DimAtLeast):
        return a1.axis == a2.axis and a1.size >= a2.size
    if isinstance(a1, DimEquals) and isinstance(a2, DimAtLeast):
        return a1.axis == a2.axis and a1.size >= a2.size
    return False


def covers(c1: Constraint, c2: Constraint) -> bool:
    """True iff every node satisfying c1 satisfies c2 (decided syntactically)."""
    return all(
        any(inh1 == inh2 and _atom_implies(a1, a2) for inh1, a1 in c1.entries)
        for inh2, a2 in c2.entries
    )


def equals(c1: Constraint, c2: Constraint) -> bool:
    return covers(c1, c2) and covers(c2, c1)


def satisfies(c: Constraint, n: Node) -> bool:
    """Full (recursive) satisfaction check of a constraint on a node: the
    local check of every position under `n` against a one-position trie."""
    return first_violation(n, ConstraintTree(c)) is None


def _local_ok(c: Constraint, n: Node) -> bool:
    """Non-recursive check of a node against its effective constraint.

    Inheriting atoms are checked only at value nodes: every descendant's
    effective constraint carries them, so the local check is complete and
    each failure is reported once, at the most specific path. A TensorLeaf
    is its own value node; any other value node fails every leaf atom.
    """
    tensor = isinstance(n, TensorLeaf)
    value = tensor or isinstance(n, ValueNode)
    for inh, atom in c.entries:
        if inh:
            if value and not (tensor and _leaf_atom_holds(atom, n)):
                return False
        elif isinstance(atom, _NODE_ATOMS):
            if not _node_atom_holds(atom, n):
                return False
        elif not (tensor and _leaf_atom_holds(atom, n)):
            return False
    return True


# ---------------------------------------------------------------------------
# constraint trees


class ConstraintTree:
    """Trie of constraint placements over a node tree.

    A node's effective constraint is its own entries plus what its parent
    passes down, ``inherit(effective(parent))``. The tries the library
    builds are sparse: they hold only the positions on paths to placements,
    each position stores only the entries its parent does not already pass
    down, and empty positions are pruned, so two trees with the same
    effective constraints have equal tries. A dense trie (the test suite's
    reference builds one) is accepted wherever a sparse one is, because
    deriving an effective constraint again is idempotent.
    """

    __slots__ = ("constraint", "children", "_trivial")

    def __init__(self, constraint: Constraint = EMPTY, children: dict | None = None):
        self.constraint = constraint
        self.children = dict(sorted((children or {}).items()))
        self._trivial = is_empty(constraint) and all(
            c.is_trivial for c in self.children.values()
        )

    @property
    def is_trivial(self) -> bool:
        return self._trivial

    def child(self, key: str) -> "ConstraintTree":
        return self.children.get(key, TRIVIAL)

    def __eq__(self, other):
        if not isinstance(other, ConstraintTree):
            return NotImplemented
        if self._trivial or other._trivial:
            # an all-empty tree is equal to any all-empty tree regardless of
            # how many empty positions it materializes
            return self._trivial and other._trivial
        return self.constraint == other.constraint and self.children == other.children

    def __repr__(self):
        return f"ConstraintTree({self.constraint!r}, {self.children!r})"


#: shared all-empty tree used as the default for unconstrained TreeTensors
TRIVIAL = ConstraintTree()


def effective(node: Node, ct: ConstraintTree, prefix: Path = (), inherited: Constraint = EMPTY):
    """Pre-order (path, node, effective constraint) of every node under
    `node` whose effective constraint is not empty.

    `inherited` is what the parent passes down. Below the last trie
    position it is already closed under `inherit` and passes on unchanged.
    """
    own = ct.constraint
    eff = c_sum([own, inherited]) if own else inherited
    if eff:
        yield prefix, node, eff
    if not isinstance(node, TreeNode):
        return
    down = inherit(eff) if own else inherited
    if ct.children:
        for k, child in node.children.items():
            yield from effective(child, ct.child(k), prefix + (k,), down)
    elif down:
        yield from _passed_down(node, prefix, down)


def _passed_down(node: TreeNode, prefix: Path, inherited: Constraint):
    # `effective` below the last trie position, where every node's effective
    # constraint is `inherited`; unlike `effective` it makes no generator per
    # value node, which most nodes are
    for k, child in node.children.items():
        path = prefix + (k,)
        yield path, child, inherited
        if isinstance(child, TreeNode):
            yield from _passed_down(child, path, inherited)


def _violating(node: Node, ct: ConstraintTree, prefix: Path = (), inherited: Constraint = EMPTY):
    for path, n, eff in effective(node, ct, prefix, inherited):
        if not _local_ok(eff, n):
            yield path, eff


def violations(node: Node, ct: ConstraintTree, prefix: Path = ()) -> list[tuple[Path, Constraint]]:
    """All (path, effective constraint) pairs failing the local check, in
    pre-order."""
    return list(_violating(node, ct, prefix))


def first_violation(node: Node, ct: ConstraintTree) -> tuple[Path, Constraint] | None:
    """The first entry of `violations(node, ct)`, or None; stops there."""
    return next(_violating(node, ct), None)


def sparse(ct: ConstraintTree, node: Node, inherited: Constraint = EMPTY) -> ConstraintTree:
    """The sparse trie with the same effective constraints as `ct` on `node`.

    Each position keeps its entries minus what its parent passes down;
    positions that are empty, or absent from `node`, are dropped.
    """
    own = ct.constraint
    kept = [e for e in own.entries if e not in inherited.entries]
    children = {}
    if ct.children and isinstance(node, TreeNode):
        down = inherit(c_sum([own, inherited])) if own else inherited
        for k, child in ct.children.items():
            sub = node.get(k)
            if sub is not None:
                child = sparse(child, sub, down)
                if not child.is_trivial:
                    children[k] = child
    if not kept and not children:
        return TRIVIAL
    return ConstraintTree(Constraint(kept), children)


def _trie(placements: dict[Path, Constraint]) -> ConstraintTree:
    heads: dict[str, dict] = {}
    for path, c in placements.items():
        if path:
            heads.setdefault(path[0], {})[path[1:]] = c
    return ConstraintTree(
        placements.get((), EMPTY), {k: _trie(sub) for k, sub in heads.items()}
    )


def build_constraint_tree(node: Node, placements: dict[Path, Constraint]) -> ConstraintTree:
    """Sparse trie of the placements over `node`, validated in one pass.

    Raises PathNotFound for a placement outside `node`, then
    ConstraintViolation on the first violating position.
    """
    placements = {tuple(p): c for p, c in placements.items()}
    for path in placements:
        if path and get_node(node, path) is None:
            raise PathNotFound(path)
    ct = sparse(_trie(placements), node)
    bad = first_violation(node, ct)
    if bad:
        raise ConstraintViolation(*bad)
    return ct


def edit(ct: ConstraintTree, path: Path, replaced: bool) -> ConstraintTree:
    """The trie after the node at `path` is replaced or removed.

    A replaced position keeps its own entries and loses the placements
    below it; a removed one loses both. Emptied positions are pruned.
    """
    if not path:
        return ConstraintTree(ct.constraint) if replaced and ct.constraint else TRIVIAL
    child = ct.children.get(path[0])
    if child is None:
        return ct
    children = dict(ct.children)
    child = edit(child, path[1:], replaced)
    if child.is_trivial:
        del children[path[0]]
    else:
        children[path[0]] = child
    if not ct.constraint and not children:
        return TRIVIAL
    return ConstraintTree(ct.constraint, children)


def write_violation(
    new_root: TreeNode, ct: ConstraintTree, path: Path, old: Node | None, new: Node | None
) -> tuple[Path, Constraint] | None:
    """First violation that an edit at `path` causes in a valid tree, or None.

    `ct` is the trie before the edit, `new_root` the root after it, `old`
    and `new` the node at `path` before and after (None when absent or
    removed). Only what the edit can break is checked, in pre-order: the
    ancestors' node atoms, then the written subtree against what its parent
    passes down plus the written position's own entries.
    """
    inherited = EMPTY
    delta = None
    for i, key in enumerate(path):
        own = ct.constraint
        eff = c_sum([own, inherited]) if own else inherited
        for inh, atom in own.entries:
            if inh or not isinstance(atom, _NODE_ATOMS):
                continue  # leaf atoms of a tree node cannot change here
            if isinstance(atom, LeafCountIs):
                if delta is None:
                    delta = (len(flatten(new)[1]) if new is not None else 0) - (
                        len(flatten(old)[1]) if old is not None else 0
                    )
                ok = delta == 0  # the count held before the edit
            else:
                # only targets at or below the written position can change: a
                # target above it is a tree node, which no valid atom names
                rel = path[i:]
                ok = not any(p[: len(rel)] == rel for p in atom.paths) or (
                    _node_atom_holds(atom, get_node(new_root, path[:i]))
                )
            if not ok:
                return path[:i], eff
        if own:
            inherited = inherit(eff)
        ct = ct.children.get(key)
        if ct is None:
            break  # no placement below: what is inherited passes on unchanged
    if new is None:
        return None
    own = ct.constraint if ct is not None else EMPTY
    return next(_violating(new, ConstraintTree(own), path, inherited), None)
