"""Constraint DSL, algebra, inheritance and constraint-tree machinery.

A constraint is a canonical conjunction (``Sum``) of atoms, each flagged as
inheriting or non-inheriting. Inheriting atoms hold for a tree node iff they
hold on all descendants; non-inheriting atoms are pinned to a single node
and their inherited form is the empty constraint.

The checks run on a tree's flat form (structure key, leaves, sorted leaf
paths) and visit only the trie's positions. A subtree's leaves are one
range, so `LeafCountIs` is its length and a `ShapesEqual` or
`SharedPrefix` target is found by bisecting the paths. Each position with
entries of its own checks its node atoms and non-inheriting atoms there,
and its inheriting atoms once against each distinct (dtype, device, shape)
of its range, which a packed tree's column gives without making a leaf.
A constrained write's check keeps to the positions on the written path and
under it, and its ancestors' inheriting atoms to the written range.
Effective constraints (`c_sum` of a position's entries and what its
parent passes down) are derived by one walk down the trie, `_named`, only
to name a failing position or to write a tree's constraints out. A node
argument is flattened once on entry.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .errors import ConstraintViolation
from .leaf import kinds
from .node import Node, Path, flatten, leaf_range, subkey, treedef

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


def _leaf_atom_holds(atom, kind) -> bool:
    """Whether a leaf of `kind`, an item of `kinds`, satisfies a leaf atom;
    a payload that is not a TensorLeaf satisfies none."""
    if kind is None:
        return False
    dtype, device, shape = kind
    if isinstance(atom, DtypeIs):
        return dtype == atom.dtype
    if isinstance(atom, NdimIs):
        return len(shape) == atom.n
    if isinstance(atom, DimEquals):
        return atom.axis < len(shape) and shape[atom.axis] == atom.size
    if isinstance(atom, DimAtLeast):
        return atom.axis < len(shape) and shape[atom.axis] >= atom.size
    if isinstance(atom, DeviceIs):
        return device == atom.tag
    raise TypeError(f"not a leaf atom: {atom!r}")


def _node_atom_holds(atom, leaves, paths, path: Path) -> bool:
    if isinstance(atom, LeafCountIs):
        lo, hi = leaf_range(paths, path)
        return hi - lo == atom.n
    shapes = []
    for p in atom.paths:
        target = path + p
        i = bisect_left(paths, target)
        kind = i < len(paths) and paths[i] == target and kinds(leaves, i, i + 1)[0]
        if not kind:
            return False
        shapes.append(kind[2])
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


def _flat(n) -> tuple:
    """(structure key, leaves, leaf paths) of a tree in flat form: a
    TreeTensor's own, or a node's by one flatten."""
    if isinstance(n, tuple):
        return n
    if isinstance(n, Node):
        key, leaves = flatten(n)
        return key, leaves, ((),) if key is None else treedef(key).paths
    td, leaves = n._flat()
    return td.key, leaves, td.paths


def _local_ok(c: Constraint, n, path: Path = (), lo: int = 0) -> bool:
    """Non-recursive check of the position at `path`, whose first leaf is
    `lo`, in `n` (a node or a flat tree) against its effective constraint.

    Inheriting atoms are checked only at value positions: every descendant's
    effective constraint carries them, so the local check is complete and
    each failure is reported once, at the most specific path. A payload
    that is not a TensorLeaf fails every leaf atom.
    """
    _, leaves, paths = _flat(n)
    value = lo < len(paths) and paths[lo] == path
    kind = kinds(leaves, lo, lo + 1)[0] if value else None
    for inh, atom in c.entries:
        if inh:
            if value and not _leaf_atom_holds(atom, kind):
                return False
        elif isinstance(atom, _NODE_ATOMS):
            if not _node_atom_holds(atom, leaves, paths, path):
                return False
        elif not _leaf_atom_holds(atom, kind):
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

    __slots__ = ("constraint", "children", "is_trivial")

    def __init__(self, constraint: Constraint = EMPTY, children: dict | None = None):
        self.constraint = constraint
        self.children = dict(sorted((children or {}).items()))
        self.is_trivial = is_empty(constraint) and all(
            c.is_trivial for c in self.children.values()
        )

    def child(self, key: str) -> "ConstraintTree":
        return self.children.get(key, TRIVIAL)

    def __eq__(self, other):
        if not isinstance(other, ConstraintTree):
            return NotImplemented
        if self.is_trivial or other.is_trivial:
            # an all-empty tree is equal to any all-empty tree regardless of
            # how many empty positions it materializes
            return self.is_trivial and other.is_trivial
        return self.constraint == other.constraint and self.children == other.children

    def __repr__(self):
        return f"ConstraintTree({self.constraint!r}, {self.children!r})"


#: shared all-empty tree used as the default for unconstrained TreeTensors
TRIVIAL = ConstraintTree()


def effective(n, ct: ConstraintTree) -> list[tuple[Path, Constraint]]:
    """Pre-order (path, effective constraint) of every position of `n` (a
    node or a TreeTensor) whose effective constraint is not empty."""
    def positions(key, path):
        yield path
        for k, sub in key or ():
            yield from positions(sub, path + (k,))

    return [(p, c) for p, c in _named(ct, positions(_flat(n)[0], ())) if c]


def _failing(f: tuple, ct: ConstraintTree, focus: Path = ()) -> list[Path]:
    """The sorted (so pre-order) paths of the positions of the flat tree `f`
    that fail the local check; with a `focus` path, of those on it and
    under it. One pass over the trie's positions in `f`, none over the
    others: a position with entries of its own checks them locally, and
    its inheriting atoms against each distinct (dtype, device, shape) of
    its leaf range (an ancestor of the focus: of the focus's range). Only a
    failing kind sends a range's leaves to the list, one by one."""
    leaves, paths = f[1], f[2]
    scope = leaf_range(paths, focus)
    scoped, bad = [], set()

    def walk(key, ct, path):
        own, on = ct.constraint, len(path) < len(focus)
        lo, hi = scope if on else leaf_range(paths, path)
        if own:
            if not _local_ok(own, f, path, lo):
                bad.add(path)
            atoms = [atom for inh, atom in own.entries if inh]
            if atoms and key is not None:
                if not scoped:
                    scoped.append(kinds(leaves, *scope))
                ks = scoped[0][lo - scope[0]:hi - scope[0]]
                if no := {k for k in set(ks) if not all(_leaf_atom_holds(x, k) for x in atoms)}:
                    bad.update(paths[i] for i, k in enumerate(ks, lo) if k in no)
        subs = dict(key) if key and ct.children else {}
        for k, sub in ct.children.items():
            if k in subs and not (on and k != focus[len(path)]):
                walk(subs[k], sub, path + (k,))

    walk(f[0], ct, ())
    return sorted(bad)


def _named(ct: ConstraintTree, paths) -> list[tuple[Path, Constraint]]:
    """(path, effective constraint) of each of `paths`, derived along the
    trie once a position."""
    memo = {(): (ct, ct.constraint, inherit(ct.constraint))}

    def derive(path):  # (trie position, effective constraint, what it passes down)
        if path not in memo:
            node, _, inherited = derive(path[:-1])
            node = node.child(path[-1])
            eff = c_sum([node.constraint, inherited]) if node.constraint else inherited
            memo[path] = node, eff, inherit(eff) if node.constraint else inherited
        return memo[path]

    return [(p, derive(p)[1]) for p in paths]


def violations(node: Node, ct: ConstraintTree) -> list[tuple[Path, Constraint]]:
    """All (path, effective constraint) pairs failing the local check, in
    pre-order."""
    return _named(ct, _failing(_flat(node), ct))


def first_violation(node: Node, ct: ConstraintTree, focus: Path = ()) -> tuple[Path, Constraint] | None:
    """The first entry of `violations(node, ct)`, or None; names no other.
    With a `focus`, `node` is a tree that was valid before an edit at
    `focus` left the trie `ct`, and only what the edit can break is
    checked: the positions on `focus` and the written subtree."""
    return next(iter(_named(ct, _failing(_flat(node), ct, focus)[:1])), None)


def sparse(ct: ConstraintTree, key, inherited: frozenset = frozenset()) -> ConstraintTree:
    """The sparse trie with the same effective constraints as `ct` on a tree
    of structure `key`, under a parent that passes down the entries
    `inherited`.

    Each position keeps its entries minus what its parent passes down;
    positions that are empty, or absent from the structure, are dropped.
    """
    own = ct.constraint
    kept = [e for e in own.entries if e not in inherited]
    children = {}
    if ct.children and key:
        down = inherited.union(e for e in own.entries if e[0])
        subs = dict(key)
        for k, child in ct.children.items():
            if k in subs:
                child = sparse(child, subs[k], down)
                if not child.is_trivial:
                    children[k] = child
    if not kept and not children:
        return TRIVIAL
    return ConstraintTree(own if len(kept) == len(own.entries) else Constraint(kept), children)


def _trie(placements: dict[Path, Constraint]) -> ConstraintTree:
    heads: dict[str, dict] = {}
    for path, c in placements.items():
        if path:
            heads.setdefault(path[0], {})[path[1:]] = c
    return ConstraintTree(
        placements.get((), EMPTY), {k: _trie(sub) for k, sub in heads.items()}
    )


def build_constraint_tree(node: Node, placements: dict[Path, Constraint]) -> ConstraintTree:
    """Sparse trie of the placements over `node` (or a TreeTensor),
    validated in one pass.

    Raises PathNotFound for a placement outside `node`, then
    ConstraintViolation on the first violating position.
    """
    f = _flat(node)
    placements = {tuple(p): c for p, c in placements.items()}
    for path in placements:
        subkey(f[0], path)
    ct = sparse(_trie(placements), f[0])
    bad = first_violation(f, ct)
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
    children = {**ct.children, path[0]: edit(child, path[1:], replaced)}
    children = {k: c for k, c in children.items() if not c.is_trivial}
    return ConstraintTree(ct.constraint, children) if ct.constraint or children else TRIVIAL
