"""Source hygiene of the package, checked with the standard library only:
no module imports a name it never uses (the re-exports of `__init__.py`
excepted), and every top-level private function, class or module-level
assignment is referenced somewhere in the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tensortree"
MODULES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _annotation_names(tree):
    """Names inside string annotations, which the parser leaves as text."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for sub in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _used_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names | set(_annotation_names(tree))


def _imported(tree):
    """(bound name, line) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_no_unused_imports():
    unused = [
        f"{name}:{line} imports {bound}"
        for name, tree in MODULES.items()
        if name != "__init__.py"
        for bound, line in _imported(tree)
        if bound not in _used_names(tree)
    ]
    assert not unused, unused


def _references(node):
    out = set(_annotation_names(node))
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _bound_names(node):
    """Names a top-level statement binds: a def or class name, or the
    plain-name targets of a module-level assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def test_every_private_top_level_def_is_referenced():
    """Private defs, classes and module-level assignments (`_NAME = ...`).
    A reference from inside the statement itself (recursion) does not count."""
    statements = [(name, node) for name, tree in MODULES.items() for node in tree.body]
    refs = [(node, _references(node)) for _, node in statements]
    dead = [
        f"{name}:{node.lineno} {bound}"
        for name, node in statements
        for bound in _bound_names(node)
        if bound.startswith("_")
        and not bound.startswith("__")
        and not any(bound in names for other, names in refs if other is not node)
    ]
    assert not dead, dead
