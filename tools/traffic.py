"""List, per function under src/, the code lines that one step of a
perfbench workload leaves unexecuted.

    python3 tools/traffic.py WORKLOAD [--seed N]

Builds the inputs of WORKLOAD (many-small, few-large, constrained-edit or
cli-docs) as perfbench does, then runs one step of its tree pipeline of
each step kind in this process, under `sys.settrace` on the files under
src/ only: the batch workloads' one pipeline, each of constrained-edit's
edit streams, and each of cli-docs' commands through `tensortree.cli.main`
(its output discarded). A code line is one that tools/code_lines.py
counts. A statement ran when a line in it ran; a compound statement (if,
for, try, an except clause, a nested def) owns only the lines of its
header. Prints, module by module, each function the step entered with the
code lines it left unexecuted, then the functions it never entered.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from code_lines import code_line_numbers  # noqa: E402

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_BODIES = ("body", "orelse", "finalbody", "handlers")


def _statements(body: list, out: list) -> list:
    """Appends each statement of `body` and, but for a def's or a class's
    body, of the bodies under it (except clauses included)."""
    for node in body:
        out.append(node)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            for name in _BODIES:
                _statements(getattr(node, name, []), out)
    return out


def _span(node) -> range:
    """The lines of statement `node`; of a def or a class, only those of
    its decorators and its header, which run where it is defined."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
        return range(first, node.body[0].lineno)
    return range(first, node.end_lineno + 1)


def _owned(node, code: set) -> set:
    """The code lines of statement `node` that no statement under it holds."""
    lines = code & set(_span(node))
    for name in _BODIES:
        for sub in getattr(node, name, []):
            lines -= set(range(sub.lineno, sub.end_lineno + 1))
    return lines


def unexecuted(source: str, ran: set) -> list:
    """(qualified name, sorted code lines left unexecuted, or None when no
    statement of it ran) of each function in `source`, in source order,
    given the numbers of the lines that ran."""
    code, out = code_line_numbers(source), []

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, _FUNCTIONS):
                left, entered = set(), False
                for stmt in _statements(child.body, []):
                    if ran.isdisjoint(_span(stmt)):
                        left |= _owned(stmt, code)
                    else:
                        entered = True
                out.append((name[:-1], sorted(left) if entered else None))
            visit(child, name)

    visit(ast.parse(source), "")
    return out


def trace(run, under: str) -> dict:
    """Calls `run` under `sys.settrace`; {file name: the numbers of the
    lines that ran} of each file whose name starts with `under`."""
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(under):
            return None
        hits.setdefault(name, set())
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def _ranges(lines: list) -> str:
    """Sorted line numbers as comma-separated runs: 3-5, 9."""
    runs: list = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=("many-small", "few-large", "constrained-edit", "cli-docs"))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    import checkout

    checkout.import_library()
    import pipelines
    import workloads
    from tensortree import cli

    wl = workloads.WORKLOADS[args.workload](args.workload, args.seed)
    calls = pipelines.layer_calls()

    def step():
        for k in range(wl.kinds):
            if isinstance(wl, workloads.CliWorkload):
                argv = wl.argv[wl.commands[k]]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                if code:
                    sys.exit(f"traffic: {argv[0]} exited {code}: {err.getvalue()[-300:]}")
            else:
                tree_ops, naive_ops = wl.ops(k, calls, None)
                naive_ops.close()
                out = None
                with contextlib.suppress(StopIteration):
                    while True:
                        out = tree_ops.send(out)[1]()

    try:
        hits = trace(step, str(checkout.SRC))
    finally:
        wl.close()
    modules = sorted(checkout.SRC.rglob("*.py"))
    reports = {f: unexecuted(f.read_text(encoding="utf-8"), hits.get(str(f), set())) for f in modules}
    entered = sum(left is not None for r in reports.values() for _, left in r)
    total = sum(map(len, reports.values()))
    print(f"{args.workload} seed {args.seed}, one step of each of {wl.kinds} step kind(s): "
          f"{entered} of {total} functions under src/ entered")
    for f, report in reports.items():
        shown = [f"  {name}: {_ranges(left)}" for name, left in report if left]
        idle = [name for name, left in report if left is None]
        shown += [f"  not entered: {', '.join(idle)}"] if idle else []
        if shown:
            print(f.relative_to(ROOT), *shown, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
