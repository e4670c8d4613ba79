"""Print the code lines and the lines of each module under src/, and
their totals.

    python3 tools/code_lines.py [ROOT]

A code line holds a token that is not a comment, outside the module,
class and function docstrings; blank lines, comment-only lines and
docstring lines do not count. The second column counts every line, as
`wc -l` does. ROOT is the checkout to count (default: the one holding this
script).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_line_numbers(source: str) -> set[int]:
    """The numbers of the code lines of `source`."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstrings


def code_lines(source: str) -> int:
    return len(code_line_numbers(source))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    total = lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        n, m = code_lines(source), source.count("\n")
        total, lines = total + n, lines + m
        print(f"{n:6d} {m:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {lines:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
