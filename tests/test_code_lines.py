"""tools/code_lines.py counts lines holding a token that is not a comment,
outside module, class and function docstrings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module
docstring."""
# a comment

import os  # counted


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        x = """a string
        that is not a docstring"""
        return (x,
                os)
'''


def test_blanks_comments_and_docstrings_do_not_count():
    # import, class, def, the two lines of x's string, and the two of the return
    assert code_lines(SOURCE) == 7


def test_the_script_prints_each_module_and_the_total():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                       capture_output=True, text=True, check=True)
    lines = r.stdout.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith("total") and counts[-1] == sum(counts[:-1])
    assert any(line.endswith("src/tensortree/io_formats.py") for line in lines)


def test_the_second_column_is_each_files_line_count():
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                       capture_output=True, text=True, check=True)
    rows = [line.split() for line in r.stdout.splitlines()]
    for code, lines, name in rows[:-1]:
        text = (ROOT / name).read_bytes()
        assert int(lines) == text.count(b"\n") and int(code) <= int(lines)
    assert int(rows[-1][1]) == sum(int(row[1]) for row in rows[:-1])
