"""tools/traffic.py lists, per function, the code lines a traced run left
unexecuted, by statement, and the functions it never entered."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import traffic  # noqa: E402

SOURCE = '''def pick(x):
    """Docstring."""
    if x > 0:
        y = x
    else:
        y = -(
            x)
    return y


def unused():
    return 1
'''


def test_the_branch_not_taken_is_listed_and_an_uncalled_function_is_not_entered(tmp_path):
    path = tmp_path / "two_branches.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("two_branches", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hits = traffic.trace(lambda: module.pick(1), str(tmp_path))
    # the else body is one statement of two code lines; `else:` is the if's, which ran
    assert traffic.unexecuted(SOURCE, hits[str(path)]) == [("pick", [6, 7]), ("unused", None)]
    hits = traffic.trace(lambda: module.pick(-1), str(tmp_path))
    assert traffic.unexecuted(SOURCE, hits[str(path)]) == [("pick", [4]), ("unused", None)]
