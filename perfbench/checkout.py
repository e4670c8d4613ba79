"""The checkout under test: its paths, the import of its own tensortree,
and the provenance every run records.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # scratch space inside the checkout


def import_library():
    """Import tensortree from the checkout's src/ and nowhere else; exit
    with an error otherwise, so that each commit measures its own code."""
    sys.path.insert(0, str(SRC))
    try:
        import tensortree
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tensortree from {SRC}: {exc}")
    where = Path(tensortree.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: tensortree resolved to {where}, outside {SRC}")
    return tensortree


def cli_env() -> dict:
    """Environment for CLI subprocesses: the checkout's src/ comes first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def commit() -> str:
    """HEAD of the checkout's git repository, "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """Digest of src/*.py, which names the code even without git."""
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(str(f.relative_to(SRC)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def provenance(tt, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tensortree_file": str(Path(tt.__file__).resolve().relative_to(ROOT)),
        "commit": commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
