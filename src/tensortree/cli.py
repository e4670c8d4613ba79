"""Command-line front end.

Exit codes: 0 success, 1 domain error (mismatch, constraint violation,
shape error), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from . import functional as _fn
from . import io_formats as _io
from . import lift as _lift
from . import padding as _pad
from .errors import (
    BadPath,
    DtypeUnknown,
    MissingDefault,
    ParseError,
    TensorTreeError,
    UnknownAtomKind,
)
from .leaf import scalar

_PARSE_ERRORS = (ParseError, DtypeUnknown, UnknownAtomKind, BadPath)
BENCH_OPS = ("get", "set", "cset", "init", "deepcopy", "stack", "cat", "split")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _load_tree(path: str):
    return _io.parse_tree(_read(path))


def cmd_show(args) -> int:
    print(_io.serialize_tree(_load_tree(args.file)))
    return 0


def _make_policy(args) -> _lift.MismatchPolicy:
    """The policy that --policy and --default name; MismatchPolicy decides
    which policies take a default."""
    default = None if args.default is None else scalar(args.default)
    try:
        return _lift.MismatchPolicy(args.policy, default)
    except (MissingDefault, ValueError) as exc:
        raise ParseError(f"--default: {exc}") from None


def cmd_apply(args) -> int:
    surface = _lift.lifted_surface()
    if args.fn not in surface:
        raise ParseError(f"unknown --fn {args.fn!r}; choose from {sorted(surface)}")
    entry = surface[args.fn]
    trees = [_load_tree(f) for f in args.files]
    if entry["kind"] in ("unary", "elementwise"):
        policy = _make_policy(args)
        lifted = entry["make"](policy)
        if len(trees) != entry["arity"]:
            raise ParseError(
                f"{args.fn} needs {entry['arity']} input files, got {len(trees)}"
            )
        print(_io.serialize_tree(lifted(*trees)))
    elif args.fn in ("stack", "cat"):
        print(_io.serialize_tree(entry["fn"](trees, axis=args.axis)))
    elif len(trees) != 1:
        raise ParseError(f"{args.fn} takes exactly one input file")
    elif args.fn == "split":
        pieces = entry["fn"](trees[0], args.chunk, axis=args.axis)
        # canonical documents joined by "," are the canonical list of them
        print(f"[{','.join(_io.serialize_tree(p) for p in pieces)}]")
    else:  # shape
        print(_io._dumps(entry["fn"](trees[0])))
    return 0


def cmd_validate(args) -> int:
    """Print "ok"; with_constraints validates in full and raises the first
    violation, which main reports with exit code 1."""
    placements = _io.parse_constraint_spec(_read(args.constraints))
    _load_tree(args.file).with_constraints(placements)
    print("ok")
    return 0


def cmd_subside(args) -> int:
    outer = _io.parse_outer(_read(args.file))
    print(_io.serialize_tree(_fn.subside(outer)))
    return 0


def cmd_rise(args) -> int:
    tree = _load_tree(args.file)
    print(_io.serialize_outer(_fn.rise(tree)))
    return 0


def cmd_pad(args) -> int:
    trees = [_load_tree(f) for f in args.files]
    group = _pad.group_pad(trees, args.fill)
    print(_io.serialize_padded_group(group))
    return 0


def cmd_bench(args) -> int:
    from . import bench as _bench  # only here: it costs every other command about 10 ms

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        print(_bench.CSV_HEADER, file=out)
        if args.sweep:
            records, slopes = _bench.sweep(
                args.op, elems=args.elems, reps=args.reps
            )
            for r in records:
                print(r.csv_row(), file=out)
            for impl, slope in sorted(slopes.items()):
                print(f"loglog slope {args.op}/{impl}: {slope:.3f}", file=sys.stderr)
        else:
            for r in _bench.run_bench(args.op, args.leaves, args.elems, args.reps):
                print(r.csv_row(), file=out)
    finally:
        if args.out:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tensortree", description="Nested tensor tree toolbox"
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("show", help="echo a tree document in canonical form")
    s.add_argument("file")
    s.set_defaults(handler=cmd_show)

    s = sub.add_parser("apply", help="apply a lifted operation to tree files")
    s.add_argument("--fn", required=True, help="operation id (add, pow2, stack, ...)")
    s.add_argument("--policy", choices=_lift.POLICIES, default="strict")
    s.add_argument("--default", type=float, default=None,
                   help="scalar default leaf (outer/left policies)")
    s.add_argument("--axis", type=int, default=0)
    s.add_argument("--chunk", type=int, default=1)
    s.add_argument("files", nargs="+")
    s.set_defaults(handler=cmd_apply)

    s = sub.add_parser("validate", help="check a tree against a constraint spec")
    s.add_argument("--constraints", required=True)
    s.add_argument("file")
    s.set_defaults(handler=cmd_validate)

    s = sub.add_parser("subside", help="sink an outer structure into one tree")
    s.add_argument("file")
    s.set_defaults(handler=cmd_subside)

    s = sub.add_parser("rise", help="lift the common inner structure of a tree")
    s.add_argument("file")
    s.set_defaults(handler=cmd_rise)

    s = sub.add_parser("pad", help="group-pad variable-length trees")
    s.add_argument("--fill", type=float, required=True)
    s.add_argument("files", nargs="+")
    s.set_defaults(handler=cmd_pad)

    s = sub.add_parser("bench", help="run microbenchmarks (tree vs naive)")
    s.add_argument("--op", choices=BENCH_OPS, required=True)
    s.add_argument("--leaves", type=int, default=16)
    s.add_argument("--elems", type=int, default=256)
    s.add_argument("--reps", type=int, default=50)
    s.add_argument("--out", default=None, help="CSV output path (default stdout)")
    s.add_argument("--sweep", action="store_true",
                   help="sweep leaf counts {4,16,64,256} and fit log-log slopes")
    s.set_defaults(handler=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _PARSE_ERRORS as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except TensorTreeError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
