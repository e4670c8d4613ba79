"""Microbenchmark harness comparing the tree container against a naive
flat path->array mapping baseline.

Each record reports mean/stddev of per-iteration wall time (monotonic
clock) after 5 warm-up iterations. Cheap operations are timed over an
auto-calibrated inner loop and normalized back to per-call nanoseconds.
The `set` benchmark measures the persistent (copy-on-path) set; `cset`
measures the same set on a tree carrying a root constraint (inherited
dtype f64 plus the leaf count), against a dict copy plus a dtype check.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import constraints as _c
from . import tree as _t
from .errors import ConstraintViolation
from .leaf import from_array
from .lift import lifted_cat, lifted_split, lifted_stack

BENCH_OPS = ("get", "set", "cset", "init", "deepcopy", "stack", "cat", "split")
BATCH = 8  # trees per stack/cat batch
WARMUP = 5
CSV_HEADER = "op,n_leaves,leaf_elems,impl,mean_ns,stddev_ns,reps"


@dataclass
class BenchRecord:
    op: str
    n_leaves: int
    leaf_elems: int
    impl: str
    mean_ns: float
    stddev_ns: float
    reps: int

    def csv_row(self) -> str:
        return (
            f"{self.op},{self.n_leaves},{self.leaf_elems},{self.impl},"
            f"{self.mean_ns:.1f},{self.stddev_ns:.1f},{self.reps}"
        )


def _balanced(n_leaves: int, elems: int, counter):
    if n_leaves == 1:
        i = next(counter)
        return from_array(np.arange(elems, dtype=np.float64) + i)
    half = n_leaves // 2
    return {
        "k0": _balanced(n_leaves - half, elems, counter),
        "k1": _balanced(half, elems, counter),
    }


def _balanced_nested(n_leaves: int, elems: int, counter=None) -> dict:
    """Nested dict with n leaves and depth ceil(log2 n)."""
    if counter is None:
        counter = iter(range(n_leaves))
    out = _balanced(n_leaves, elems, counter)
    return out if isinstance(out, dict) else {"k0": out}


def make_tree(n_leaves: int, elems: int, offset: int = 0) -> _t.TreeTensor:
    nested = _balanced_nested(n_leaves, elems, iter(range(offset, offset + n_leaves)))
    return _t.build_tree(nested)


def make_flat(n_leaves: int, elems: int, offset: int = 0) -> dict[str, np.ndarray]:
    tree = make_tree(n_leaves, elems, offset)
    return {
        "/".join(path): leaf.array.copy()
        for path, leaf in _t.leaves(tree)
    }


def _first_leaf_path(tree: _t.TreeTensor):
    return _t.leaves(tree)[0][0]


def _time(fn, reps: int) -> tuple[float, float]:
    """Mean/stddev in ns per call, over `reps` samples after warm-up.

    The collector is paused while sampling; GC pauses otherwise land
    disproportionately on allocation-heavy operations and skew means.
    """
    for _ in range(WARMUP):
        fn()
    # calibrate an inner loop so each sample spans >= ~2 microseconds
    t0 = time.perf_counter_ns()
    fn()
    est = max(time.perf_counter_ns() - t0, 1)
    inner = max(1, math.ceil(2000 / est))
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for _ in range(inner):
                fn()
            samples.append((time.perf_counter_ns() - t0) / inner)
    finally:
        if was_enabled:
            gc.enable()
    mean = statistics.fmean(samples)
    std = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return mean, std


def _op_closures(op: str, n_leaves: int, elems: int):
    """(tree_fn, naive_fn) pair; all inputs allocated up front."""
    tree = make_tree(n_leaves, elems)
    flat = make_flat(n_leaves, elems)
    if op == "get":
        path = _first_leaf_path(tree)
        key = "/".join(path)
        return (lambda: _t.get(tree, path)), (lambda: flat[key])
    if op in ("set", "cset"):
        path = _first_leaf_path(tree)
        key = "/".join(path)
        leaf = from_array(np.zeros(elems))
        arr = np.zeros(elems)

        def naive_set():
            d = dict(flat)  # no structural sharing: full copy
            d[key] = arr
            return d

        if op == "set":
            return (lambda: _t.set(tree, path, leaf)), naive_set
        f64 = _c.inherit_atom(_c.DtypeIs("f64"))
        ctree = tree.with_constraints(
            {(): _c.c_sum([f64, _c.noninherit_atom(_c.LeafCountIs(n_leaves))])}
        )

        def naive_cset():
            if arr.dtype != np.float64:
                raise ConstraintViolation(path, f64)
            return naive_set()

        return (lambda: _t.set(ctree, path, leaf)), naive_cset
    if op == "init":
        nested = _balanced_nested(n_leaves, elems)
        items = list(flat.items())
        return (lambda: _t.build_tree(nested)), (lambda: dict(items))
    if op == "deepcopy":
        return (
            lambda: _t.deep_copy(tree)
        ), (lambda: {k: v.copy() for k, v in flat.items()})
    if op in ("stack", "cat"):
        trees = [make_tree(n_leaves, elems, offset=i) for i in range(BATCH)]
        flats = [make_flat(n_leaves, elems, offset=i) for i in range(BATCH)]
        keys = list(flats[0])
        join = np.stack if op == "stack" else np.concatenate
        lifted = lifted_stack if op == "stack" else lifted_cat
        return (
            lambda: lifted(trees)
        ), (lambda: {k: join([f[k] for f in flats]) for k in keys})
    if op == "split":
        chunk = max(1, elems // 4)
        cuts = list(range(chunk, elems, chunk))
        return (
            lambda: lifted_split(tree, chunk)
        ), (lambda: {k: np.split(v, cuts) for k, v in flat.items()})
    raise ValueError(f"unknown bench op {op!r}")


def run_bench(op: str, n_leaves: int, elems: int, reps: int = 50) -> list[BenchRecord]:
    tree_fn, naive_fn = _op_closures(op, n_leaves, elems)
    out = []
    for impl, fn in (("tree", tree_fn), ("naive", naive_fn)):
        mean, std = _time(fn, reps)
        out.append(BenchRecord(op, n_leaves, elems, impl, mean, std, reps))
    return out


def sweep(op: str, leaves_list=(4, 16, 64, 256), elems: int = 256, reps: int = 50):
    """Records for each size plus the fitted log-log slope per impl."""
    records = []
    for n in leaves_list:
        records.extend(run_bench(op, n, elems, reps))
    slopes = {}
    for impl in ("tree", "naive"):
        xs = [math.log(r.n_leaves) for r in records if r.impl == impl]
        ys = [math.log(r.mean_ns) for r in records if r.impl == impl]
        slopes[impl] = float(np.polyfit(xs, ys, 1)[0])
    return records, slopes
