"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v`. Each test prints its verdict
to the real stdout so the line is visible even under capture.
"""

import random
import sys
import time

import numpy as np
import pytest

import tensortree as tt
from tensortree import bench

from helpers import (
    flat_apply_rebuild,
    leaves_close,
    paper_tree,
    rand_leaf,
    rand_shape,
    rand_tree,
    rand_tree_family,
    trees_close,
)
from test_constraints import metric_placements, metric_tree, rand_constraint
from test_functional import outer_equal, rand_outer
from test_padding import ragged_batch


def verdict(num: int, name: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{tag}] criterion {num}: {name}{suffix}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_01_paper_tree_pow2():
    lifted = tt.lift_unary("pow2")
    t = paper_tree()
    lifted(t)  # warm caches before timing
    t0 = time.perf_counter()
    out = lifted(t)
    elapsed = time.perf_counter() - t0
    got = {p: l.item() for p, l in tt.leaves(out)}
    ok = (
        got == {("a",): 4, ("b",): 8, ("x", "c"): 32, ("x", "d"): 128}
        and tt.structure_equal(out, t)
        and elapsed < 1e-3
    )
    verdict(1, "paper-tree pow2 lifting", ok, f"{elapsed*1e6:.0f} us")


def _nonzero(tree):
    pairs = [
        (p, tt.make_leaf(l.shape, l.dtype,
                         [v if v else 1 for v in l.data]))
        for p, l in tt.leaves(tree)
    ]
    return tt.rebuild(pairs)


def test_criterion_02_oracle_equivalence_suite():
    rng = random.Random(1002)
    t0 = time.perf_counter()
    ok = True
    for i in range(1000):
        t1, t2, t3 = rand_tree_family(rng, 3, max_depth=4, max_leaves=16)
        t2nz = _nonzero(t2)
        for fn_id in tt.leaf.UNARY_FN_IDS:
            got = tt.lift_unary(fn_id)(t1)
            want = flat_apply_rebuild(lambda l: tt.ew_unary(fn_id, l), t1)
            ok = ok and trees_close(got, want)
        for fn_id in ("add", "sub", "mul"):
            got = tt.lift_multi(fn_id)(t1, t2)
            want = flat_apply_rebuild(
                lambda a, b: tt.ew_binary(fn_id, a, b), t1, t2
            )
            ok = ok and trees_close(got, want)
        got = tt.lift_multi("div")(t1, t2nz)
        want = flat_apply_rebuild(lambda a, b: tt.ew_binary("div", a, b), t1, t2nz)
        ok = ok and trees_close(got, want)
        got = tt.lift_multi("mulsub")(t1, t2, t3)
        want = flat_apply_rebuild(
            lambda a, b, c: tt.ew_nary("mulsub", [a, b, c]), t1, t2, t3
        )
        ok = ok and trees_close(got, want)
        got = tt.lifted_stack([t1, t2])
        want = flat_apply_rebuild(lambda a, b: tt.stack([a, b]), t1, t2)
        ok = ok and trees_close(got, want)
        # cat and split need leaves of ndim >= 1 with a common dim 0
        n = rng.randint(1, 6)
        dims = [
            (p, rand_leaf(rng, dtype="f64", shape=(n,) + l.shape[1:] if l.ndim else (n,)))
            for p, l in tt.leaves(t1)
        ]
        tc = tt.rebuild(dims)
        got = tt.lifted_cat([tc, tc])
        want = flat_apply_rebuild(lambda a: tt.cat([a, a]), tc)
        ok = ok and trees_close(got, want)
        chunk = rng.randint(1, n)
        pieces = tt.lifted_split(tc, chunk)
        ok = ok and tt.lifted_cat(pieces) == tc
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    verdict(2, "oracle equivalence suite (1000 trees)",
            ok and elapsed < 30.0, f"{elapsed:.1f} s")


def test_criterion_03_mismatch_policy_table():
    rng = random.Random(1003)
    pool = list("abcdefghij")
    default = tt.scalar(0.0)
    ok = True
    for _ in range(500):
        k1 = set(rng.sample(pool, rng.randint(0, 7)))
        k2 = set(rng.sample(pool, rng.randint(0, 7)))
        m1 = {k: None for k in sorted(k1)}
        m2 = {k: None for k in sorted(k2)}
        maps = [m1, m2]
        inner = tt.merge_keys(maps, tt.INNER)
        left = tt.merge_keys(maps, tt.MismatchPolicy("left", default))
        outer = tt.merge_keys(maps, tt.MismatchPolicy("outer", default))
        ok = ok and inner == sorted(k1 & k2)
        ok = ok and left == sorted(k1)
        ok = ok and outer == sorted(k1 | k2)
        ok = ok and set(inner) <= set(left) <= set(outer)
        if k1 == k2:
            ok = ok and tt.merge_keys(maps, tt.STRICT) == sorted(k1)
        else:
            try:
                tt.merge_keys(maps, tt.STRICT)
                ok = False
            except tt.errors.StrictKeyMismatch:
                pass
        if not ok:
            break
    verdict(3, "mismatch-policy key-set table (500 pairs)", ok)


def test_criterion_04_constraint_algebra():
    rng = random.Random(1004)
    ok = True
    sound = 0
    for _ in range(2000):
        a = rand_constraint(rng)
        b = rand_constraint(rng)
        c = rand_constraint(rng)
        ok = ok and tt.c_sum([a, tt.EMPTY]) == a
        ok = ok and tt.c_sum([a, b]) == tt.c_sum([b, a])
        ok = ok and tt.c_sum([tt.c_sum([a, b]), c]) == tt.c_sum([a, tt.c_sum([b, c])])
        ok = ok and tt.c_sum([a, a]) == a
        ok = ok and tt.covers(a, a) and tt.covers(tt.c_sum([a, b]), a)
        ok = ok and tt.inherit(tt.inherit(a)) == tt.inherit(a)
        n = rand_tree(rng, max_depth=2, max_leaves=4).root
        if tt.covers(a, b) and tt.satisfies(a, n):
            ok = ok and tt.satisfies(b, n)
            sound += 1
        if not ok:
            break
    # distribution fixpoint on random placements
    from helpers import distribute, mirror, place
    for _ in range(100):
        t = rand_tree(rng, max_depth=3, max_leaves=6)
        ct = mirror(t.root)
        paths = [()] + [p for p, _ in tt.leaves(t)]
        for _ in range(rng.randint(0, 3)):
            p = rng.choice(paths)
            ct = place(ct, p[: rng.randint(0, len(p))], rand_constraint(rng))
        once = distribute(ct)
        ok = ok and distribute(once) == once
    verdict(4, "constraint algebra laws (2000 triples)", ok and sound > 0,
            f"{sound} sound cover cases hit")


def test_criterion_05_metric_learning_scenario():
    t = metric_tree().with_constraints(metric_placements())
    ok = tt.validate_full(t) == []
    mutations = [
        (("obs", "img"), np.zeros((8, 4, 5, 16), dtype=np.float64)),
        (("obs", "spk"), np.zeros((8, 4, 16), dtype=np.float32)),
        (("obs", "img"), np.zeros((8, 4, 2, 16), dtype=np.float32)),
    ]
    for path, bad in mutations:
        broken = tt.TreeTensor(
            tt.set(tt.TreeTensor(t.root), list(path), bad).root, t.constraints
        )
        v = tt.validate_full(broken)
        ok = ok and len(v) == 1 and v[0][0] == path
    verdict(5, "scaled metric-learning constraint scenario", ok)


def test_criterion_06_subside_rise_inverses():
    rng = random.Random(1006)
    ok = True
    for _ in range(500):
        outer = rand_outer(rng)
        ok = ok and outer_equal(tt.rise(tt.subside(outer)), outer)
        if not ok:
            break
    for _ in range(500):
        y = tt.subside(rand_outer(rng))
        ok = ok and tt.subside(tt.rise(y)) == y
        if not ok:
            break
    verdict(6, "subside/rise mutual inverses (500 each way)", ok)


def test_criterion_07_reduce():
    total = tt.reduce(paper_tree(), lambda acc, l: acc + l.item(), 0)
    ok = total == 17
    rng = random.Random(1007)
    for _ in range(200):
        t = rand_tree(rng)
        count = tt.reduce(t, lambda acc, l: acc + 1, 0)
        ok = ok and count == len(tt.leaves(t))
        if not ok:
            break
    verdict(7, "reduce fold-sum and fold-count", ok)


def test_criterion_08_group_pad_roundtrip():
    rng = random.Random(1008)
    ok = True
    for _ in range(200):
        trees = ragged_batch(rng, k=rng.randint(1, 8), max_len=16)
        g = tt.group_pad(trees, fill=0.0)
        ok = ok and tt.unpad(g) == trees
        if not ok:
            break
    for _ in range(20):
        trees = ragged_batch(rng, k=4, max_len=1)
        ok = ok and tt.group_pad(trees, 0.0).stacked == tt.lifted_stack(trees)
    verdict(8, "group_pad/unpad round trips (200 batches)", ok)


def test_criterion_09_persistence_lifecycle():
    rng = random.Random(1009)
    t = rand_tree(rng, max_leaves=10)
    frozen = tt.serialize_tree(t)
    produced = [t]
    cur = t
    for _ in range(100):
        paths = [p for p, _ in tt.leaves(cur)]
        if paths and rng.random() < 0.3 and len(paths) > 1:
            cur = tt.remove(cur, rng.choice(paths))
        else:
            target = rng.choice(paths) if paths and rng.random() < 0.7 else (
                tuple([f"new{rng.randint(0, 99)}"])
            )
            cur = tt.set(cur, target, rand_leaf(rng))
        produced.append(cur)
    ok = tt.serialize_tree(t) == frozen
    ok = ok and all(tt.validate_full(p) == [] for p in produced)
    verdict(9, "persistence across 100 random set/remove ops", ok)


def test_criterion_10_serialization_roundtrip():
    rng = random.Random(1010)
    ok = True
    for _ in range(500):
        t = rand_tree(rng)
        text = tt.serialize_tree(t)
        back = tt.parse_tree(text)
        ok = ok and back == t and tt.serialize_tree(back) == text
        shuffled = tt.rebuild(list(reversed(tt.leaves(t))))
        ok = ok and tt.serialize_tree(shuffled) == text
        if not ok:
            break
    verdict(10, "serialization round trips (500 trees)", ok)


def test_criterion_11_benchmarks():
    t0 = time.perf_counter()
    ok = True
    notes = []
    def best_ratio(op, attempts=5, reps=40):
        # timing noise is one-sided; the minimum over attempts is the
        # least contaminated estimate of the true overhead
        best = float("inf")
        for _ in range(attempts):
            recs = bench.run_bench(op, 64, 256, reps=reps)
            means = {r.impl: r.mean_ns for r in recs}
            best = min(best, means["tree"] / means["naive"])
        return best

    for op in ("stack", "cat", "split"):
        records, slopes = bench.sweep(op, leaves_list=(4, 16, 64, 256), reps=15)
        slope = slopes["tree"]
        ok = ok and 0.8 <= slope <= 1.3
        ratio = best_ratio(op)
        ok = ok and ratio <= 3.0
        notes.append(f"{op}: slope {slope:.2f}, ratio {ratio:.2f}x")
    get_ratio = best_ratio("get", reps=30)
    ok = ok and get_ratio <= 20.0
    notes.append(f"get ratio {get_ratio:.1f}x")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    verdict(11, "benchmark scaling and overhead bounds", ok,
            "; ".join(notes) + f"; {elapsed:.0f} s")
