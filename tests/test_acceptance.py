"""Acceptance suite: one test per criterion, one printed line per run.

Every criterion is checked at full stated scale (exhaustive connected
corpus on up to 7 vertices, 1000 seeded random connected graphs on 8..10
vertices, 10000 randomized operator samples, timed runs at n = 300).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import combinations

import pytest

import wtoll as w
from wtoll.oracle import oracle_membership

from _reference import brute_force_wth, brute_force_wtn
from _strategies import random_connected_gnp

FULL = "[PASS] criterion {}: {}"


@pytest.fixture(scope="module")
def random_corpus():
    graphs = []
    for i in range(1000):
        n = 8 + i % 3
        p = (0.25, 0.4, 0.6)[(i // 3) % 3]
        graphs.append(random_connected_gnp(n, p, seed=10_000 + i))
    return graphs


@pytest.fixture(scope="module")
def solved(corpus, random_corpus):
    """Solver and brute-force results for criteria 2-4, computed once."""
    records = []
    for g in corpus + random_corpus:
        records.append(
            {
                "g": g,
                "wtn": w.wtn(g),
                "wth": w.wth(g),
                "brute_wtn": brute_force_wtn(g),
                "brute_wth": brute_force_wth(g),
            }
        )
    return records


def test_criterion_1_membership_matches_oracle(corpus):
    checked = 0
    mismatches = 0
    for g in corpus:
        for u in range(g.n):
            for ww in range(u + 1, g.n):
                if g.has_edge(u, ww):
                    continue
                for v in range(g.n):
                    if v in (u, ww):
                        continue
                    checked += 1
                    fast = w.in_weakly_toll_walk(g, u, ww, v) is not None
                    slow = oracle_membership(g, u, ww, v) is not None
                    if fast != slow:
                        mismatches += 1
    assert mismatches == 0, f"[FAIL] criterion 1: {mismatches} membership mismatches"
    print(FULL.format(1, f"membership = oracle on {checked} triples over {len(corpus)} graphs"))


def test_criterion_2_solvers_exact(solved):
    bad = [
        r
        for r in solved
        if r["wtn"].value != r["brute_wtn"].value
        or r["wth"].value != r["brute_wth"].value
    ]
    assert not bad, f"[FAIL] criterion 2: {len(bad)} solver/brute-force mismatches"
    print(FULL.format(2, f"wtn and wth exact on {len(solved)} graphs"))


def test_criterion_3_windows_and_class_bound(solved):
    violations = 0
    for r in solved:
        g = r["g"]
        if w.is_complete(g):
            continue
        part = w.twin_classes(g)
        ext = w.extreme_vertices(g)
        if sum(1 for cls in part.classes if cls & ext) > 2:
            violations += 1
            continue
        idxs = w.extreme_twin_classes(g, part)
        k = len(idxs)
        base = sum(len(part.classes[i]) for i in idxs)
        lo, hi = {0: (2, 8), 1: (base + 1, base + 5), 2: (base, base + 2)}[k]
        if not lo <= r["wtn"].value <= hi:
            violations += 1
    assert violations == 0, f"[FAIL] criterion 3: {violations} window violations"
    print(FULL.format(3, f"wtn windows and <=2 extreme classes on {len(solved)} graphs"))


def test_criterion_4_wth_case_audit(solved):
    violations = 0
    for r in solved:
        g = r["g"]
        res = r["wth"]
        if w.hull(g, res.witness) != frozenset(range(g.n)):
            violations += 1
        if res.case_tag.startswith("TWO_EXTREMAL"):
            dec = w.decompose(g)
            i, j = [k for k, flag in enumerate(dec.extremal) if flag]
            x1, x2 = len(dec.exclusive[i]), len(dec.exclusive[j])
            if res.value not in {2, x1 + 1, x2 + 1, x1 + x2}:
                violations += 1
    assert violations == 0, f"[FAIL] criterion 4: {violations} case-audit violations"
    print(FULL.format(4, f"every wth witness hulls to V on {len(solved)} graphs"))


def test_criterion_5_fixed_values():
    expected = []
    expected.append(("wtn(P4)", w.wtn(w.path_graph(4)).value, 2))
    expected.append(("wth(P4)", w.wth(w.path_graph(4)).value, 2))
    c5 = w.wth(w.cycle_graph(5))
    expected.append(("wth(C5)", c5.value, 2))
    expected.append(("wth(C5) tag", c5.case_tag, "PRIME_PAIR"))
    expected.append(("wtn(bowtie)", w.wtn(w.bowtie_graph()).value, 4))
    expected.append(("wth(bowtie)", w.wth(w.bowtie_graph()).value, 4))
    expected.append(("wtc(P4)", w.wtc_exact(w.path_graph(4)).value, 3))
    expected.append(("wtc(C5)", w.wtc_exact(w.cycle_graph(5)).value, 2))
    for n in (1, 3, 5):
        expected.append((f"wth(K{n})", w.wth(w.complete_graph(n)).value, n))
        expected.append((f"wtn(K{n})", w.wtn(w.complete_graph(n)).value, n))
    bad = [(name, got, want) for name, got, want in expected if got != want]
    assert not bad, f"[FAIL] criterion 5: {bad}"
    print(FULL.format(5, f"{len(expected)} fixed derived values exact"))


def test_criterion_6_reduction_soundness(corpus):
    checked = 0
    violations = 0
    for g in corpus:
        if g.n < 2:  # the reduction is defined from 2 vertices up
            continue
        r = w.clique_reduction(g, 3)
        gp = r.g_prime
        omega, omega_p = len(w.max_clique(g)), len(w.max_clique(gp))
        if not w.is_prime(gp):
            violations += 1
        for k in (3, 4):
            checked += 1
            if (omega_p >= k) != (omega >= k):
                violations += 1
    assert violations == 0, f"[FAIL] criterion 6: {violations} reduction violations"
    print(FULL.format(6, f"reductions prime with clique equivalence, {checked} checks"))


def test_criterion_7_operator_algebra():
    rng = random.Random(777)
    violations = 0
    for _ in range(10_000):
        n = rng.randint(1, 12)
        g = w.gnp_graph(n, rng.choice((0.15, 0.3, 0.5, 0.8)), seed=rng.randrange(1 << 30))
        s = frozenset(v for v in range(n) if rng.random() < 0.35)
        t = s | frozenset(v for v in range(n) if rng.random() < 0.2)
        iv_s = w.interval(g, s)
        h_s = w.hull(g, s)
        if not (s <= iv_s <= h_s):
            violations += 1
        if not (iv_s <= w.interval(g, t) and h_s <= w.hull(g, t)):
            violations += 1
        if w.hull(g, h_s) != h_s or not w.is_convex(g, h_s):
            violations += 1
        clique = [rng.randrange(n)] if n else []
        for v in range(n):
            if v not in clique and all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        if not w.is_convex(g, clique):
            violations += 1
    assert violations == 0, f"[FAIL] criterion 7: {violations} algebra violations"
    print(FULL.format(7, "extensivity/monotonicity/idempotence/clique convexity on 10000 samples"))


def test_criterion_8_twinless_extremes_independent(corpus):
    violations = 0
    for g in corpus:
        part = w.twin_classes(g)
        singletons = frozenset().union(*(cls for cls in part.classes if len(cls) == 1))
        lone = sorted(w.extreme_vertices(g) & singletons)
        for a, b in combinations(lone, 2):
            if g.has_edge(a, b):
                violations += 1
    assert violations == 0, f"[FAIL] criterion 8: {violations} adjacent twin-free extremes"
    print(FULL.format(8, f"twin-free extreme vertices independent on {len(corpus)} graphs"))


def test_criterion_9_performance_smoke():
    worst_interval = worst_wth = 0.0
    for seed in (42, 43, 44):
        g = random_connected_gnp(300, 0.05, seed=seed)
        pair = (0, 1) if not g.has_edge(0, 1) else (0, 2)

        start = time.perf_counter()
        w.interval(g, pair)
        interval_s = time.perf_counter() - start
        assert interval_s < 5.0, f"[FAIL] criterion 9: interval took {interval_s:.2f}s"
        worst_interval = max(worst_interval, interval_s)

        start = time.perf_counter()
        res = w.wth(g)
        wth_s = time.perf_counter() - start
        assert wth_s < 60.0, f"[FAIL] criterion 9: wth took {wth_s:.2f}s"
        assert w.hull(g, res.witness) == frozenset(range(g.n))
        worst_wth = max(worst_wth, wth_s)
    print(
        FULL.format(
            9,
            f"n=300 p=0.05, 3 seeds: interval <= {worst_interval * 1000:.0f}ms (<5s), "
            f"wth <= {worst_wth * 1000:.0f}ms (<60s)",
        )
    )
