import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import wtoll as w
from _reference import reference_first_convex, reference_max_clique, reference_wtc_exhaustive
from _strategies import caterpillar, clique_chain, random_connected_gnp
from wtoll import CapExceededError, InternalConsistencyError
from wtoll.convexity import DEFAULT_WTC_CAP, _first_convex, reduction_edge_list
from wtoll.graph import mask_of


def _reducible_gnp(n, p, count, seed=0):
    """The first ``count`` connected G(n, p) draws, from seed ``seed`` + 1
    on, that are neither complete nor prime."""
    out = []
    while len(out) < count:
        seed += 1
        g = random_connected_gnp(n, p, seed=seed)
        if not w.is_complete(g) and not w.is_prime(g):
            out.append(g)
    return out


def _cycle_with_pendant(k):
    """C_k with one pendant vertex k on vertex 0."""
    return w.Graph(k + 1, w.cycle_graph(k).edges() + [(0, k)])


def _assert_matches_reference(g):
    # a fresh copy for the reference, so neither side reads the other's
    # pair memo
    assert w.wtc_exact(g) == reference_wtc_exhaustive(w.Graph(g.n, g.edges()))


class TestWtcExact:
    def test_complete_drops_one(self):
        res = w.wtc_exact(w.complete_graph(6))
        assert res.value == 5
        assert len(res.witness) == 5

    def test_c5_prime_fast_path(self):
        res = w.wtc_exact(w.cycle_graph(5))
        assert (res.value, res.case_tag) == (2, "PRIME_MAX_CLIQUE")

    def test_p4_exhaustive(self):
        res = w.wtc_exact(w.path_graph(4))
        assert (res.value, res.witness, res.case_tag) == (3, {0, 1, 2}, "EXHAUSTIVE")

    def test_witness_proper_and_convex(self, corpus):
        for g in corpus:
            if g.n < 2:
                continue
            res = w.wtc_exact(g)
            assert len(res.witness) == res.value < g.n
            assert w.is_convex(g, res.witness)

    def test_fast_path_matches_exhaustive(self, corpus):
        from itertools import combinations

        for g in corpus:
            if g.n < 2 or w.is_complete(g) or not w.is_prime(g):
                continue
            best = next(
                size
                for size in range(g.n - 1, 0, -1)
                if any(w.is_convex(g, s) for s in combinations(range(g.n), size))
            )
            assert w.wtc_exact(g).value == best

    def test_cap_refusal_mentions_hardness(self):
        with pytest.raises(CapExceededError, match="NP-hard"):
            w.wtc_exact(w.path_graph(17))

    def test_cap_override(self):
        assert w.wtc_exact(w.path_graph(17), cap=17).value == 16

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            w.wtc_exact(w.complete_graph(1))

    @pytest.mark.parametrize(
        "g,tag",
        [
            (w.complete_graph(4), "COMPLETE"),
            (w.cycle_graph(5), "PRIME_MAX_CLIQUE"),
            (w.path_graph(4), "EXHAUSTIVE"),
        ],
        ids=["complete", "prime", "exhaustive"],
    )
    def test_witness_that_is_not_convex_is_refused(self, monkeypatch, g, tag):
        import wtoll.convexity

        assert w.wtc_exact(g).case_tag == tag
        monkeypatch.setattr(wtoll.convexity, "is_convex", lambda g, s: False)
        with pytest.raises(InternalConsistencyError, match="is not a proper convex set"):
            w.wtc_exact(g)


class TestPrunedSearch:
    """The depth-first search returns what one convexity test per subset
    of ``combinations`` returns: value, witness and case tag."""

    def test_corpus(self, corpus):
        for g in corpus:
            if g.n >= 2:
                _assert_matches_reference(g)

    # 202 graphs in all; few at n >= 14, where the reference scan is slow
    @pytest.mark.parametrize(
        "n,count", [(n, 30) for n in range(8, 14)] + [(14, 10), (15, 6), (16, 6)]
    )
    def test_random_reducible(self, n, count):
        for g in _reducible_gnp(n, 0.15 + 0.05 * (n % 6), count, seed=1000 * n):
            _assert_matches_reference(g)

    @pytest.mark.parametrize(
        "g",
        [pytest.param(w.path_graph(n), id=f"P{n}") for n in range(2, DEFAULT_WTC_CAP + 1)]
        + [
            pytest.param(_cycle_with_pendant(k), id=f"C{k}+pendant")
            for k in range(3, DEFAULT_WTC_CAP)
        ]
        + [
            pytest.param(caterpillar(spine, legs), id=f"caterpillar{spine}x{legs}")
            for legs in (1, 2, 3)
            for spine in range(2, DEFAULT_WTC_CAP // (legs + 1) + 1)
        ]
        + [
            pytest.param(clique_chain(count, size), id=f"chain{count}xK{size}")
            for size in (3, 4, 5, 6)
            for count in range(2, (DEFAULT_WTC_CAP - 1) // (size - 1) + 1)
        ],
    )
    def test_families(self, g):
        _assert_matches_reference(g)

    def test_sixty_reducible_g16_under_two_seconds(self):
        graphs = _reducible_gnp(16, 0.3, 60)
        t0 = time.perf_counter()
        for g in graphs:
            w.wtc_exact(g)
        assert time.perf_counter() - t0 < 2.0


class TestSizeNMinusOneFromExtremeSet:
    """``wtc_exact`` reads size n - 1 off the extreme set: the first
    convex (n-1)-subset that ``_first_convex`` finds is V - {x} for the
    largest extreme x, and there is none when no vertex is extreme."""

    @staticmethod
    def check(g):
        ext = w.extreme_vertices(g)
        want = _first_convex(g, g.n - 1)
        assert want == (g._full & ~(1 << max(ext)) if ext else None)
        if not w.is_complete(g) and not w.is_prime(g) and g.n <= DEFAULT_WTC_CAP:
            res = w.wtc_exact(g)
            assert (res.value == g.n - 1) == bool(ext)
            if ext:
                assert mask_of(res.witness) == want

    def test_corpus(self, corpus):
        for g in corpus:
            if g.n >= 2 and w.is_connected(g):
                self.check(g)

    @pytest.mark.parametrize("n", range(5, 17))
    def test_random_reducible(self, n):
        for g in _reducible_gnp(n, 0.15 + 0.05 * (n % 6), 20, seed=7000 * n):
            self.check(g)

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 16, 40])
    def test_paths(self, n):
        self.check(w.path_graph(n))

    @pytest.mark.parametrize("spine,legs", [(2, 1), (3, 2), (5, 2), (4, 3), (12, 2)])
    def test_caterpillars(self, spine, legs):
        self.check(caterpillar(spine, legs))


class TestStackSearches:
    """``max_clique`` and ``_first_convex`` run as loops over an explicit
    stack: they find what the recursive searches find, at any depth."""

    def test_deep_searches_under_recursion_limit_100(self):
        # K_240 minus a perfect matching is prime with omega = 120, and
        # the first convex set of P_120 has 119 members: a recursive search
        # goes 120 calls deep in both
        script = textwrap.dedent("""
            import sys
            import wtoll as w
            sys.setrecursionlimit(100)
            n = 240
            g = w.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u + n // 2])
            assert len(w.max_clique(g)) == 120
            assert w.wtc_exact(w.path_graph(120), cap=120).value == 119
        """)
        src = str(Path(w.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, encoding="utf-8", env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_max_clique_matches_recursive_reference(self, corpus):
        rng = random.Random(12)
        graphs = corpus + [
            w.gnp_graph(rng.randint(2, 40), rng.uniform(0.2, 0.9), seed=seed)
            for seed in range(400)
        ]
        for g in graphs:
            assert w.max_clique(g) == reference_max_clique(g)

    def test_first_convex_matches_recursive_reference(self, corpus):
        graphs = [g for g in corpus if g.n >= 2 and not w.is_prime(g)]
        for n in range(8, 17):  # 9 x 23 = 207 reducible G(n, p), p from 0.2 to 0.3
            graphs += _reducible_gnp(n, 0.2 + 0.0125 * (n - 8), 23, seed=5000 * n)
        for g in graphs:
            for size in range(1, g.n):
                # fresh copies, so neither side reads the other's pair memo
                expected = reference_first_convex(w.Graph(g.n, g.edges()), 0, 0, 0, size)
                assert _first_convex(w.Graph(g.n, g.edges()), size) == expected


class TestCliqueReduction:
    def test_p3(self):
        r = w.clique_reduction(w.path_graph(3), 3)
        assert (r.g_prime.n, r.g_prime.m) == (4, 4)
        assert r.added == {3: (0, 2)}
        assert r.k_prime == 3

    def test_k3_unchanged(self):
        r = w.clique_reduction(w.complete_graph(3), 3)
        assert r.g_prime == w.complete_graph(3)
        assert r.added == {}

    def test_c4(self):
        r = w.clique_reduction(w.cycle_graph(4), 3)
        assert (r.g_prime.n, r.g_prime.m) == (6, 8)
        assert w.is_prime(r.g_prime)

    def test_added_vertices_have_degree_two(self):
        r = w.clique_reduction(w.path_graph(5), 4)
        for x, (u, v) in r.added.items():
            assert r.g_prime.neighbors(x) == {u, v}
            assert not r.g_prime.has_edge(u, v)

    def test_vertex_count_formula(self):
        g = w.star_graph(5)
        nonadjacent = sum(
            1 for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        )
        r = w.clique_reduction(g, 3)
        assert r.g_prime.n == g.n + nonadjacent

    def test_rejects_small_k(self):
        with pytest.raises(ValueError, match="k >= 3"):
            w.clique_reduction(w.path_graph(3), 2)

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            w.clique_reduction(w.complete_graph(1), 3)

    def test_serialization_roundtrip_with_comment_map(self):
        r = w.clique_reduction(w.path_graph(3), 3)
        text = reduction_edge_list(r)
        assert "added 3 for pair (0, 2)" in text
        assert w.parse_edge_list(text) == r.g_prime

    def test_clique_equivalence_spot(self):
        g = w.cycle_graph(6)
        r = w.clique_reduction(g, 3)
        assert (len(w.max_clique(r.g_prime)) >= 3) == (len(w.max_clique(g)) >= 3)
