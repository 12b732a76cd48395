import random

import pytest
from hypothesis import given, settings

import wtoll as w
from wtoll.intervals import _interval_mask

from _reference import interval_members, reference_interval_mask
from _strategies import graph_and_subset, graphs


class TestMembership:
    def test_p4_witness(self):
        wit = w.in_weakly_toll_walk(w.path_graph(4), 0, 3, 1)
        assert wit is not None
        assert (wit.v_u, wit.v_w) == (1, 2)

    def test_common_neighbor_always_member(self):
        g = w.star_graph(4)
        assert w.in_weakly_toll_walk(g, 1, 2, 0) is not None

    def test_p5_far_vertex_absent(self):
        assert w.in_weakly_toll_walk(w.path_graph(5), 0, 2, 4) is None

    def test_witness_invariants(self):
        g = w.bowtie_graph()
        wit = w.in_weakly_toll_walk(g, 0, 3, 2)
        assert wit is not None
        assert wit.v_u in g.neighbors(0)
        assert wit.v_w in g.neighbors(3)
        assert {wit.v_u, wit.v_w, 2} <= wit.component

    def test_rejects_adjacent_endpoints(self):
        with pytest.raises(ValueError):
            w.in_weakly_toll_walk(w.path_graph(4), 0, 1, 2)

    def test_rejects_repeated_vertices(self):
        with pytest.raises(ValueError):
            w.in_weakly_toll_walk(w.path_graph(4), 0, 3, 0)

    def test_deterministic(self):
        g = w.bowtie_graph()
        assert w.in_weakly_toll_walk(g, 0, 3, 2) == w.in_weakly_toll_walk(g, 0, 3, 2)


class TestInterval:
    def test_p4(self):
        assert w.interval(w.path_graph(4), {0, 3}) == {0, 1, 2, 3}

    def test_complete_graph_is_inert(self):
        g = w.complete_graph(5)
        assert w.interval(g, {1, 3}) == {1, 3}

    def test_star_two_leaves(self):
        assert w.interval(w.star_graph(4), {1, 2}) == {0, 1, 2, 3}

    def test_p5_pair(self):
        assert w.interval(w.path_graph(5), {0, 2}) == {0, 1, 2}

    def test_empty(self):
        assert w.interval(w.path_graph(4), ()) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            w.interval(w.path_graph(4), {9})

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_matches_per_vertex_contract(self, g):
        s = frozenset(range(0, g.n, 2))
        assert w.interval(g, s) == interval_members(g, s)

    def test_matches_per_vertex_contract_corpus(self, corpus_small):
        for g in corpus_small:
            for s in ({0}, set(range(0, g.n, 2)), set(range(g.n))):
                assert w.interval(g, s) == interval_members(g, s)


def _subset_masks(g, rng):
    """S = {}, S = V, the even vertices and three random subsets of V."""
    evens = sum(1 << v for v in range(0, g.n, 2))
    return [0, g._full, evens] + [rng.getrandbits(g.n) for _ in range(3)]


class TestIntervalMask:
    """The interval over the shared nonadjacent-pair scan against the
    double loop over the members of S: the same mask, and the same pair
    walk masks computed, in the same order."""

    @staticmethod
    def _assert_matches_reference(g, smask):
        g._pair_cache.clear()
        got = _interval_mask(g, smask)
        pairs = list(g._pair_cache)
        g._pair_cache.clear()
        assert got == reference_interval_mask(g, smask)
        assert pairs == list(g._pair_cache)

    def test_matches_reference_corpus(self, corpus):
        rng = random.Random(2411)
        for g in corpus:
            for smask in _subset_masks(g, rng):
                self._assert_matches_reference(g, smask)

    def test_matches_reference_random(self):
        rng = random.Random(2412)
        for _ in range(300):
            n = rng.randint(2, 40)
            g = w.gnp_graph(n, rng.choice((0.1, 0.2, 0.35, 0.5, 0.7)), seed=rng.randrange(10**6))
            for smask in _subset_masks(g, rng):
                self._assert_matches_reference(g, smask)


class TestHull:
    def test_p4(self):
        assert w.hull(w.path_graph(4), {0, 3}) == {0, 1, 2, 3}

    def test_whole_vertex_set(self):
        g = w.bowtie_graph()
        assert w.hull(g, range(5)) == frozenset(range(5))

    def test_singleton(self):
        assert w.hull(w.bowtie_graph(), {2}) == {2}

    def test_needs_iteration(self):
        # C4 with a pendant hung on it: the first interval pass of {1, 4} is
        # not yet closed, the hull fixpoint is
        g = w.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        s = {1, 4}
        assert w.interval(g, s) != w.hull(g, s)
        assert w.is_convex(g, w.hull(g, s))


class TestConvexity:
    def test_p4_prefix_convex(self):
        assert w.is_convex(w.path_graph(4), {0, 1, 2})

    def test_p4_endpoints_not_convex(self):
        assert not w.is_convex(w.path_graph(4), {0, 3})

    def test_empty_convex(self):
        assert w.is_convex(w.path_graph(4), ())


class TestExtremeVertices:
    def test_complete(self):
        assert w.extreme_vertices(w.complete_graph(4)) == frozenset(range(4))

    def test_p4(self):
        assert w.extreme_vertices(w.path_graph(4)) == {0, 3}

    def test_star(self):
        assert w.extreme_vertices(w.star_graph(4)) == frozenset()

    def test_is_extreme_vertex_agrees(self, corpus_small):
        for g in corpus_small:
            # a fresh graph, so each answer comes from the layer test
            cold = w.Graph(g.n, g.edges())
            ext = w.extreme_vertices(g)
            for x in range(g.n):
                assert w.is_extreme_vertex(cold, x) == (x in ext)

    def test_removal_convexity_characterization(self, corpus_small):
        for g in corpus_small:
            ext = w.extreme_vertices(g)
            for x in range(g.n):
                others = set(range(g.n)) - {x}
                assert w.is_convex(g, others) == (x in ext)


class TestOperatorAlgebra:
    @given(graph_and_subset(max_n=10))
    @settings(max_examples=80)
    def test_extensive_and_idempotent(self, gs):
        g, s = gs
        iv = w.interval(g, s)
        h = w.hull(g, s)
        assert s <= iv <= h
        assert w.hull(g, h) == h
        assert w.is_convex(g, h)

    @given(graph_and_subset(max_n=10))
    @settings(max_examples=80)
    def test_monotone(self, gs):
        g, s = gs
        t = s | frozenset(range(0, g.n, 3))
        assert w.interval(g, s) <= w.interval(g, t)
        assert w.hull(g, s) <= w.hull(g, t)

    @given(graphs(max_n=10))
    @settings(max_examples=60)
    def test_cliques_are_convex(self, g):
        clique = w.max_clique(g)
        assert w.is_convex(g, clique)


class TestTwinBehaviour:
    def test_twin_interchange(self, corpus):
        for g in corpus:
            part = w.twin_classes(g)
            doubled = [c for c in part.classes if len(c) >= 2]
            for cls in doubled:
                u, u2 = sorted(cls)[:2]
                for a in range(g.n):
                    for b in range(a + 1, g.n):
                        if {a, b} & {u, u2} or g.has_edge(a, b):
                            continue
                        iv = w.interval(g, {a, b})
                        assert (u in iv) == (u2 in iv)

    def test_interval_via_representatives(self, corpus):
        def representatives(part, s):
            # the least member of S in each twin class that S meets
            return frozenset(min(cls & s) for cls in part.classes if cls & s)

        for g in corpus:
            part = w.twin_classes(g)
            for s in (set(range(g.n)), set(range(0, g.n, 2))):
                rep = representatives(part, s)
                assert w.interval(g, s) == frozenset(s) | w.interval(g, rep)
