import random

import pytest

import wtoll as w
from wtoll import CapExceededError
from wtoll.oracle import WalkWitness, oracle_interval, oracle_membership

from _reference import oracle_extreme, oracle_hull


class TestMembership:
    def test_p4_natural_walk(self):
        wit = oracle_membership(w.path_graph(4), 0, 3, 1)
        assert wit is not None and wit.sequence == (0, 1, 2, 3)

    def test_p5_absent(self):
        assert oracle_membership(w.path_graph(5), 0, 2, 4) is None

    def test_star_doubles_back_through_center(self):
        wit = oracle_membership(w.star_graph(4), 1, 2, 3)
        assert wit is not None and wit.sequence == (1, 0, 3, 0, 2)

    def test_witness_self_validates(self, corpus_small):
        for g in corpus_small:
            for u in range(g.n):
                for ww in range(u + 1, g.n):
                    if g.has_edge(u, ww):
                        continue
                    for v in range(g.n):
                        if v in (u, ww):
                            continue
                        wit = oracle_membership(g, u, ww, v)
                        if wit is not None:
                            assert wit.is_weakly_toll(g)
                            assert wit.sequence[0] == u
                            assert wit.sequence[-1] == ww
                            assert v in wit.sequence

    def test_rejects_adjacent_endpoints(self):
        with pytest.raises(ValueError):
            oracle_membership(w.path_graph(4), 0, 1, 2)

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            oracle_membership(w.path_graph(10), 0, 9, 5)

    def test_length_bound_not_truncating(self, corpus):
        # enumeration with the default bound and a looser 3n bound agree
        for g in corpus:
            if g.n > 6:
                continue
            for u in range(g.n):
                for ww in range(u + 1, g.n):
                    if g.has_edge(u, ww):
                        continue
                    for v in range(g.n):
                        if v in (u, ww):
                            continue
                        short = oracle_membership(g, u, ww, v)
                        loose = oracle_membership(g, u, ww, v, max_len=3 * g.n)
                        assert (short is None) == (loose is None)


class TestDerivedOperators:
    def test_interval_p4(self):
        assert oracle_interval(w.path_graph(4), {0, 3}) == {0, 1, 2, 3}

    def test_interval_complete_inert(self):
        assert oracle_interval(w.complete_graph(4), {1, 2}) == {1, 2}

    def test_hull_matches_interval_fixpoint(self):
        g = w.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        s = {1, 4}
        assert oracle_hull(g, s) == w.hull(g, s)

    def test_extreme_p4(self):
        assert oracle_extreme(w.path_graph(4)) == {0, 3}

    def test_extreme_star(self):
        assert oracle_extreme(w.star_graph(4)) == frozenset()

    def test_cap_refusals(self):
        big = w.path_graph(10)
        with pytest.raises(CapExceededError):
            oracle_interval(big, {0, 9})
        with pytest.raises(CapExceededError):
            oracle_extreme(big)

    def test_agrees_with_fast_operators_on_random_sets(self):
        rng = random.Random(123)
        for _ in range(200):
            n = rng.randint(2, 8)
            g = w.gnp_graph(n, rng.choice((0.2, 0.4, 0.6)), seed=rng.randrange(1 << 30))
            s = frozenset(v for v in range(n) if rng.random() < 0.4)
            assert oracle_interval(g, s) == w.interval(g, s)
            assert oracle_hull(g, s) == w.hull(g, s)
            assert oracle_extreme(g) == w.extreme_vertices(g)

    def test_walk_witness_validator(self):
        p4 = w.path_graph(4)
        assert WalkWitness((0, 1, 2, 3)).is_weakly_toll(p4)
        assert not WalkWitness((0, 2)).is_weakly_toll(p4)  # not a walk
        c4 = w.cycle_graph(4)
        assert not WalkWitness((0, 1, 2, 3)).is_weakly_toll(c4)  # ends adjacent
        paw = w.Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        # interior 2 is a second walk vertex adjacent to the endpoint 1
        assert not WalkWitness((3, 2, 0, 1)).is_weakly_toll(paw)
