"""The base-labelling walk kernel against the per-(v_u, v_w) reference."""

import random

import pytest

import wtoll as w
import wtoll.intervals as intervals
from wtoll.intervals import _pair_walk_mask

from _reference import reference_in_weakly_toll_walk, reference_pair_walk_mask
from _strategies import caterpillar, clique_chain, connected_components, random_connected_gnp


def _nonadjacent_pairs(g):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                yield u, v


def _random_graphs(count=300, max_n=12):
    rng = random.Random(2303)
    return [
        random_connected_gnp(rng.randint(2, max_n), rng.choice((0.2, 0.35, 0.5, 0.7)),
                               seed=rng.randrange(10**6))
        for _ in range(count)
    ]


LARGER = {
    "gnp60": random_connected_gnp(60, 0.3, seed=7),
    "path40": w.path_graph(40),
    "caterpillar": caterpillar(15, 2),
    "clique_chain": clique_chain(8, 4),
}


def _sampled_pairs(g, count=150):
    pairs = list(_nonadjacent_pairs(g))
    return pairs[::max(1, len(pairs) // count)]


def _assert_masks_match(g, pairs=None):
    for u, v in _nonadjacent_pairs(g) if pairs is None else pairs:
        for a, b in ((u, v), (v, u)):
            g._pair_cache.clear()
            assert _pair_walk_mask(g, a, b) == reference_pair_walk_mask(g, a, b), (g, a, b)


def _assert_witnesses_match(g, pairs=None):
    for u, v in _nonadjacent_pairs(g) if pairs is None else pairs:
        for a, b in ((u, v), (v, u)):
            for x in range(g.n):
                if x in (a, b):
                    continue
                assert w.in_weakly_toll_walk(g, a, b, x) == \
                    reference_in_weakly_toll_walk(g, a, b, x), (g, a, b, x)


class TestPairWalkMask:
    def test_corpus(self, corpus):
        for g in corpus:
            _assert_masks_match(g)

    def test_random_graphs(self):
        for g in _random_graphs():
            _assert_masks_match(g)

    @pytest.mark.parametrize("name", sorted(LARGER))
    def test_larger_graphs(self, name):
        g = LARGER[name]
        _assert_masks_match(g, _sampled_pairs(g))


class TestMembershipWitness:
    def test_corpus(self, corpus):
        for g in corpus:
            _assert_witnesses_match(g)

    def test_random_graphs(self):
        for g in _random_graphs(count=60, max_n=10):
            _assert_witnesses_match(g)

    @pytest.mark.parametrize("name", sorted(LARGER))
    def test_larger_graphs(self, name):
        g = LARGER[name]
        _assert_witnesses_match(g, _sampled_pairs(g, count=30))


def test_cold_pair_sweeps_each_base_component_at_most_once(monkeypatch):
    """Work guard: a cold pair mask sweeps no base component twice.

    The per-(v_u, v_w) kernel makes up to deg(u) * deg(w) sweeps per
    pair; labelling the base makes at most one per component of
    G - (N[u] union N[w]).
    """
    sweeps = 0
    real = intervals.component_mask

    def counted(*args):
        nonlocal sweeps
        sweeps += 1
        return real(*args)

    monkeypatch.setattr(intervals, "component_mask", counted)
    g = random_connected_gnp(120, 0.3, seed=11)
    pairs = list(_nonadjacent_pairs(g))[::25]
    assert len(pairs) > 100
    for u, v in pairs:
        closed = g.neighbors(u) | g.neighbors(v) | {u, v}
        base_components = len(connected_components(g, removed=closed))
        g._pair_cache.clear()
        sweeps = 0
        _pair_walk_mask(g, u, v)
        assert sweeps <= base_components, (u, v, sweeps, base_components)
