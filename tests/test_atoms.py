import random
import time

import pytest
from hypothesis import given, settings

import wtoll as w
from wtoll import DisconnectedGraphError
from wtoll.atoms import _mcs_m, brute_force_atoms
from wtoll.graph import _is_clique_mask, mask_of

from _reference import reference_annotate, reference_mcs_m
from _strategies import (
    caterpillar,
    clique_chain,
    connected_graphs,
    giant_component,
    random_connected_gnp,
)


class TestIsPrime:
    def test_chordless_cycle(self):
        assert w.is_prime(w.cycle_graph(5))

    def test_path_reducible(self):
        assert not w.is_prime(w.path_graph(4))

    def test_complete(self):
        assert w.is_prime(w.complete_graph(4))
        assert w.is_prime(w.complete_graph(1))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            w.is_prime(w.Graph(3, [(0, 1)]))


class TestDecompose:
    def test_p4(self):
        d = w.decompose(w.path_graph(4))
        assert [sorted(a) for a in d.atoms] == [[0, 1], [1, 2], [2, 3]]

    def test_c5_single_atom(self):
        d = w.decompose(w.cycle_graph(5))
        assert [sorted(a) for a in d.atoms] == [[0, 1, 2, 3, 4]]

    def test_bowtie_shared_vertex(self):
        d = w.decompose(w.bowtie_graph())
        assert [sorted(a) for a in d.atoms] == [[0, 1, 2], [2, 3, 4]]
        assert d.shared == (frozenset({2}), frozenset({2}))
        assert d.exclusive == (frozenset({0, 1}), frozenset({3, 4}))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            w.decompose(w.Graph(4, [(0, 1), (2, 3)]))

    def test_matches_enumeration_corpus(self, corpus):
        for g in corpus:
            assert [sorted(a) for a in w.decompose(g).atoms] == [
                sorted(a) for a in brute_force_atoms(g)
            ]

    @given(connected_graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_random(self, g):
        assert [sorted(a) for a in w.decompose(g).atoms] == [
            sorted(a) for a in brute_force_atoms(g)
        ]

    @given(connected_graphs(max_n=9))
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, g):
        d = w.decompose(g)
        assert frozenset().union(*d.atoms) == frozenset(range(g.n))
        for i in range(len(d.atoms)):
            assert d.atoms[i] == d.shared[i] | d.exclusive[i]
            for j in range(i + 1, len(d.atoms)):
                assert w.is_clique(g, d.atoms[i] & d.atoms[j])
                assert not (d.exclusive[i] & d.exclusive[j])
        if len(d.atoms) >= 2:
            assert sum(d.extremal) >= 2
        assert w.is_prime(g) == (len(d.atoms) == 1)


def _near_complete(k):
    """K_{k+2} minus the edge 01: two K_{k+1} glued on a K_k, whose clique
    separator has Δ - 1 members."""
    return w.Graph(k + 2, [(u, v) for u in range(k + 2) for v in range(max(u + 1, 2), k + 2)])


def _mcs_m_graphs():
    yield from (w.gnp_graph(n, 4 / n, seed=n) for n in (40, 120, 300))
    yield from (random_connected_gnp(n, 0.2, seed=n) for n in (20, 60))
    yield w.path_graph(300)
    yield caterpillar(100, 2)
    yield clique_chain(100, 4)
    yield giant_component(w.gnp_graph(1000, 4 / 1000, seed=1000))
    yield from (_near_complete(k) for k in range(1, 9))


class TestMcsM:
    """The bitmask MCS-M against the set-based reference."""

    @staticmethod
    def _assert_matches_reference(g):
        meo, separators = _mcs_m(g)
        ref_meo, ref_h, ref_generators = reference_mcs_m(g)
        assert meo == ref_meo
        # a generator's separator is its later neighborhood in the reference
        # triangulation; one above the bound has too many members for a clique
        bound = max((g.degree(v) for v in range(g.n)), default=0) + 1
        pos = {v: i for i, v in enumerate(ref_meo)}
        ref_separators = {
            x: mask_of(y for y in ref_h[x] if pos[y] > pos[x]) for x in ref_generators
        }
        assert separators == {
            x: s for x, s in ref_separators.items() if s.bit_count() <= bound
        }
        for x, s in ref_separators.items():
            if x not in separators:
                assert not _is_clique_mask(g._masks, s)

    def test_matches_reference_corpus(self, corpus):
        for g in corpus:
            self._assert_matches_reference(g)

    def test_matches_reference_larger(self):
        for g in _mcs_m_graphs():
            self._assert_matches_reference(g)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_separator_just_below_the_bound(self, k):
        g = _near_complete(k)
        assert _mcs_m(g)[1] == {1: mask_of(range(2, k + 2))}
        assert [sorted(a) for a in w.decompose(g).atoms] == [
            sorted(a) for a in brute_force_atoms(g)
        ] == [[0, *range(2, k + 2)], [1, *range(2, k + 2)]]


def _annotate_graphs():
    rng = random.Random(2004)
    for _ in range(200):
        yield random_connected_gnp(
            rng.randint(2, 12), rng.choice((0.15, 0.25, 0.4, 0.6)), seed=rng.randrange(10**6)
        )
    yield clique_chain(6, 3)
    yield w.path_graph(40)
    yield caterpillar(20, 2)
    yield clique_chain(12, 4)


class TestAnnotate:
    """The indexed atom annotation against the triple-loop reference."""

    @staticmethod
    def _assert_matches_reference(g):
        d = w.decompose(g)
        assert d == reference_annotate([mask_of(a) for a in d.atoms])

    def test_matches_reference_corpus(self, corpus):
        for g in corpus:
            self._assert_matches_reference(g)
            assert w.is_prime(g) == (len(w.decompose(g).atoms) == 1)

    def test_matches_reference_random_and_chains(self):
        for g in _annotate_graphs():
            self._assert_matches_reference(g)


@pytest.mark.parametrize(
    "g", [w.path_graph(1000), caterpillar(500, 2)], ids=["path1000", "caterpillar500x2"]
)
def test_decompose_scales_to_long_chains(g):
    # one atom per edge; an annotation cubic in the atom count takes minutes here
    start = time.perf_counter()
    d = w.decompose(g)
    elapsed = time.perf_counter() - start
    assert len(d.atoms) == g.n - 1
    assert elapsed < 3.0


def _extremal(d):
    return [i for i, flag in enumerate(d.extremal) if flag]


class TestExtremalAtoms:
    def test_p4_end_atoms(self):
        d = w.decompose(w.path_graph(4))
        assert _extremal(d) == [0, 2]

    def test_bowtie_both(self):
        d = w.decompose(w.bowtie_graph())
        assert _extremal(d) == [0, 1]

    def test_triangle_chain_ends(self):
        d = w.decompose(clique_chain(4, 3))
        idxs = _extremal(d)
        assert [sorted(d.atoms[i]) for i in idxs] == [[0, 1, 2], [6, 7, 8]]

    def test_partner_dominates_intersections(self):
        d = w.decompose(clique_chain(3, 3))
        for i in _extremal(d):
            j = d.partner[i]
            assert d.shared[i] == d.atoms[i] & d.atoms[j]


class TestBruteForceAtoms:
    def test_cap(self):
        with pytest.raises(w.CapExceededError):
            brute_force_atoms(w.path_graph(13))

    def test_star(self):
        assert [sorted(a) for a in brute_force_atoms(w.star_graph(4))] == [
            [0, 1], [0, 2], [0, 3]
        ]
