import random
import time

import pytest
from hypothesis import given, settings

import wtoll as w
from wtoll import DisconnectedGraphError, atoms, graph
from wtoll.atoms import _mcs_m, brute_force_atoms
from wtoll.graph import _is_clique_mask, bits, mask_of

from _reference import reference_annotate, reference_atom_masks, reference_mcs_m
from _strategies import (
    caterpillar,
    clique_chain,
    connected_graphs,
    giant_component,
    random_connected_gnp,
    shuffled,
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
        meo, separators = _mcs_m(g, g._full)
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

    def test_within_a_mask_is_the_induced_subgraph(self):
        # the ordering is the one of the induced subgraph, relabelled in
        # vertex order; a separator that subgraph records is recorded
        # alike (the whole graph's larger Δ may add more, which can then
        # be no clique of the subgraph)
        rng = random.Random(77)
        cases = []
        for g in [*_mcs_m_graphs(), *(_with_pendant_trees(clique_chain(4, 4), 9, s)
                                      for s in range(5))]:
            within = 0
            for v in range(g.n):
                if rng.random() < 0.7:
                    within |= 1 << v
            cases.append((g, within))
        # the low half of the G(1000, 4/n) giant leaves out the high ids,
        # so MCS-M's power table is sized by within, not by g.n
        giant = giant_component(w.gnp_graph(1000, 4 / 1000, seed=1000))
        cases.append((giant, (1 << giant.n // 2) - 1))
        for g, within in cases:
            order = list(bits(within))
            index = {v: i for i, v in enumerate(order)}
            sub = w.Graph(len(order), [(index[a], index[b]) for a, b in g.edges()
                                       if a in index and b in index])
            meo, separators = _mcs_m(g, within)
            sub_meo, sub_separators = _mcs_m(sub, sub._full)
            assert meo == [order[i] for i in sub_meo]
            for x, s in sub_separators.items():
                assert separators[order[x]] == mask_of(order[i] for i in bits(s))
            for x, s in separators.items():
                if index[x] not in sub_separators:
                    assert not _is_clique_mask(g._masks, s)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_separator_just_below_the_bound(self, k):
        g = _near_complete(k)
        assert _mcs_m(g, g._full)[1] == {1: mask_of(range(2, k + 2))}
        assert [sorted(a) for a in w.decompose(g).atoms] == [
            sorted(a) for a in brute_force_atoms(g)
        ] == [[0, *range(2, k + 2)], [1, *range(2, k + 2)]]


class _CountingMasks(tuple):
    """A neighbour-mask tuple that counts its indexed reads."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize(
    ("g", "reads"),
    [(giant_component(w.gnp_graph(1000, 4 / 1000, seed=1000)), 311_626),
     (clique_chain(100, 4), 301)],
    ids=["gnp1000_giant", "clique_chain100x4"],
)
def test_mcs_m_mask_reads_are_pinned(monkeypatch, g, reads):
    # one read per numbered vertex and one per reach visit: a change to the
    # reach that visits more or fewer vertices has to update these numbers
    g = w.Graph(g.n, g.edges())
    g._masks = _CountingMasks(g._masks)
    monkeypatch.setattr(_CountingMasks, "reads", 0)
    _mcs_m(g, g._full)
    assert _CountingMasks.reads == reads


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


def _random_tree(n, seed):
    rng = random.Random(seed)
    return w.Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def _with_pendant_trees(core, extra, seed):
    """``core`` with ``extra`` more vertices, each joined to one earlier
    vertex, then relabelled: the peeled core is ``core`` again."""
    rng = random.Random(seed)
    n = core.n + extra
    edges = core.edges() + [(rng.randrange(v), v) for v in range(core.n, n)]
    return shuffled(w.Graph(n, edges), seed)


def _peeling_graphs():
    yield from (w.complete_graph(1), w.complete_graph(2), w.path_graph(3))
    yield from (w.star_graph(k) for k in range(2, 9))
    for n in (2, 3, 5, 12, 40, 150):
        yield _random_tree(n, n)
        yield shuffled(_random_tree(n, n), n + 1)
    for spine, legs in ((1, 1), (2, 1), (10, 1), (30, 2), (60, 3)):
        yield caterpillar(spine, legs)
        yield shuffled(caterpillar(spine, legs), spine)
    for n in (20, 60, 150, 400):
        for seed in range(3):
            yield giant_component(w.gnp_graph(n, 3 / n, seed=100 * n + seed))
    for seed in range(6):
        yield _with_pendant_trees(w.path_graph(2), 10, seed)  # peeled core: one edge
        yield _with_pendant_trees(w.cycle_graph(3), 10, seed)  # peeled core: a triangle
        yield _with_pendant_trees(w.cycle_graph(5), 12, seed)
        yield _with_pendant_trees(clique_chain(4, 4), 15, seed)


class TestPendantPeeling:
    """Peeling pendant vertices before MCS-M against MCS-M on the whole graph."""

    @staticmethod
    def _assert_matches_reference(g):
        ref_masks = list(reference_atom_masks(g))
        expected = reference_annotate(sorted(ref_masks, key=lambda m: sorted(bits(m))))
        # a fresh Graph each, so neither call reads the other's memo
        assert w.decompose(w.Graph(g.n, g.edges())) == expected, g.edges()
        assert w.is_prime(w.Graph(g.n, g.edges())) == (ref_masks[0] == g._full)

    def test_corpus(self, corpus):
        for g in corpus:
            self._assert_matches_reference(g)

    def test_trees_caterpillars_giants_and_small_cores(self):
        for g in _peeling_graphs():
            self._assert_matches_reference(g)

    @pytest.mark.parametrize("g", [w.path_graph(2), _random_tree(60, 1), caterpillar(20, 2)])
    def test_a_tree_runs_no_mcs_m(self, monkeypatch, g):
        def no_mcs_m(g, within):
            raise AssertionError("MCS-M ran on a tree")

        monkeypatch.setattr(atoms, "_mcs_m", no_mcs_m)
        assert len(w.decompose(g).atoms) == g.n - 1

    def test_mcs_m_sees_only_the_core(self, monkeypatch):
        # a 5-cycle on vertices 3..7 with a pendant path 0 - 1 - 2 at 5
        g = w.Graph(8, [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (5, 2), (2, 1), (1, 0)])
        seen = []

        def recording(g, within):
            seen.append(within)
            return _mcs_m(g, within)

        monkeypatch.setattr(atoms, "_mcs_m", recording)
        d = w.decompose(g)
        assert seen == [mask_of(range(3, 8))]
        assert sorted(map(sorted, d.atoms)) == [[0, 1], [1, 2], [2, 5], [3, 4, 5, 6, 7]]

    def test_no_pendant_vertex_takes_the_whole_graph(self, monkeypatch):
        g = clique_chain(5, 3)
        seen = []

        def recording(g, within):
            seen.append(within)
            return _mcs_m(g, within)

        monkeypatch.setattr(atoms, "_mcs_m", recording)
        w.decompose(g)
        assert seen == [g._full]

    def test_is_prime_stops_at_a_pendant_vertex(self, monkeypatch):
        def no_mcs_m(g, within):
            raise AssertionError("is_prime ran MCS-M past a pendant vertex")

        monkeypatch.setattr(atoms, "_mcs_m", no_mcs_m)
        assert not w.is_prime(_with_pendant_trees(w.cycle_graph(5), 3, 0))
        assert w.is_prime(w.path_graph(2))
        assert w.is_prime(w.path_graph(1))


def test_decompose_shuffled_long_path():
    # one atom per edge, every vertex peeled; MCS-M over the whole path took 3.3 s
    g = shuffled(w.path_graph(5000), 5000)
    start = time.perf_counter()
    d = w.decompose(g)
    elapsed = time.perf_counter() - start
    assert len(d.atoms) == 4999
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "g",
    [shuffled(w.path_graph(2000), 2000), caterpillar(700, 2)],
    ids=["shuffled_path2000", "caterpillar700x2"],
)
def test_decompose_reads_no_peeled_atom_as_a_mask(monkeypatch, g):
    # a peeled atom is a member pair, not an n-bit mask to walk; only the
    # final core (one edge) is read off a mask wider than the lookup table
    g = w.Graph(g.n, g.edges())
    walk = graph._bits_from
    calls = []

    def counting(mask):
        calls.append(mask)
        return walk(mask)

    monkeypatch.setattr(graph, "_bits_from", counting)
    assert len(w.decompose(g).atoms) == g.n - 1
    assert len(calls) <= 1


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
