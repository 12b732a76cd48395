import random
import time

import pytest

import wtoll as w
from wtoll import CapExceededError, DisconnectedGraphError, InternalConsistencyError, graph
from wtoll.oracle import oracle_interval

from _reference import (
    brute_force_wth,
    brute_force_wtn,
    reference_wth,
    reference_wtn_twin_filter,
    reference_wtn_unpruned,
)
from _strategies import caterpillar, clique_chain, giant_component, random_connected_gnp


class TestWtn:
    def test_complete(self):
        res = w.wtn(w.complete_graph(5))
        assert (res.value, res.case_tag) == (5, "COMPLETE")
        assert res.witness == frozenset(range(5))

    def test_p4(self):
        res = w.wtn(w.path_graph(4))
        assert (res.value, res.witness, res.case_tag) == (2, {0, 3}, "WTN_K2")

    def test_star_no_extreme_classes(self):
        res = w.wtn(w.star_graph(4))
        assert (res.value, res.case_tag) == (2, "WTN_K0")
        assert res.witness == {1, 2}

    def test_bowtie(self):
        res = w.wtn(w.bowtie_graph())
        assert (res.value, res.witness, res.case_tag) == (4, {0, 1, 3, 4}, "WTN_K2")

    def test_single_extreme_class(self):
        # house: only the roof tip is extreme, so the search extends {4}
        g = w.Graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
        res = w.wtn(g)
        assert (res.value, res.witness, res.case_tag) == (2, {1, 4}, "WTN_K1")

    def test_single_vertex(self):
        assert w.wtn(w.complete_graph(1)).value == 1

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            w.wtn(w.Graph(2, []))

    def test_witness_covers(self, corpus_small):
        for g in corpus_small:
            res = w.wtn(g)
            assert w.interval(g, res.witness) == frozenset(range(g.n))

    def test_pruned_equals_unpruned(self, corpus_small):
        for g in corpus_small:
            assert w.wtn(g).value == reference_wtn_unpruned(g).value

    def test_deterministic(self):
        g = random_connected_gnp(9, 0.3, seed=5)
        assert w.wtn(g) == w.wtn(g)


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return w.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _twin_pool_graphs():
    rng = random.Random(2005)
    for _ in range(200):
        yield random_connected_gnp(
            rng.randint(2, 12), rng.choice((0.2, 0.35, 0.5, 0.7)), seed=rng.randrange(10**6)
        )
    rng = random.Random(1313)
    for _ in range(400):
        yield random_connected_gnp(
            rng.randint(8, 16), rng.choice((0.2, 0.3, 0.5, 0.7, 0.9)), seed=rng.randrange(10**6)
        )
    for n in range(20, 81, 5):
        yield giant_component(w.gnp_graph(n, 3 / n, seed=n))
    # clique chains have twin classes of two or more members; caterpillars
    # have only singleton classes and search the widest (k = 0) window,
    # where on natural labels every spine vertex comes first and fails the
    # covering pair's endpoint test
    for count in (2, 3, 5, 12):
        for size in (3, 4, 5):
            yield clique_chain(count, size)
    for spine in (3, 5, 8, 20, 40):
        for legs in (1, 2):
            yield caterpillar(spine, legs)
            yield _relabelled(caterpillar(spine, legs), seed=100 * spine + legs)


def _is_fallback(res):
    # k = 0 with no covering pair: the general search decided the value
    return res.case_tag == "WTN_K0" and res.value >= 3


class TestWtnTwinPool:
    """The search over one representative per twin class, with the
    covering-pair scan for k = 0, against the search over all extras,
    skipping those holding two twins."""

    @staticmethod
    def _assert_matches_reference(g):
        # the reference runs on a copy, so it shares no pair memo with wtn
        res = w.wtn(g)
        assert res == reference_wtn_twin_filter(w.Graph(g.n, g.edges()))
        return res

    def test_matches_reference_corpus(self, corpus):
        fallbacks = sum(_is_fallback(self._assert_matches_reference(g)) for g in corpus)
        # the graphs where the covering-pair scan finds nothing are checked too
        assert fallbacks >= 20

    def test_matches_reference_random_and_chains(self):
        for g in _twin_pool_graphs():
            self._assert_matches_reference(g)


def _dominated_neighbors(g, u):
    closed = g.neighbors(u) | {u}
    return [z for z in g.neighbors(u) if g.neighbors(z) | {z} <= closed]


class TestCoveringPair:
    """The k = 0 scan skips every pair with an endpoint u that has a
    neighbor z with N[z] inside N[u]."""

    def test_lemma_against_walk_oracle(self, corpus):
        checked = 0
        for g in corpus:
            for u in range(g.n):
                dominated = _dominated_neighbors(g, u)
                if not dominated:
                    continue
                for v in set(range(g.n)) - g.neighbors(u) - {u}:
                    inside = oracle_interval(g, {u, v})
                    assert not inside & set(dominated), (g.edges(), u, v)
                    checked += 1
        assert checked > 1000

    def test_caterpillar_computes_one_pair_mask(self):
        # every spine vertex has a pendant leaf, so the scan reaches the
        # first two leaves before it computes a walk mask
        g = caterpillar(60, 2)
        assert w.wtn(g) == (2, {60, 61}, "WTN_K0")
        assert len(g._pair_cache) == 1

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: caterpillar(500, 2), id="caterpillar-500"),
            pytest.param(
                lambda: giant_component(w.gnp_graph(1000, 4 / 1000, seed=1000)),
                id="gnp-giant-1000",
            ),
        ],
    )
    def test_large_sparse_graphs_finish_fast(self, make):
        g = make()
        start = time.perf_counter()
        res = w.wtn(g)
        assert time.perf_counter() - start < 1.0
        assert (res.value, res.case_tag) == (2, "WTN_K0")
        assert w.interval(g, res.witness) == frozenset(range(g.n))


# k = 0 and wtn = 3: the general search runs past the size-2 window
_FALLBACK_GRAPH = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 3), (4, 5)]


class TestWtnBudget:
    def test_refuses_past_the_budget(self, monkeypatch):
        import wtoll.invariants

        # the search tries the 6 pairs of the pool {0, 1, 2, 4}; (1, 2)
        # completes to {1, 2, 3}, and no triple can beat that
        monkeypatch.setattr(wtoll.invariants, "_WTN_CANDIDATE_BUDGET", 5)
        with pytest.raises(CapExceededError, match="more than 5 candidates"):
            w.wtn(w.Graph(6, _FALLBACK_GRAPH))
        monkeypatch.setattr(wtoll.invariants, "_WTN_CANDIDATE_BUDGET", 6)
        assert w.wtn(w.Graph(6, _FALLBACK_GRAPH)) == (3, {1, 2, 3}, "WTN_K0")


# one graph per wth branch
WTH_CASES = [
    (w.complete_graph(3), "COMPLETE"),
    (w.cycle_graph(5), "PRIME_PAIR"),
    (w.star_graph(4), "THREE_EXTREMAL"),
    (w.Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)]),
     "EXCLUSIVE_NOT_CLIQUE"),
    (w.path_graph(4), "TWO_EXTREMAL_BOTH_EXTREME"),
    (w.Graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)]), "TWO_EXTREMAL_ONE_EXTREME"),
    (w.Graph(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 5)]), "TWO_EXTREMAL_NONE_EXTREME"),
]


class TestWth:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_complete_graphs(self, n):
        res = w.wth(w.complete_graph(n))
        assert (res.value, res.case_tag) == (n, "COMPLETE")

    def test_c5_prime_pair(self):
        res = w.wth(w.cycle_graph(5))
        assert (res.value, res.case_tag) == (2, "PRIME_PAIR")
        assert res.witness == {0, 2}

    def test_p4_two_extremal(self):
        res = w.wth(w.path_graph(4))
        assert (res.value, res.witness, res.case_tag) == (
            2, {0, 3}, "TWO_EXTREMAL_BOTH_EXTREME"
        )

    def test_bowtie(self):
        res = w.wth(w.bowtie_graph())
        assert (res.value, res.witness, res.case_tag) == (
            4, {0, 1, 3, 4}, "TWO_EXTREMAL_BOTH_EXTREME"
        )

    def test_star_three_extremal(self):
        res = w.wth(w.star_graph(4))
        assert (res.value, res.witness, res.case_tag) == (2, {1, 2}, "THREE_EXTREMAL")

    def test_one_extreme_branch(self):
        # house: C4 with a triangle roof; only the roof tip is extreme
        g = w.Graph(5, [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
        res = w.wth(g)
        assert (res.value, res.witness, res.case_tag) == (
            2, {1, 4}, "TWO_EXTREMAL_ONE_EXTREME"
        )

    def test_none_extreme_branch(self):
        g = w.Graph(6, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (3, 5)])
        res = w.wth(g)
        assert (res.value, res.case_tag) == (2, "TWO_EXTREMAL_NONE_EXTREME")
        assert w.hull(g, res.witness) == frozenset(range(6))

    def test_exclusive_not_clique_branch(self):
        # K4 glued to a C4 through one cut vertex: two extremal atoms, and
        # the C4 atom's exclusive set is not a clique
        g = w.Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (3, 4), (4, 5), (5, 6), (6, 3)])
        res = w.wth(g)
        assert res.case_tag == "EXCLUSIVE_NOT_CLIQUE"
        assert res.value == 2
        assert w.hull(g, res.witness) == frozenset(range(7))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            w.wth(w.Graph(2, []))

    def test_witness_is_hull_set(self, corpus_small):
        for g in corpus_small:
            res = w.wth(g)
            assert w.hull(g, res.witness) == frozenset(range(g.n))

    def test_never_exceeds_wtn(self, corpus):
        for g in corpus:
            assert w.wth(g).value <= w.wtn(g).value

    def test_extreme_vertices_in_every_witness(self, corpus):
        for g in corpus:
            ext = w.extreme_vertices(g)
            assert ext <= w.wtn(g).witness
            assert ext <= w.wth(g).witness

    @pytest.mark.parametrize("g,tag", WTH_CASES, ids=[tag for _, tag in WTH_CASES])
    def test_witness_that_is_no_hull_set_is_refused(self, monkeypatch, g, tag):
        # every branch leaves through the one hull check at wth's exit
        import wtoll.invariants

        assert w.wth(g).case_tag == tag
        monkeypatch.setattr(wtoll.invariants, "hull", lambda g, s: frozenset(s) - {min(s)})
        with pytest.raises(InternalConsistencyError, match=f"^{tag} witness .* not a hull set"):
            w.wth(g)


class TestWthReference:
    """wth over masks with one hull check returns the value, witness and
    case tag of the set-based version that checks at every exit."""

    @staticmethod
    def _same(g):
        got, want = w.wth(g), reference_wth(g)
        assert (got.value, got.witness, got.case_tag) == tuple(want), g.edges()
        return got.case_tag

    def test_corpus(self, corpus):
        tags = {self._same(g) for g in corpus}
        assert len(tags) == 7

    def test_random_connected_graphs(self):
        rng = random.Random(14)
        tags = set()
        for _ in range(400):
            n = rng.randint(8, 16)
            p = rng.choice((0.15, 0.25, 0.35, 0.5, 0.7))
            tags.add(self._same(random_connected_gnp(n, p, seed=rng.randrange(1 << 30))))
        assert len(tags) >= 6

    @pytest.mark.parametrize(
        "g",
        [
            caterpillar(30, 2),
            clique_chain(20, 4),
            giant_component(w.gnp_graph(300, 4 / 300, seed=1)),
        ],
        ids=["caterpillar", "clique-chain", "sparse-giant"],
    )
    def test_families(self, g):
        self._same(g)


class TestBruteForce:
    def test_p4(self):
        assert brute_force_wtn(w.path_graph(4)).value == 2
        assert brute_force_wth(w.path_graph(4)).value == 2

    def test_k4(self):
        assert brute_force_wtn(w.complete_graph(4)).value == 4
        assert brute_force_wth(w.complete_graph(4)).value == 4

    def test_c5(self):
        assert brute_force_wtn(w.cycle_graph(5)).value == 2
        assert brute_force_wth(w.cycle_graph(5)).value == 2

    def test_cap_refusal(self):
        with pytest.raises(CapExceededError):
            brute_force_wtn(w.path_graph(11))
        assert brute_force_wtn(w.path_graph(11), cap=11).value == 2

    def test_witness_minimal_and_lexicographic(self):
        res = brute_force_wtn(w.path_graph(5))
        assert res.witness == {0, 4}


@pytest.mark.parametrize("g", [w.path_graph(30), w.cycle_graph(7)], ids=["P30", "C7"])
@pytest.mark.parametrize(
    "invariant", [w.wtn, w.wth, lambda g: w.wtc_exact(g, cap=g.n)], ids=["wtn", "wth", "wtc"]
)
def test_one_connectivity_test_per_call(monkeypatch, g, invariant):
    # the solver's own test marks the graph connected, so the twin
    # classes, the decomposition or the primality test it calls next run
    # no second search
    connected = graph.is_connected
    calls = []

    def counting(g):
        calls.append(g)
        return connected(g)

    monkeypatch.setattr(graph, "is_connected", counting)
    invariant(w.Graph(g.n, g.edges()))
    assert len(calls) == 1
