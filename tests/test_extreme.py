"""The BFS layer test for extreme vertices against the pair-mask scan."""

import random
import time

import pytest

import wtoll as w
from wtoll import intervals

from _reference import reference_extreme_scan
from _strategies import (
    caterpillar,
    clique_chain,
    clique_layer_graph,
    connected_components,
    shuffled,
)


def _random_graphs():
    # G(n, p) with n <= 13; the sparse draws leave many disconnected
    rng = random.Random(606)
    return [
        w.gnp_graph(rng.randint(1, 13), rng.choice((0.1, 0.2, 0.35, 0.5, 0.7, 0.9)),
                    seed=rng.randrange(10**9))
        for _ in range(1200)
    ]


def _clique_layer_graphs():
    rng = random.Random(6)
    return [clique_layer_graph(rng) for _ in range(1200)]


def _families():
    return [
        w.path_graph(40),
        caterpillar(15, 2),
        clique_chain(8, 3),
        clique_chain(6, 4),
        clique_chain(5, 5),
    ]


def _blow_up(g, seed):
    """g with each vertex replaced by a clique of 1-4 true twins, then
    relabelled at random."""
    rng = random.Random(seed)
    start = [0]
    for _ in range(g.n):
        start.append(start[-1] + rng.randint(1, 4))
    blocks = [range(start[v], start[v + 1]) for v in range(g.n)]
    edges = [(a, b) for block in blocks for a in block for b in block if a < b]
    edges += [(a, b) for u, v in g.edges() for a in blocks[u] for b in blocks[v]]
    return shuffled(w.Graph(start[-1], edges), seed)


def _assert_matches_reference(graphs):
    for g in graphs:
        g = w.Graph(g.n, g.edges())  # a cold pair memo
        # one layer test per vertex, asked before the extreme set is memoized
        single = [w.is_extreme_vertex(g, x) for x in range(g.n)]
        ext = w.extreme_vertices(g)
        assert single == [x in ext for x in range(g.n)], g.edges()
        # neither extreme function computes a pair walk mask
        assert not g._pair_cache
        assert ext == reference_extreme_scan(g), g.edges()


class TestMatchesPairScan:
    def test_corpus(self, corpus):
        _assert_matches_reference(corpus)

    def test_random_small(self):
        graphs = _random_graphs()
        assert sum(not w.is_connected(g) for g in graphs) >= 200
        _assert_matches_reference(graphs)

    def test_clique_layers(self):
        graphs = _clique_layer_graphs()
        # both answers occur in quantity, so the layer conditions are exercised
        with_extreme = sum(bool(w.extreme_vertices(g)) for g in graphs)
        assert 200 <= with_extreme <= len(graphs) - 200
        _assert_matches_reference(graphs)

    def test_families(self):
        _assert_matches_reference(_families())

    def test_shuffled_clique_chains(self):
        chains = [clique_chain(count, size) for count, size in ((3, 3), (8, 3), (6, 4), (5, 5))]
        _assert_matches_reference(
            [shuffled(g, seed) for g in chains for seed in range(3)]
        )

    def test_clique_blow_ups(self, corpus):
        # every simplicial class of twins takes one verdict
        graphs = [_blow_up(g, i) for i, g in enumerate(corpus[::4])]
        graphs += [_blow_up(g, i) for i, g in enumerate(_families()[:3])]
        assert sum(bool(w.extreme_vertices(g)) for g in graphs) >= 40
        _assert_matches_reference(graphs)

    def test_families_closed_forms(self):
        p40, cat, chain = w.path_graph(40), caterpillar(15, 2), clique_chain(6, 4)
        assert w.extreme_vertices(p40) == {0, 39}
        assert w.extreme_vertices(cat) == frozenset()
        # the private vertices of the two end cliques
        assert w.extreme_vertices(chain) == {0, 1, 2, 16, 17, 18}


class TestOneLayerTestPerSimplicialTwinClass:
    """_is_extreme runs once per vertex that is not simplicial and once per
    distinct closed neighbourhood of the simplicial ones."""

    @staticmethod
    def _expected_calls(g):
        masks = g._masks
        closed = [masks[x] | 1 << x for x in range(g.n)]
        simplicial = [w.is_clique(g, g.neighbors(x)) for x in range(g.n)]
        return simplicial.count(False) + len({c for c, s in zip(closed, simplicial) if s})

    @pytest.mark.parametrize("make", [
        lambda: clique_chain(6, 4),
        lambda: _blow_up(w.path_graph(12), 1),
        lambda: _blow_up(caterpillar(6, 2), 2),
        lambda: _blow_up(w.cycle_graph(7), 3),
        lambda: w.complete_graph(5),
        lambda: w.gnp_graph(40, 0.2, seed=4),
    ])
    def test_call_count(self, monkeypatch, make):
        g = make()
        calls = []
        real = intervals._is_extreme

        def counting(masks, x):
            calls.append(x)
            return real(masks, x)

        monkeypatch.setattr(intervals, "_is_extreme", counting)
        ext = w.extreme_vertices(g)
        assert len(calls) == len(set(calls)) == self._expected_calls(g)
        assert ext == reference_extreme_scan(w.Graph(g.n, g.edges()))


@pytest.mark.parametrize("make", [
    lambda: w.star_graph(6),
    lambda: w.path_graph(7),
    lambda: clique_chain(4, 4),
    lambda: caterpillar(5, 2),
    lambda: w.complete_graph(5),
    w.bowtie_graph,
], ids=["star6", "path7", "k4chain4", "caterpillar5", "k5", "bowtie"])
def test_layer_1_skips_condition_2(monkeypatch, make):
    # condition 2 on layer 1 would read each vertex's neighbours in L_0,
    # the mask 1 << x; L_1 lies in N(x), so it cannot fail there
    g = make()
    real = intervals.bits
    read = []
    monkeypatch.setattr(intervals, "bits", lambda m: read.append(m) or real(m))
    for x in range(g.n):
        read.clear()
        intervals._is_extreme(g._masks, x)
        assert 1 << x not in read, x


def test_is_extreme_vertex_reads_the_memoized_set(monkeypatch, corpus):
    # with the extreme set memoized, the membership test runs no layer test
    # and answers on every vertex as the layer test does on a fresh graph
    graphs = [w.Graph(g.n, g.edges()) for g in corpus]
    single = [[w.is_extreme_vertex(w.Graph(g.n, g.edges()), x) for x in range(g.n)]
              for g in graphs]
    for g in graphs:
        w.extreme_vertices(g)

    def no_layer_test(masks, x):
        raise AssertionError("_is_extreme called with the extreme set memoized")

    monkeypatch.setattr(intervals, "_is_extreme", no_layer_test)
    assert [[w.is_extreme_vertex(g, x) for x in range(g.n)] for g in graphs] == single


def _block_chain(sizes):
    """Cliques K_s for s in ``sizes``, each sharing one cut vertex with the
    next; a block of size 2 is a bridge, so a run of them is a path."""
    edges, start = [], 0
    for s in sizes:
        block = range(start, start + s)
        edges += [(a, b) for a in block for b in block if a < b]
        start += s - 1
    return w.Graph(start + 1, edges)


def _shuffled_path(n, seed=1):
    """P_n relabelled at random, and its two ends."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return w.Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)]), {perm[0], perm[-1]}


class TestOneVertexLayers:
    """A BFS layer of one vertex is a clique with no two vertices for
    condition 2, so the layer test reads its one mask and walks no bits.
    Paths, pendant tails and the bridges of a block chain are all such
    layers."""

    GRAPHS = {
        **{f"shuffled P_{n}": (lambda n=n: _shuffled_path(n, n)[0]) for n in (2, 3, 7, 60, 200)},
        **{f"shuffled caterpillar({s}, {k})": (lambda s=s, k=k: shuffled(caterpillar(s, k), s))
           for s, k in ((1, 1), (2, 1), (20, 1), (30, 2))},
        "K_5 with a pendant P_60": lambda: shuffled(_block_chain([5] + [2] * 60), 5),
        "K_5 with pendant paths both sides": lambda: _block_chain([2] * 30 + [5] + [2] * 30),
        "shuffled chain of 20 K_4": lambda: shuffled(clique_chain(20, 4), 4),
        "chain of 12 K_5": lambda: clique_chain(12, 5),
        "bridges between cliques": lambda: shuffled(
            _block_chain([2, 4, 2, 2, 3, 2, 5, 2, 4, 2]), 6
        ),
        "cliques between bridges": lambda: _block_chain([3, 2, 3, 2, 2, 2, 6, 2, 3]),
        "alternating, 40 blocks": lambda: shuffled(_block_chain([2, 4] * 20), 7),
    }

    @pytest.mark.parametrize("make", GRAPHS.values(), ids=GRAPHS.keys())
    def test_matches_reference(self, make):
        g = make()
        assert g.n <= 200 and w.is_connected(g)
        assert w.extreme_vertices(g) == reference_extreme_scan(w.Graph(g.n, g.edges()))
        fresh = w.Graph(g.n, g.edges())
        assert {x for x in range(g.n) if w.is_extreme_vertex(fresh, x)} == w.extreme_vertices(g)

    def test_shuffled_p20000_has_its_two_ends(self):
        g, ends = _shuffled_path(20_000)
        assert w.extreme_vertices(g) == ends
        fresh, _ = _shuffled_path(20_000)
        assert all(w.is_extreme_vertex(fresh, x) for x in ends)

    @pytest.mark.parametrize("n", [3, 12, 90, 300])
    def test_bits_calls_on_a_shuffled_path(self, monkeypatch, n):
        # one walk of layer 1 for each inner vertex, which is not
        # simplicial; one twin scan of N(x) for each end, whose BFS walks
        # no layer; one for the result. The BFS that walked every layer
        # made 621 calls on P_90.
        g, ends = _shuffled_path(n)
        real = intervals.bits
        calls = []
        monkeypatch.setattr(intervals, "bits", lambda m: calls.append(m) or real(m))
        assert w.extreme_vertices(g) == ends
        assert len(calls) == n + 1


def _elapsed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


@pytest.mark.parametrize(
    "make", [lambda: w.path_graph(1000), lambda: clique_chain(300, 4)],
    ids=["path1000", "k4chain300"],
)
@pytest.mark.parametrize("solver", ["wtn", "wth"])
def test_solvers_scale_on_long_chains(make, solver):
    g = make()
    assert _elapsed(getattr(w, solver), g) < 1.0


class TestDisconnectedSparse:
    @pytest.fixture(scope="class")
    def graph(self):
        return w.gnp_graph(1000, 0.005, seed=1)

    def test_fast(self, graph):
        g = w.Graph(graph.n, graph.edges())  # a cold pair memo
        assert _elapsed(w.extreme_vertices, g) < 1.0

    def test_isolated_vertices_are_extreme(self, graph):
        ext = w.extreme_vertices(graph)
        isolated = [v for v in range(graph.n) if graph.degree(v) == 0]
        assert isolated
        assert set(isolated) <= ext

    def test_small_components_match_reference(self, graph):
        ext = w.extreme_vertices(graph)
        checked = 0
        for comp in connected_components(graph):
            if len(comp) > 30:
                continue
            order = sorted(comp)
            index = {v: i for i, v in enumerate(order)}
            sub = w.Graph(
                len(order),
                [(index[a], index[b]) for a, b in graph.edges() if a in index and b in index],
            )
            assert {index[v] for v in comp & ext} == reference_extreme_scan(sub)
            checked += 1
        assert checked == 10  # nine isolated vertices and one edge
