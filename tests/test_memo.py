"""The whole-graph results memoized on a Graph: the atom decomposition and
the extreme set.

A memo may save work but never change an answer: each memoized function
returns the same object on a second call, ``is_prime`` agrees with the
decomposition whether or not it has run, and the corpus sweep's
operations give the same results in either order on one graph as each
on a fresh graph.
"""

import pytest

import wtoll as w
from wtoll import atoms
from wtoll.graph import _nonadjacent_pairs

from _strategies import caterpillar, clique_chain, giant_component


@pytest.fixture(scope="module")
def large():
    """A G(300, 4/n) giant component, a caterpillar and a clique chain."""
    return [
        giant_component(w.gnp_graph(300, 4 / 300, seed=1)),
        caterpillar(40, 2),
        clique_chain(30, 4),
    ]


def graphs(corpus, large):
    return [*corpus, *large]


def fresh(g):
    return w.Graph(g.n, g.edges())


def _wtc(g):
    try:
        return w.wtc_exact(g)
    except ValueError as exc:  # a documented refusal is an answer too
        return type(exc).__name__, str(exc)


def sweep_ops(g, pair_limit=None):
    """The corpus sweep's operations, in the benchmark's order, as
    (name, function of the graph)."""
    pairs = list(_nonadjacent_pairs(g._masks, g._full))[:pair_limit]
    return [
        ("twins", w.twin_classes),
        ("extreme", w.extreme_vertices),
        ("decompose", w.decompose),
        ("wtn", w.wtn),
        ("wth", w.wth),
        ("wtc", _wtc),
        *((f"interval {p}", lambda g, p=p: w.interval(g, p)) for p in pairs),
        *((f"hull {p}", lambda g, p=p: w.hull(g, p)) for p in pairs),
    ]


class TestSameObject:
    def test_decompose(self, corpus, large):
        for g in graphs(corpus, large):
            g = fresh(g)
            assert w.decompose(g) is w.decompose(g)

    def test_extreme_vertices(self, corpus, large):
        for g in graphs(corpus, large):
            g = fresh(g)
            assert w.extreme_vertices(g) is w.extreme_vertices(g)

    def test_equal_graphs_do_not_share_results(self):
        g, h = w.path_graph(5), w.path_graph(5)
        assert g == h
        assert w.decompose(g) == w.decompose(h)
        assert w.decompose(g) is not w.decompose(h)


class TestIsPrime:
    def test_agrees_with_decompose_before_and_after(self, corpus, large):
        for g in graphs(corpus, large):
            g = fresh(g)
            before = w.is_prime(g)
            assert not g._derived  # the early-stopping walk stores nothing
            single = len(w.decompose(g).atoms) == 1
            assert before == single == w.is_prime(g)

    def test_reads_the_stored_decomposition(self, monkeypatch):
        # once decompose has run, is_prime walks no ordering at all
        g = w.path_graph(6)
        w.decompose(g)

        def no_walk(g):
            raise AssertionError("is_prime walked the elimination ordering again")

        monkeypatch.setattr(atoms, "_atom_members", no_walk)
        assert w.is_prime(g) is False

    def test_disconnected_still_refused(self):
        g = w.Graph(3, [(0, 1)])
        with pytest.raises(w.DisconnectedGraphError):
            w.is_prime(g)
        with pytest.raises(w.DisconnectedGraphError):
            w.decompose(g)
        assert not g._derived


class TestSweepOrder:
    """On one Graph, the sweep's operations in the benchmark's order and in
    reverse order give what each gives on its own fresh Graph."""

    @staticmethod
    def check(g, pair_limit=None):
        ops = sweep_ops(g, pair_limit)
        alone = {name: op(fresh(g)) for name, op in ops}
        forward = fresh(g)
        assert {name: op(forward) for name, op in ops} == alone
        backward = fresh(g)
        assert {name: op(backward) for name, op in reversed(ops)} == alone

    def test_corpus(self, corpus):
        for g in corpus:
            self.check(g)

    def test_large(self, large):
        # wtc refuses these reducible graphs (n above its cap), and that
        # refusal is compared like any other answer
        for g in large:
            self.check(g, pair_limit=3)
