"""Proper interval graphs, where the weakly toll convexity is a convex
geometry: every convex set is the hull of its extreme points (Dourado,
Gutierrez, Protti & Tondato, "Weakly toll convexity and proper interval
graphs", 2022, prove this holds exactly on proper interval graphs).

Every hull set holds every extreme vertex x, since V - {x} is convex. So
on a connected proper interval graph the extreme vertices alone are a
minimum hull set: wth(G) = |Ext(G)| and H(Ext(G)) = V. These identities
tie together three parts that share no code, the BFS-layer test of
``extreme_vertices``, the pair walk masks of ``hull`` and the atom case
analysis of ``wth``, at sizes far past the oracles' reach.
"""

import pytest

import wtoll as w
from wtoll.graph import bits
from wtoll.intervals import _hull_mask, _interval_mask

from _strategies import clique_chain, shuffled, unit_interval_graph

nx = pytest.importorskip("networkx")
GraphMatcher = nx.algorithms.isomorphism.GraphMatcher

# the forbidden induced subgraphs of the chordal proper interval graphs
# (Wegner 1967; Roberts 1969): the claw K_{1,3}; the net, a triangle abc
# with a pendant vertex at each of a, b, c; the tent (3-sun), a triangle
# abc with x ~ a, b, y ~ b, c and z ~ c, a
CLAW = nx.star_graph(3)
NET = nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
TENT = nx.Graph([(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 2), (5, 0)])


def is_proper_interval(g):
    """True iff g is chordal with no induced claw, net or tent."""
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return nx.is_chordal(h) and not any(
        GraphMatcher(h, f).subgraph_is_isomorphic() for f in (CLAW, NET, TENT)
    )


def hull_of_extreme_points_fails(g):
    """The first convex set of g, as a mask, that is not the hull of its
    extreme points (its x with S - {x} convex); None if there is none,
    that is, if the convex sets of g form a convex geometry."""
    convex = {s for s in range(g._full + 1) if _interval_mask(g, s) == s}
    for s in sorted(convex):
        extreme = sum(1 << x for x in bits(s) if s & ~(1 << x) in convex)
        if _hull_mask(g, extreme) != s:
            return s
    return None


class TestUnitIntervalGraphs:
    @pytest.mark.parametrize("max_gap", [1.0, 0.5, 0.2])
    def test_generator_gives_proper_interval_graphs(self, max_gap):
        for n in range(1, 12):
            for seed in range(3):
                g = unit_interval_graph(n, seed, max_gap)
                assert w.is_connected(g) and is_proper_interval(g)

    @pytest.mark.parametrize("max_gap", [1.0, 0.5, 0.2])
    @pytest.mark.parametrize("n", [300, 1000, 2000])
    def test_extreme_vertices_are_a_minimum_hull_set(self, n, max_gap):
        self.check(unit_interval_graph(n, n, max_gap))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: shuffled(w.path_graph(2000), 8),
            lambda: shuffled(clique_chain(200, 5), 8),
            lambda: w.complete_graph(40),
        ],
        ids=["shuffled P_2000", "shuffled chain of 200 K_5", "K_40"],
    )
    def test_other_proper_interval_families(self, build):
        self.check(build())

    @staticmethod
    def check(g):
        extreme = w.extreme_vertices(g)
        assert w.wth(g).value == len(extreme)
        assert w.hull(g, extreme) == frozenset(range(g.n))


def test_convex_geometry_exactly_on_proper_interval_graphs(corpus):
    # each graph is copied, so the corpus keeps its pair memos empty
    proper = 0
    broken = []
    for g in corpus:
        g = w.Graph._from_masks(g.n, g._masks)
        geometry = hull_of_extreme_points_fails(g) is None
        proper += geometry
        if geometry != is_proper_interval(g):
            broken.append(w.to_graph6(g))
    assert broken == []
    assert proper == 120
