import random

import pytest
from hypothesis import given, settings

import wtoll as w
import wtoll.twins as twins

from _strategies import graphs


def k23():
    return w.Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


class TestTwinClasses:
    def test_complete_single_class(self):
        part = w.twin_classes(w.complete_graph(4))
        assert part.classes == (frozenset(range(4)),)

    def test_p4_singletons(self):
        part = w.twin_classes(w.path_graph(4))
        assert all(len(c) == 1 for c in part.classes)

    def test_k23_singletons(self):
        # nonadjacent same-side vertices share open but not closed
        # neighborhoods, so K_{2,3} has no true twins at all
        part = w.twin_classes(k23())
        assert all(len(c) == 1 for c in part.classes)

    def test_bowtie_pairs(self):
        part = w.twin_classes(w.bowtie_graph())
        assert set(part.classes) == {frozenset({0, 1}), frozenset({2}), frozenset({3, 4})}

    @given(graphs(max_n=10))
    @settings(max_examples=80)
    def test_partition_characterization(self, g):
        part = w.twin_classes(g)
        seen = set()
        class_of = {}
        for idx, cls in enumerate(part.classes):
            assert cls
            assert not (seen & cls)
            seen |= cls
            class_of.update(dict.fromkeys(cls, idx))
        assert seen == set(range(g.n))
        least = [min(cls) for cls in part.classes]
        assert least == sorted(least)
        closed = [g.neighbors(v) | {v} for v in range(g.n)]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                same = class_of[u] == class_of[v]
                assert same == (closed[u] == closed[v])
                if same:
                    assert g.has_edge(u, v)


class TestExtremeTwinClasses:
    def test_p4(self):
        g = w.path_graph(4)
        part = w.twin_classes(g)
        idxs = w.extreme_twin_classes(g, part)
        assert [part.classes[i] for i in idxs] == [frozenset({0}), frozenset({3})]

    def test_c5_empty(self):
        g = w.cycle_graph(5)
        assert w.extreme_twin_classes(g, w.twin_classes(g)) == []

    def test_bowtie_two_pair_classes(self):
        g = w.bowtie_graph()
        part = w.twin_classes(g)
        idxs = w.extreme_twin_classes(g, part)
        assert [sorted(part.classes[i]) for i in idxs] == [[0, 1], [3, 4]]

    def test_rejects_complete(self):
        g = w.complete_graph(3)
        with pytest.raises(ValueError):
            w.extreme_twin_classes(g, w.twin_classes(g))

    def test_rejects_disconnected(self):
        g = w.Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(w.DisconnectedGraphError):
            w.extreme_twin_classes(g, w.twin_classes(g))

    def test_at_most_two_and_class_uniform(self, corpus):
        for g in corpus:
            if w.is_complete(g):
                continue
            part = w.twin_classes(g)
            ext = w.extreme_vertices(g)
            idxs = w.extreme_twin_classes(g, part)
            assert len(idxs) <= 2
            covered = frozenset().union(*(part.classes[i] for i in idxs)) if idxs else frozenset()
            assert covered == ext

    def test_extreme_vertices_are_unions_of_twin_classes(self, corpus):
        # swapping true twins maps weakly toll walks onto weakly toll walks
        rng = random.Random(17)
        sampled = [
            w.gnp_graph(rng.randint(8, 12), rng.choice((0.3, 0.5, 0.7)), seed=rng.randrange(10**6))
            for _ in range(200)
        ]
        for g in [*corpus, *sampled]:
            ext = w.extreme_vertices(g)
            for cls in w.twin_classes(g).classes:
                assert cls <= ext or not cls & ext

    def test_mixed_class_is_internal_error(self, monkeypatch):
        g = w.bowtie_graph()
        monkeypatch.setattr(twins, "extreme_vertices", lambda g: frozenset({0, 3, 4}))
        with pytest.raises(w.InternalConsistencyError, match=r"\[0\]"):
            w.extreme_twin_classes(g, w.twin_classes(g))
