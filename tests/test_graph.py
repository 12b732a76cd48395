import hashlib
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given

import wtoll as w
from wtoll import Graph, GraphParseError

from _strategies import graphs

DATA = Path(__file__).parent / "data"


class TestParseEdgeList:
    def test_p4(self):
        g = w.parse_edge_list("4 3\n0 1\n1 2\n2 3")
        assert g == w.path_graph(4)

    def test_single_vertex(self):
        g = w.parse_edge_list("1 0")
        assert g.n == 1 and g.m == 0

    def test_k3(self):
        g = w.parse_edge_list("3 3\n0 1\n1 2\n0 2")
        assert g == w.complete_graph(3)

    def test_comments_and_blanks_ignored(self):
        g = w.parse_edge_list("# a path\n\n4 3\n0 1\n# middle\n1 2\n2 3\n")
        assert g == w.path_graph(4)

    def test_duplicate_edges_collapse(self):
        g = w.parse_edge_list("3 3\n0 1\n0 1\n1 0")
        assert g.m == 1

    def test_malformed_line_names_line_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            w.parse_edge_list("3 1\n0 one")

    def test_out_of_range(self):
        with pytest.raises(GraphParseError, match="line 2"):
            w.parse_edge_list("3 1\n0 7")

    def test_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            w.parse_edge_list("3 1\n1 1")

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            w.parse_edge_list("# nothing\n")

    @given(graphs(max_n=12))
    def test_roundtrip(self, g):
        assert w.parse_edge_list(w.to_edge_list(g)) == g


class TestGraph6:
    def test_roundtrip_identity(self):
        assert w.to_graph6(w.parse_graph6("D?{")) == "D?{"

    def test_k3_matches_reference_encoder(self):
        nx = pytest.importorskip("networkx")
        ref = nx.to_graph6_bytes(nx.complete_graph(3), header=False).decode().strip()
        g = w.parse_graph6(ref)
        assert g.n == 3 and g.m == 3
        assert w.to_graph6(w.complete_graph(3)) == ref

    def test_empty_string_is_error(self):
        with pytest.raises(GraphParseError):
            w.parse_graph6("")

    def test_invalid_character(self):
        with pytest.raises(GraphParseError):
            w.parse_graph6("D\x1f{")

    def test_wrong_body_length(self):
        with pytest.raises(GraphParseError):
            w.parse_graph6("D?{{")

    def test_header_accepted(self):
        assert w.parse_graph6(">>graph6<<D?{") == w.parse_graph6("D?{")

    def test_large_n_size_field(self):
        g = Graph(100, [(0, 99)])
        assert w.parse_graph6(w.to_graph6(g)) == g

    @given(graphs(max_n=12))
    def test_roundtrip(self, g):
        assert w.parse_graph6(w.to_graph6(g)) == g

    def test_matches_reference_encoder_on_samples(self):
        nx = pytest.importorskip("networkx")
        for seed in range(20):
            g = w.gnp_graph(9, 0.4, seed=seed)
            h = nx.Graph()
            h.add_nodes_from(range(9))
            h.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert w.to_graph6(g) == ref

    def test_reencode_corpus_bit_exact(self, corpus):
        # the corpus file was written by an independent encoder, so
        # parse + re-encode reproducing every line pins both directions
        from pathlib import Path

        lines = (Path(__file__).parent / "data" / "connected_upto7.g6").read_text().splitlines()
        assert [w.to_graph6(g) for g in corpus] == lines


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_adjacency_symmetric(self):
        g = w.path_graph(4)
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_edges_sorted(self):
        g = w.bowtie_graph()
        assert g.edges() == sorted(g.edges())

    def test_accessors_match_networkx_corpus(self, corpus):
        nx = pytest.importorskip("networkx")
        lines = (DATA / "connected_upto7.g6").read_text().splitlines()
        for g, line in zip(corpus, lines):
            ref = nx.from_graph6_bytes(line.encode())
            edges = sorted(tuple(sorted(e)) for e in ref.edges())
            assert g.edges() == edges
            assert g.m == len(edges)
            assert w.to_edge_list(g) == f"{g.n} {len(edges)}\n" + "".join(
                f"{u} {v}\n" for u, v in edges
            )
            for v in range(g.n):
                assert g.neighbors(v) == frozenset(ref[v])
                assert g.degree(v) == ref.degree(v)
                for u in range(g.n):
                    assert g.has_edge(u, v) == ref.has_edge(u, v)

    def test_fingerprints_unchanged_corpus(self, corpus):
        # sha256 over the corpus's newline-joined fingerprint() values
        digest = hashlib.sha256("\n".join(g.fingerprint() for g in corpus).encode())
        assert digest.hexdigest() == (
            "73cafa1afdd363603855e827a2cf1de187a9f9a509eb03c9f9f2e65a2d5a049c"
        )


class TestConnectedComponents:
    def test_path_split(self):
        comps = w.connected_components(w.path_graph(4), {1})
        assert comps == [frozenset({0}), frozenset({2, 3})]

    def test_remove_everything(self):
        g = w.path_graph(4)
        assert w.connected_components(g, range(4)) == []

    def test_cycle_single_component(self):
        comps = w.connected_components(w.cycle_graph(5))
        assert comps == [frozenset(range(5))]

    @given(graphs(max_n=10))
    def test_partition_and_no_crossing_edges(self, g):
        removed = set(range(0, g.n, 3))
        comps = w.connected_components(g, removed)
        union = set()
        for c in comps:
            assert not (union & c)
            union |= c
        assert union == set(range(g.n)) - removed
        index = {v: i for i, c in enumerate(comps) for v in c}
        for u, v in g.edges():
            if u in index and v in index:
                assert index[u] == index[v]


class TestCliques:
    def test_is_clique(self):
        assert w.is_clique(w.complete_graph(3), range(3))
        assert not w.is_clique(w.path_graph(4), {0, 2})
        assert w.is_clique(w.path_graph(4), {2})
        assert w.is_clique(w.path_graph(4), ())

    def test_is_complete(self):
        assert w.is_complete(w.complete_graph(5))
        assert not w.is_complete(w.path_graph(4))
        assert w.is_complete(w.complete_graph(1))

    def test_max_clique_examples(self):
        assert len(w.max_clique(w.complete_graph(4))) == 4
        assert len(w.max_clique(w.cycle_graph(5))) == 2
        assert len(w.max_clique(w.bowtie_graph())) == 3

    def test_max_clique_is_a_clique(self):
        for seed in range(10):
            g = w.gnp_graph(10, 0.5, seed=seed)
            assert w.is_clique(g, w.max_clique(g))

    def test_max_clique_deterministic(self):
        g = w.gnp_graph(12, 0.5, seed=3)
        assert w.max_clique(g) == w.max_clique(g)

    def test_max_clique_matches_enumeration_n8(self):
        for seed in range(30):
            g = w.gnp_graph(8, 0.5, seed=seed)
            best = max(
                (s for k in range(g.n + 1) for s in combinations(range(g.n), k)
                 if w.is_clique(g, s)),
                key=len,
            )
            assert len(w.max_clique(g)) == len(best)

    def test_max_clique_matches_enumeration_corpus(self, corpus):
        for g in corpus:
            best = max(
                (s for k in range(g.n + 1) for s in combinations(range(g.n), k)
                 if w.is_clique(g, s)),
                key=len,
            )
            assert len(w.max_clique(g)) == len(best)
