"""Hypothesis strategies and fixed graph families shared by the tests."""

from hypothesis import strategies as st

import wtoll as w


@st.composite
def graphs(draw, min_n=1, max_n=10):
    n = draw(st.integers(min_n, max_n))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    return w.Graph(n, edges)


@st.composite
def connected_graphs(draw, min_n=1, max_n=9):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    comps = w.connected_components(g)
    if len(comps) > 1:
        stitches = [(min(a), min(b)) for a, b in zip(comps, comps[1:])]
        g = w.Graph(g.n, g.edges() + stitches)
    return g


@st.composite
def graph_and_subset(draw, max_n=10):
    g = draw(graphs(max_n=max_n))
    s = frozenset(v for v in range(g.n) if draw(st.booleans()))
    return g, s


def caterpillar(spine, legs):
    """A path of ``spine`` vertices with ``legs`` pendant vertices on each."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        for k in range(legs):
            edges.append((i, spine + i * legs + k))
    return w.Graph(spine * (legs + 1), edges)


def clique_chain(count, size):
    """``count`` cliques K_size, consecutive ones sharing one cut vertex."""
    edges = []
    for c in range(count):
        block = range(c * (size - 1), c * (size - 1) + size)
        edges += [(a, b) for a in block for b in block if a < b]
    return w.Graph(count * (size - 1) + 1, edges)


def giant_component(g):
    """The largest connected component of g (the first one on a tie),
    relabelled 0..k-1 in increasing vertex order."""
    comp = sorted(max(w.connected_components(g), key=len))
    index = {v: i for i, v in enumerate(comp)}
    return w.Graph(
        len(comp),
        [(index[u], index[v]) for u, v in g.edges() if u in index and v in index],
    )
