"""Hypothesis strategies, fixed graph families and graph helpers shared by the tests."""

import random

from hypothesis import strategies as st

import wtoll as w
from wtoll.graph import _check_subset, bits, component_mask


def connected_components(g, removed=()):
    """Components of the subgraph induced by V minus ``removed``.

    Returned sets partition V minus ``removed`` and are ordered by least
    member.
    """
    allowed = g._full & ~_check_subset(g, removed)
    comps = []
    rest = allowed
    while rest:
        start = (rest & -rest).bit_length() - 1
        comp = component_mask(g._masks, allowed, start)
        comps.append(frozenset(bits(comp)))
        rest &= ~comp
    return comps


def random_connected_gnp(n, p, seed=0, max_tries=10000):
    """First connected G(n, p) sample along a seed-derived sequence."""
    for t in range(max_tries):
        g = w.gnp_graph(n, p, seed=seed * 1000003 + t)
        if w.is_connected(g):
            return g
    raise RuntimeError(f"no connected G({n}, {p}) sample after {max_tries} tries")


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
    comps = connected_components(g)
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


def shuffled(g, seed):
    """g with its vertices relabelled by a random permutation drawn from ``seed``."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return w.Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def giant_component(g):
    """The largest connected component of g (the first one on a tie),
    relabelled 0..k-1 in increasing vertex order."""
    comp = sorted(max(connected_components(g), key=len))
    index = {v: i for i, v in enumerate(comp)}
    return w.Graph(
        len(comp),
        [(index[u], index[v]) for u, v in g.edges() if u in index and v in index],
    )


def clique_layer_graph(rng: random.Random):
    """A graph built as the BFS layers of its vertex 0, then perturbed.

    One to seven layers, each a clique of width 1-5; every vertex past
    the first layer is joined to a random nonempty subset of the layer
    before. Then, with probability 0.3 each, one random edge is added or
    one is dropped, and the vertices are relabelled at random. Such
    graphs sit on both sides of the extreme-vertex layer conditions.
    """
    layers, n = [], 0
    for _ in range(rng.randint(1, 7)):
        width = rng.randint(1, 5)
        layers.append(range(n, n + width))
        n += width
    edges = set()
    for i, layer in enumerate(layers):
        edges.update((a, b) for a in layer for b in layer if a < b)
        if i:
            below = list(layers[i - 1])
            for v in layer:
                edges.update((p, v) for p in rng.sample(below, rng.randint(1, len(below))))
    r = rng.random()
    if r < 0.3 and n >= 2:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    elif r < 0.6 and edges:
        edges.discard(rng.choice(sorted(edges)))
    perm = list(range(n))
    rng.shuffle(perm)
    return w.Graph(n, [(perm[a], perm[b]) for a, b in edges])
