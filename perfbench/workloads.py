"""Workload definitions: request pools, graph generators and the schedule.

Nothing here imports ``wtoll``. Every input graph is built by the
benchmark's own generators from a fixed generation seed, so the program
under test receives only the generated graphs, and the reference answers
of the whole pool (``refs/``) can be stored once.

A workload is a fixed *pool* of requests. A run sends the pool in passes,
each pass in an order shuffled by the run seed, until its time is up and
at least one pass is complete. So the seed decides the order of the
requests, never the mix: that is what keeps the figures steady from seed
to seed. Pools are sized so that a run makes more than one pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "connected_upto7.g6"

WORKLOADS = ("dense-prime", "sparse-chain", "corpus-sweep")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class GraphSpec:
    """A generated input graph: ``n`` vertices and sorted ``edges``."""

    gid: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def edge_list_text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def graph6(self) -> str:
        return encode_graph6(self.n, self.edges)


@dataclass(frozen=True)
class Request:
    """One request. ``key`` names its reference answer in ``refs/``.

    CLI workloads run ``wtoll <command> GRAPH <args>``; the library
    workload (command ``sweep``) runs every operation on the graph.
    """

    key: str
    graph: GraphSpec
    command: str
    args: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# generators (benchmark-side; independent of wtoll.generators)
# ---------------------------------------------------------------------------

def _normalize(n: int, edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


def _is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def _relabel(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges], perm


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def connected_gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    while True:
        edges = gnp_edges(n, p, rng)
        if _is_connected(n, edges):
            return edges


def giant_component(n: int, c: float, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Largest component of G(n, c/n), relabelled 0..k-1 in vertex order."""
    edges = gnp_edges(n, c / n, rng)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp_of = [-1] * n
    best: list[int] = []
    for s in range(n):
        if comp_of[s] >= 0:
            continue
        comp_of[s] = s
        members = [s]
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if comp_of[y] < 0:
                    comp_of[y] = s
                    members.append(y)
                    stack.append(y)
        if len(members) > len(best):
            best = members
    index = {v: i for i, v in enumerate(sorted(best))}
    return len(best), [(index[u], index[v]) for u, v in edges if u in index]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def caterpillar_edges(spine: int) -> tuple[int, list[tuple[int, int]]]:
    """Path on ``spine`` vertices with one pendant leaf on each."""
    edges = path_edges(spine) + [(i, spine + i) for i in range(spine)]
    return 2 * spine, edges


def clique_chain_edges(k: int, s: int) -> tuple[int, list[tuple[int, int]]]:
    """``k`` cliques K_s in a row, consecutive ones sharing one vertex."""
    n = k * (s - 1) + 1
    edges = []
    for c in range(k):
        block = range(c * (s - 1), c * (s - 1) + s)
        edges += [(a, b) for a in block for b in block if a < b]
    return n, edges


def encode_graph6(n: int, edges) -> str:
    """Standard graph6 encoding (n <= 62 suffices for the corpus workload)."""
    if n > 62:
        raise ValueError("encode_graph6 handles n <= 62 only")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    out = [chr(n + 63)]
    acc = nacc = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | ((u, v) in adj)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = nacc = 0
    if nacc:
        out.append(chr((acc << (6 - nacc)) + 63))
    return "".join(out)


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of :func:`encode_graph6` (used to read the corpus file)."""
    data = line.strip().encode("ascii")
    n = data[0] - 63
    bitstream = 0
    for c in data[1:]:
        bitstream = (bitstream << 6) | (c - 63)
    total = 6 * (len(data) - 1)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream >> (total - 1 - idx) & 1:
                edges.append((u, v))
            idx += 1
    return n, edges


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def _graph(gid: str, n: int, edges) -> GraphSpec:
    return GraphSpec(gid, n, _normalize(n, edges))


def _nonadjacent_pair(g: GraphSpec, rng: random.Random) -> tuple[int, int]:
    adj = g.adjacency()
    while True:
        u, w = sorted(rng.sample(range(g.n), 2))
        if w not in adj[u]:
            return u, w


# (n, p) size classes of dense-prime; three graphs per class, and per
# graph one nonadjacent pair for interval and one 3-set for hull
DENSE_CLASSES = {
    "full": [(n, p) for n in (150, 200, 250, 300) for p in (0.2, 0.35, 0.5)],
    "tiny": [(9, 0.4), (9, 0.55)],
}
DENSE_GRAPHS_PER_CLASS = 3


def _dense_pool(scale: str) -> list[Request]:
    pool = []
    for n, p in DENSE_CLASSES[scale]:
        for k in range(DENSE_GRAPHS_PER_CLASS):
            gid = f"dense-prime/n{n}-p{p}/g{k}"
            rng = random.Random(gid)
            g = _graph(gid, n, connected_gnp(n, p, rng))
            pair = _nonadjacent_pair(g, rng)
            triple = tuple(sorted(rng.sample(range(n), 3)))
            pool.append(Request(f"{gid}/interval/0", g, "interval", pair))
            pool.append(Request(f"{gid}/hull/0", g, "hull", triple))
            pool.append(Request(f"{gid}/wtn", g, "wtn"))
    return pool


# sparse-chain: (family, size, samples). Per size, sample 0 has the
# natural labels and the other samples are relabelled at random; for
# sparse-gnp every sample is a fresh draw.
SPARSE_GRAPHS = {
    "full": [
        ("path", 80, 3), ("path", 90, 3),
        ("caterpillar", 30, 3), ("caterpillar", 45, 3), ("caterpillar", 60, 3),
        ("clique-chain", (15, 4), 3), ("clique-chain", (15, 5), 3),
        ("sparse-gnp", 400, 3), ("sparse-gnp", 1000, 1),
    ],
    "tiny": [
        ("path", 8, 3), ("caterpillar", 4, 3), ("clique-chain", (3, 3), 3),
        ("sparse-gnp", 10, 3),
    ],
}
SPARSE_COMMANDS = ("wth", "wtn", "extreme", "decompose")
SPARSE_DEGREE = 4.0


def sparse_instance(family: str, size, k: int) -> tuple[GraphSpec, list[int]]:
    """Sample ``k`` of a family size, and the relabeling applied to it
    (identity for sample 0 and for the random family)."""
    tag = size if isinstance(size, int) else "x".join(map(str, size))
    gid = f"sparse-chain/{family}-{tag}/g{k}"
    rng = random.Random(gid)
    if family == "sparse-gnp":
        n, edges = giant_component(size, SPARSE_DEGREE, rng)
        return _graph(gid, n, edges), list(range(n))
    if family == "path":
        n, edges = size, path_edges(size)
    elif family == "caterpillar":
        n, edges = caterpillar_edges(size)
    else:
        n, edges = clique_chain_edges(*size)
    perm = list(range(n))
    if k:
        edges, perm = _relabel(n, edges, rng)
    return _graph(gid, n, edges), perm


def _sparse_pool(scale: str) -> list[Request]:
    pool = []
    for family, size, samples in SPARSE_GRAPHS[scale]:
        for k in range(samples):
            g = sparse_instance(family, size, k)[0]
            pool.extend(Request(f"{g.gid}/{cmd}", g, cmd) for cmd in SPARSE_COMMANDS)
    return pool


# corpus-sweep: the corpus graphs, plus random connected graphs on 8, 9
# and 10 vertices
RANDOM_SMALL = {"full": {8: 100, 9: 100, 10: 100}, "tiny": {8: 3}}
CORPUS_LIMIT = {"full": None, "tiny": 24}


def _corpus_pool(scale: str) -> list[Request]:
    pool = []
    for i, line in enumerate(CORPUS.read_text().split()[: CORPUS_LIMIT[scale]]):
        n, edges = decode_graph6(line)
        gid = f"corpus-sweep/corpus/{i}"
        pool.append(Request(gid, _graph(gid, n, edges), "sweep"))
    for n, count in RANDOM_SMALL[scale].items():
        for k in range(count):
            gid = f"corpus-sweep/random-n{n}/{k}"
            rng = random.Random(gid)
            g = _graph(gid, n, connected_gnp(n, rng.uniform(0.25, 0.6), rng))
            pool.append(Request(gid, g, "sweep"))
    return pool


_POOLS = {
    "dense-prime": _dense_pool,
    "sparse-chain": _sparse_pool,
    "corpus-sweep": _corpus_pool,
}


def pool(workload: str, scale: str = "full") -> list[Request]:
    """Every request of the workload, each with a distinct key."""
    return _POOLS[workload](scale)


def schedule(keys: list[str], seed: int):
    """Endless stream of keys: pass after pass over ``keys``, each pass in
    a new order drawn from ``seed``."""
    rng = random.Random(seed)
    keys = list(keys)
    while True:
        rng.shuffle(keys)
        yield from keys
