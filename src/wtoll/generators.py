"""Deterministic graph families for tests, demos, and the CLI."""

from __future__ import annotations

import random

from .graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "bowtie_graph",
    "gnp_graph",
]


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    return Graph(n, [(0, v) for v in range(1, n)])


def bowtie_graph() -> Graph:
    """Two triangles {0,1,2} and {2,3,4} sharing vertex 2."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def gnp_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability p must lie in [0, 1], not {p}")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)
