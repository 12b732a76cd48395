"""The weakly toll convexity number and the hardness instance generator.

Deciding wtc(G) >= k is NP-complete even on prime graphs, so this module
offers exactly what is tractable: on prime non-complete graphs every
proper convex set is a clique, so the answer is the maximum clique size;
everywhere else a capped exhaustive search over proper subsets runs in
decreasing cardinality. The generator builds the prime instances behind
that hardness result: one degree-2 vertex glued onto every nonadjacent
pair of the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .atoms import is_prime
from .errors import CapExceededError, InternalConsistencyError
from .graph import Graph, _require_connected, is_complete, max_clique, to_edge_list
from .intervals import is_convex
from .invariants import InvariantResult

__all__ = ["ReductionOutput", "wtc_exact", "clique_reduction", "reduction_edge_list"]

DEFAULT_WTC_CAP = 16


@dataclass(frozen=True)
class ReductionOutput:
    """Clique-hardness instance: ``g_prime`` with target ``k_prime``, plus
    the map from each added vertex to its nonadjacent source pair."""

    g_prime: Graph
    k_prime: int
    added: dict[int, tuple[int, int]]


def wtc_exact(g: Graph, cap: int = DEFAULT_WTC_CAP) -> InvariantResult:
    """Size of a maximum weakly toll convex set different from V(G).

    Prime non-complete graphs take the maximum-clique fast path; complete
    graphs drop one vertex; anything else is searched exhaustively and
    refused above ``cap`` (the problem is NP-hard there).
    """
    if g.n < 2:
        raise ValueError("wtc needs at least 2 vertices")
    _require_connected(g, "wtc is defined for connected graphs only")
    if is_complete(g):
        # every proper subset is convex; first size-(n-1) subset in order
        return _checked(g, InvariantResult(g.n - 1, frozenset(range(g.n - 1)), "COMPLETE"))
    if is_prime(g):
        clique = max_clique(g)
        return _checked(g, InvariantResult(len(clique), clique, "PRIME_MAX_CLIQUE"))
    if g.n > cap:
        raise CapExceededError(
            f"wtc on a reducible non-complete graph is NP-hard; exhaustive "
            f"search refused for n={g.n} > cap {cap}"
        )
    for size in range(g.n - 1, 0, -1):
        for s in combinations(range(g.n), size):
            if is_convex(g, s):
                return _checked(g, InvariantResult(size, frozenset(s), "EXHAUSTIVE"))
    raise InternalConsistencyError("no proper convex subset found; singletons are convex")


def _checked(g: Graph, result: InvariantResult) -> InvariantResult:
    if len(result.witness) == g.n or not is_convex(g, result.witness):
        raise InternalConsistencyError(
            f"wtc witness {sorted(result.witness)} is not a proper convex set"
        )
    return result


def clique_reduction(g: Graph, k: int) -> ReductionOutput:
    """Build the prime graph G' whose cliques of size >= k mirror those of g.

    G' adds one vertex per nonadjacent pair of g, adjacent to exactly that
    pair. For k >= 3 a clique of size >= k in G' exists iff one exists in
    g (the added vertices top out at triangles with an original edge,
    which never happens here since their two anchors are nonadjacent).
    k <= 2 is rejected: there the added vertices themselves could create
    the target clique, breaking the equivalence, and the decision is
    trivial anyway.
    """
    if g.n < 2:
        raise ValueError("clique reduction needs at least 2 vertices")
    if k < 3:
        raise ValueError(f"clique reduction is valid for k >= 3, got k={k}")
    edges = g.edges()
    added: dict[int, tuple[int, int]] = {}
    nxt = g.n
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                added[nxt] = (u, v)
                edges.append((u, nxt))
                edges.append((v, nxt))
                nxt += 1
    return ReductionOutput(Graph(nxt, edges), k, added)


def reduction_edge_list(r: ReductionOutput) -> str:
    """Edge-list serialization with a comment block naming each added
    vertex's source pair."""
    comments = [f"clique reduction, k = {r.k_prime}"]
    comments += [f"added {x} for pair ({u}, {v})" for x, (u, v) in sorted(r.added.items())]
    return to_edge_list(r.g_prime, comments=comments)
