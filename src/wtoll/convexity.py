"""The weakly toll convexity number and the hardness instance generator.

Deciding wtc(G) >= k is NP-complete even on prime graphs, so this module
offers exactly what is tractable: on prime non-complete graphs every
proper convex set is a clique, so the answer is the maximum clique size;
everywhere else a capped search over proper subsets runs in decreasing
cardinality. That search visits the size-s subsets in lexicographic
order, depth first, and carries the union of the walk masks of the
nonadjacent pairs chosen so far. A set S is convex iff that union lies
inside S, and no vertex the union already holds below the last choice
can be chosen later, so whole subtrees are cut at once (Ganter's
NextClosure idea; Ganter & Reuter, "Finding all closed sets: a general
approach", Order 1991). The generator builds the prime instances behind
that hardness result: one degree-2 vertex glued onto every nonadjacent
pair of the input graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .atoms import is_prime
from .errors import CapExceededError, InternalConsistencyError
from .graph import (
    Graph, _nonadjacent_pairs, _require_connected, bits, is_complete, max_clique, to_edge_list
)
from .intervals import _pair_walk_mask, extreme_vertices, is_convex
from .invariants import InvariantResult

__all__ = ["ReductionOutput", "wtc_exact", "clique_reduction", "reduction_edge_list"]

DEFAULT_WTC_CAP = 16


class ReductionOutput(NamedTuple):
    """Clique-hardness instance: ``g_prime`` with target ``k_prime``, plus
    the map from each added vertex to its nonadjacent source pair."""

    g_prime: Graph
    k_prime: int
    added: dict[int, tuple[int, int]]


def wtc_exact(g: Graph, cap: int = DEFAULT_WTC_CAP) -> InvariantResult:
    """Size of a maximum weakly toll convex set different from V(G).

    Prime non-complete graphs take the maximum-clique fast path; complete
    graphs drop one vertex; anything else is searched and refused above
    ``cap`` (the problem is NP-hard there).

    The search tries s = n - 1, ..., 1 and returns, with tag EXHAUSTIVE,
    the lexicographically first convex set of the largest size that has
    one: the set a scan of ``itertools.combinations(range(n), s)`` with
    one convexity test per subset would return. :func:`_first_convex`
    finds it depth first, choosing members in increasing order and
    cutting a prefix as soon as no completion of it can be convex. Size
    n - 1 needs no search: V - {x} is convex iff x is extreme, and the
    (n-1)-subsets come in order V - {n-1}, V - {n-2}, ..., so the first
    convex one omits the largest extreme vertex (the extreme set is
    memoized on the graph).

    Why the witness is the same. I(S) = S union U(S), where U(S) is the
    union of the walk masks of the nonadjacent pairs of S, so S is convex
    iff U(S) is a subset of S. U only grows as members are added. Take a
    prefix P whose last member is v, and let M = U(P) - P. Every
    completion S of P adds only vertices above v, and U(S) contains M.
    So if M holds a vertex below v, no completion contains it, and none
    is convex (rule a); if M holds more vertices above v than there are
    members still to choose, no completion contains all of them either
    (rule b). The search therefore skips only prefixes with no convex
    completion, visits the rest in lexicographic order, and at a full
    set accepts exactly when U(S) lies in S. Its first accepted set is
    the first convex set in lexicographic order.
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
    # x is extreme iff V - {x} is convex, and the first (n-1)-subset in
    # lexicographic order that omits an extreme x omits the largest one
    ext = extreme_vertices(g)
    if ext:
        witness = frozenset(range(g.n)) - {max(ext)}
        return _checked(g, InvariantResult(g.n - 1, witness, "EXHAUSTIVE"))
    for size in range(g.n - 2, 0, -1):
        found = _first_convex(g, size)
        if found is not None:
            return _checked(g, InvariantResult(size, frozenset(bits(found)), "EXHAUSTIVE"))
    raise InternalConsistencyError("no proper convex subset found; singletons are convex")


def _first_convex(g: Graph, size: int) -> int | None:
    """Mask of the lexicographically first convex set of ``size``
    vertices, else None.

    One loop over an explicit stack of frames (chosen, union, v, stop,
    left): ``chosen`` is the prefix, ``union`` the union of the walk
    masks of its nonadjacent pairs, v the next candidate for the next
    member, ``stop`` the last one, and ``left`` the number of members
    still to choose. A new member v ORs in only its pairs with the
    members already chosen. A pushed frame's candidates stop at the
    least vertex of ``union - chosen``: past it, rule (a) of
    :func:`wtc_exact` cuts every v.
    """
    masks = g._masks
    n = g.n
    frames = [(0, 0, 0, n - size, size)]
    while frames:
        chosen, union, v, stop, left = frames.pop()
        if v < stop:
            frames.append((chosen, union, v + 1, stop, left))
        walks = union
        for u in bits(chosen & ~masks[v]):
            walks |= _pair_walk_mask(g, u, v)
        taken = chosen | (1 << v)
        missing = walks & ~taken
        if left == 1:
            if not missing:  # I(S) = S
                return taken
            continue
        if missing & ((1 << v) - 1) or missing.bit_count() > left - 1:
            continue  # rules (a) and (b)
        stop = n - left + 1
        if missing:
            stop = min(stop, (missing & -missing).bit_length() - 1)
        frames.append((taken, walks, v + 1, stop, left - 1))
    return None


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
    for u, v in _nonadjacent_pairs(g._masks, g._full):
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
