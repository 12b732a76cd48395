"""Ground-truth recomputation of the walk operators by direct enumeration.

A walk u_0 u_1 ... u_k is weakly toll when u_0 u_k is a non-edge, the only
walk vertex adjacent to u_0 is u_1, and the only walk vertex adjacent to
u_k is u_{k-1}. The membership test here enumerates walks from u_0
depth-first, checking both endpoint conditions incrementally, and never
uses the component criterion from wtoll.intervals; the two modules share
only the Graph type.

Intended for small graphs only (default cap: 9 vertices). A witness walk,
if one exists, decomposes into two paths joined inside one component plus
the two end edges, so its length is below 2n + 2 edges; enumeration is
cut off there.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import CapExceededError, InternalConsistencyError
from .graph import Graph

__all__ = [
    "WalkWitness",
    "oracle_membership",
    "oracle_interval",
]

DEFAULT_CAP = 9


class WalkWitness(NamedTuple):
    """A concrete weakly toll walk, stored as its vertex sequence."""

    sequence: tuple[int, ...]

    def is_weakly_toll(self, g: Graph) -> bool:
        seq = self.sequence
        if len(seq) < 2 or g.has_edge(seq[0], seq[-1]):
            return False
        if any(not g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
            return False
        used = set(seq)
        if any(x in used and x != seq[1] for x in g.neighbors(seq[0])):
            return False
        if any(x in used and x != seq[-2] for x in g.neighbors(seq[-1])):
            return False
        return True


def _check_cap(g: Graph, cap: int) -> None:
    if g.n > cap:
        raise CapExceededError(
            f"oracle enumeration refused: n={g.n} exceeds cap {cap}"
        )


def oracle_membership(
    g: Graph,
    u: int,
    w: int,
    v: int,
    cap: int = DEFAULT_CAP,
    max_len: int | None = None,
) -> WalkWitness | None:
    """First weakly toll (u, w)-walk containing v found depth-first.

    Walks are grown from u one edge at a time, neighbors in ascending
    order, completion into w attempted before any extension. A partial
    walk is extended only through vertices consistent
    with the endpoint conditions: any neighbor of u other than the walk's
    second vertex is rejected immediately, and at most one distinct
    neighbor of w may ever appear (lookahead for the w-side condition,
    which is also what makes reaching w always a valid completion).
    Interior revisits of u or w are skipped: any such excursion collapses
    to a shorter walk through the same vertices. Dead states are memoized
    per (vertex, w-neighbor used, v seen) with the budget that failed.

    ``max_len`` (edges; default 2n + 2) exists so the completeness of the
    default bound can be probed against larger ones.
    """
    _check_cap(g, cap)
    for x in (u, w, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range 0..{g.n - 1}")
    if len({u, w, v}) != 3:
        raise ValueError("u, w, v must be pairwise distinct")
    if g.has_edge(u, w):
        raise ValueError("walk endpoints must be nonadjacent")

    limit = 2 * g.n + 2 if max_len is None else max_len
    adj = [g.neighbors(x) for x in range(g.n)]
    nbrs_u = adj[u]
    nbrs_w = adj[w]

    for v_u in sorted(nbrs_u):
        # states that failed with at least this many edges still available
        failed: dict[tuple[int, int | None, bool], int] = {}
        path = [u, v_u]

        def search(current: int, used_w: int | None, seen_v: bool, budget: int) -> bool:
            if seen_v and w in adj[current]:
                return True
            for x in sorted(adj[current]):
                if x == w or budget == 0 or x == u:
                    continue
                if x in nbrs_u and x != v_u:
                    continue
                if x in nbrs_w:
                    if used_w is not None and used_w != x:
                        continue
                    nxt_used = x
                else:
                    nxt_used = used_w
                nxt_seen = seen_v or x == v
                key = (x, nxt_used, nxt_seen)
                if failed.get(key, -1) >= budget - 1:
                    continue
                path.append(x)
                if search(x, nxt_used, nxt_seen, budget - 1):
                    return True
                path.pop()
                if failed.get(key, -1) < budget - 1:
                    failed[key] = budget - 1
            return False

        used0 = v_u if v_u in nbrs_w else None
        if search(v_u, used0, v_u == v, limit - 2):
            witness = WalkWitness(tuple(path) + (w,))
            if not witness.is_weakly_toll(g):
                raise InternalConsistencyError(
                    f"enumerated walk {witness.sequence} is not weakly toll"
                )
            return witness
    return None


def _pairs(vertices: Iterable[int], g: Graph):
    vs = sorted(vertices)
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if not g.has_edge(a, b):
                yield a, b


def oracle_interval(g: Graph, s: Iterable[int], cap: int = DEFAULT_CAP) -> frozenset[int]:
    """I(S) recomputed purely from enumerated walks."""
    _check_cap(g, cap)
    sset = frozenset(s)
    out = set(sset)
    for v in range(g.n):
        if v in sset:
            continue
        if any(
            oracle_membership(g, a, b, v, cap=cap) is not None
            for a, b in _pairs(sset, g)
        ):
            out.add(v)
    return frozenset(out)
