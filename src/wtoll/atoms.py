"""Clique-separator decomposition into maximal prime subgraphs (atoms).

The decomposition pipeline is the classic one: compute a minimal
elimination ordering and the matching minimal triangulation (MCS-M), then
walk the ordering, and whenever a vertex's later triangulation
neighborhood is a clique of the original graph that still separates the
remaining graph, split off the component of the vertex together with that
separator. The pieces are exactly the maximal prime subgraphs; a naive
exponential recomputation ships alongside for testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, InternalConsistencyError
from .graph import Graph, _require_connected, bits, component_mask

__all__ = [
    "AtomDecomposition",
    "decompose",
    "is_prime",
    "extremal_atoms",
    "brute_force_atoms",
]


@dataclass(frozen=True)
class AtomDecomposition:
    """Atoms with their shared/exclusive vertex sets and extremal flags.

    ``shared[i]`` is the part of atom i lying in at least two atoms,
    ``exclusive[i]`` the rest. ``extremal[i]`` is set when one partner
    atom (``partner[i]``) dominates every intersection of atom i, in
    which case ``shared[i]`` equals that single intersection.
    """

    atoms: tuple[frozenset[int], ...]
    shared: tuple[frozenset[int], ...]
    exclusive: tuple[frozenset[int], ...]
    extremal: tuple[bool, ...]
    partner: tuple[int | None, ...]


_DISCONNECTED = "clique separator decomposition needs a connected graph"


def _mcs_m(g: Graph) -> tuple[list[int], list[int], set[int]]:
    """MCS-M: minimal elimination ordering, minimal triangulation, separator generators.

    Returns (meo, h, generators) where meo[0] is eliminated first and h[v]
    is the neighbor mask of v in the minimal triangulation H (original
    edges plus fill). At each step the unnumbered vertex z of maximum
    weight is numbered, and every unnumbered u reachable from z through
    unnumbered interior vertices of weight strictly below weight(u) gets
    its weight bumped and the edge zu in H. When the selected weight fails
    to exceed the previously selected one, z's later neighborhood in H is a
    minimal separator of H; those z make up ``generators``.
    """
    n = g.n
    nbrs = [list(bits(m)) for m in g._masks]
    weight = [0] * n
    numbered = [False] * n
    h = list(g._masks)
    order_rev: list[int] = []
    generators: set[int] = set()
    prev_weight = -1
    for _ in range(n):
        z = max(
            (v for v in range(n) if not numbered[v]),
            key=lambda v: (weight[v], -v),
        )
        if weight[z] <= prev_weight:
            generators.add(z)
        prev_weight = weight[z]
        numbered[z] = True
        for u in _mcsm_reach(nbrs, z, weight, numbered):
            weight[u] += 1
            h[z] |= 1 << u
            h[u] |= 1 << z
        order_rev.append(z)
    return order_rev[::-1], h, generators


def _mcsm_reach(
    nbrs: list[list[int]], z: int, weight: list[int], numbered: list[bool]
) -> list[int]:
    # min over z->u paths (unnumbered interior) of the max interior weight,
    # by a Dial-bucket min-max relaxation; u qualifies when that value is
    # below weight(u) (direct neighbors always qualify).
    n = len(nbrs)
    inf = n + 1
    dist = [inf] * n
    buckets: list[list[int]] = [[] for _ in range(n + 2)]
    for y in nbrs[z]:
        if not numbered[y]:
            dist[y] = -1
            buckets[0].append(y)
    for d in range(n + 2):
        for u in buckets[d]:
            du = d - 1
            if dist[u] != du:
                continue
            nd = max(du, weight[u])
            for x in nbrs[u]:
                if not numbered[x] and x != z and nd < dist[x]:
                    dist[x] = nd
                    buckets[nd + 1].append(x)
    return [u for u in range(n) if dist[u] < weight[u]]


def decompose(g: Graph) -> AtomDecomposition:
    """The unique set of maximal prime subgraphs of a connected graph.

    Atoms are returned sorted by least member. Runs in O(nm)-flavored
    time: one MCS-M sweep plus one clique test and at most one component
    sweep per vertex.
    """
    _require_connected(g, _DISCONNECTED)
    masks = g._masks
    meo, h, generators = _mcs_m(g)
    later = g._full  # vertices not yet passed in the elimination ordering
    available = g._full
    pieces: list[int] = []
    for x in meo:
        later &= ~(1 << x)
        if x not in generators:
            continue
        sep_mask = h[x] & later
        if not available >> x & 1 or sep_mask & ~available:
            raise InternalConsistencyError(
                "elimination ordering touched an already split-off vertex"
            )
        if any(sep_mask & ~(1 << y) & ~masks[y] for y in bits(sep_mask)):
            continue  # a minimal separator of H but not a clique in g
        comp = component_mask(masks, available & ~sep_mask, x)
        region = comp | sep_mask
        if region != available:
            pieces.append(region)
            available &= ~comp
    pieces.append(available)
    return _annotate(sorted(pieces, key=lambda m: sorted(bits(m))))


def _annotate(atom_masks: list[int]) -> AtomDecomposition:
    k = len(atom_masks)
    in_two = 0
    seen = 0
    for m in atom_masks:
        in_two |= seen & m
        seen |= m
    shared_masks = [m & in_two for m in atom_masks]
    extremal: list[bool] = []
    partner: list[int | None] = []
    for i, mi in enumerate(atom_masks):
        found: int | None = None
        for j, mj in enumerate(atom_masks):
            if j == i:
                continue
            dominating = mi & mj
            if all(
                mi & mk & ~dominating == 0
                for t, mk in enumerate(atom_masks)
                if t != i
            ):
                found = j
                break
        extremal.append(found is not None)
        partner.append(found)
    return AtomDecomposition(
        atoms=tuple(frozenset(bits(m)) for m in atom_masks),
        shared=tuple(frozenset(bits(m)) for m in shared_masks),
        exclusive=tuple(
            frozenset(bits(a & ~s)) for a, s in zip(atom_masks, shared_masks)
        ),
        extremal=tuple(extremal),
        partner=tuple(partner),
    )


def is_prime(g: Graph) -> bool:
    """True iff no clique of g separates g (i.e. g is its own single atom)."""
    return len(decompose(g).atoms) == 1


def extremal_atoms(d: AtomDecomposition) -> list[int]:
    """Indices of extremal atoms; defined only for reducible graphs."""
    if len(d.atoms) < 2:
        raise ValueError("extremal atoms are defined for decompositions with >= 2 atoms")
    return [i for i, flag in enumerate(d.extremal) if flag]


def brute_force_atoms(g: Graph, cap: int = 12) -> list[frozenset[int]]:
    """Atoms by enumeration: maximal vertex sets inducing connected prime
    subgraphs. Exponential; testing oracle only."""
    _require_connected(g, _DISCONNECTED)
    if g.n > cap:
        raise CapExceededError(f"atom enumeration refused: n={g.n} exceeds cap {cap}")
    masks = g._masks
    n = g.n

    def connected_mask(a: int) -> bool:
        start = (a & -a).bit_length() - 1
        return component_mask(masks, a, start) == a

    def prime_mask(a: int) -> bool:
        # reducible iff some proper clique submask disconnects the rest
        c = (a - 1) & a
        while c:
            rest = a & ~c
            if rest and all(c & ~(1 << y) & ~masks[y] == 0 for y in bits(c)):
                start = (rest & -rest).bit_length() - 1
                if component_mask(masks, rest, start) != rest:
                    return False
            c = (c - 1) & a
        return True

    prime_sets = [
        a
        for a in range(1, 1 << n)
        if connected_mask(a) and prime_mask(a)
    ]
    prime_sets.sort(key=lambda a: -bin(a).count("1"))
    maximal: list[int] = []
    for a in prime_sets:
        if not any(a & m == a for m in maximal):
            maximal.append(a)
    maximal.sort(key=lambda m: sorted(bits(m)))
    return [frozenset(bits(m)) for m in maximal]
