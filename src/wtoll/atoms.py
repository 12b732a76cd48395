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

from typing import Iterator, NamedTuple

from .errors import CapExceededError, InternalConsistencyError
from .graph import Graph, _is_clique_mask, _require_connected, bits, component_mask

__all__ = [
    "AtomDecomposition",
    "decompose",
    "is_prime",
    "brute_force_atoms",
]


class AtomDecomposition(NamedTuple):
    """Atoms with their shared/exclusive vertex sets and extremal flags.

    ``shared[i]`` is the part of atom i lying in at least two atoms,
    ``exclusive[i]`` the rest. ``extremal[i]`` is set when one partner
    atom dominates every intersection of atom i, in which case
    ``shared[i]`` equals that single intersection. ``partner[i]`` is the
    least j != i whose atom contains ``shared[i]`` (None if there is none).
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
    edges plus fill). The unnumbered vertices sit in weight buckets, one
    mask per weight, and each step numbers z, the least vertex of the
    highest non-empty bucket. An unnumbered u of weight j then gets its
    weight bumped and the edge zu in H iff some path from z to u has all
    its interior vertices unnumbered and of weight below j. One pass over
    the weight levels j = 0, 1, ... finds every such u: it keeps
    ``comp``, the unnumbered vertices of weight < j reachable from z
    through unnumbered vertices of weight < j, so the vertices of weight j
    that qualify are those in N(z) | N(comp); ``comp`` then grows through
    the vertices of weight j. When the selected weight fails to exceed
    the previously selected one, z's later neighborhood in H is a minimal
    separator of H; those z make up ``generators``.
    """
    n = g.n
    masks = g._masks
    h = list(masks)
    buckets = [g._full]  # buckets[w]: the unnumbered vertices of weight w
    unnumbered = g._full
    top = 0
    order_rev: list[int] = []
    generators: set[int] = set()
    prev_weight = -1
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        zbit = buckets[top] & -buckets[top]
        z = zbit.bit_length() - 1
        buckets[top] ^= zbit
        unnumbered ^= zbit
        if top <= prev_weight:
            generators.add(z)
        prev_weight = top
        near = masks[z]  # N(z) | N(comp)
        comp = 0
        region = 0  # the unnumbered vertices of weight <= j
        bumped = 0  # the qualifying vertices of weight j, moving to bucket j + 1
        for j in range(top + 1):
            level = buckets[j]
            hit = level & near
            buckets[j] = level ^ hit | bumped
            bumped = hit
            if hit:
                h[z] |= hit
                for u in bits(hit):
                    h[u] |= zbit
            region |= level
            above = unnumbered & ~region
            if not above:
                break
            frontier = hit  # near & region & ~comp, as comp is closed below j
            while frontier:
                comp |= frontier
                while frontier:
                    low = frontier & -frontier
                    near |= masks[low.bit_length() - 1]
                    frontier ^= low
                frontier = near & region & ~comp
            if not near & above:
                break
        if bumped:
            if j + 1 == len(buckets):
                buckets.append(bumped)
            else:
                buckets[j + 1] |= bumped
            top = max(top, j + 1)
        order_rev.append(z)
    return order_rev[::-1], h, generators


def _atom_masks(g: Graph) -> Iterator[int]:
    """Yield the atoms of g as masks: each split region in the order the
    separator walk finds it, then the remainder as the last atom."""
    _require_connected(g, _DISCONNECTED)
    masks = g._masks
    meo, h, generators = _mcs_m(g)
    later = g._full  # vertices not yet passed in the elimination ordering
    available = g._full
    for x in meo:
        later &= ~(1 << x)
        if x not in generators:
            continue
        sep_mask = h[x] & later
        if not available >> x & 1 or sep_mask & ~available:
            raise InternalConsistencyError(
                "elimination ordering touched an already split-off vertex"
            )
        if not _is_clique_mask(masks, sep_mask):
            continue  # a minimal separator of H but not a clique in g
        comp = component_mask(masks, available & ~sep_mask, x)
        region = comp | sep_mask
        if region != available:
            yield region
            available &= ~comp
    yield available


def decompose(g: Graph) -> AtomDecomposition:
    """The unique set of maximal prime subgraphs of a connected graph.

    Atoms are returned sorted by least member. The work is one MCS-M pass
    (a reachability pass over the weight levels per vertex), one clique
    test and at most one component sweep per vertex, and an annotation
    that looks up each atom's partner among the atoms containing one of
    its shared vertices. The result is memoized on the graph, so a second
    call returns the same object.
    """
    dec = g._derived.get("decompose")
    if dec is None:
        pieces = sorted(_atom_masks(g), key=lambda m: sorted(bits(m)))
        dec = g._derived["decompose"] = _annotate(pieces)
    return dec


def _annotate(atom_masks: list[int]) -> AtomDecomposition:
    in_two = 0
    seen = 0
    for m in atom_masks:
        in_two |= seen & m
        seen |= m
    shared_masks = [m & in_two for m in atom_masks]
    # a shared vertex's atoms, ascending; an atom j dominates every
    # intersection of atom i iff it contains shared[i], the union of them
    containing: dict[int, list[int]] = {}
    for t, s in enumerate(shared_masks):
        for v in bits(s):
            containing.setdefault(v, []).append(t)
    partner: list[int | None] = []
    for i, s in enumerate(shared_masks):
        # shared[i] is empty only when the graph is a single atom
        candidates = min((containing[v] for v in bits(s)), key=len, default=())
        partner.append(
            next(
                (j for j in candidates if j != i and not s & ~atom_masks[j]),
                None,
            )
        )
    return AtomDecomposition(
        atoms=tuple(frozenset(bits(m)) for m in atom_masks),
        shared=tuple(frozenset(bits(m)) for m in shared_masks),
        exclusive=tuple(
            frozenset(bits(a & ~s)) for a, s in zip(atom_masks, shared_masks)
        ),
        extremal=tuple(j is not None for j in partner),
        partner=tuple(partner),
    )


def is_prime(g: Graph) -> bool:
    """True iff no clique of g separates g (i.e. g is its own single atom).

    Reads the decomposition memoized on g when :func:`decompose` has run
    on it; otherwise stops at the first clique separator the walk finds,
    and stores nothing."""
    dec = g._derived.get("decompose")
    if dec is not None:
        return len(dec.atoms) == 1
    return next(_atom_masks(g)) == g._full


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
            if rest and _is_clique_mask(masks, c):
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
