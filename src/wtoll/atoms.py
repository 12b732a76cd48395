"""Clique-separator decomposition into maximal prime subgraphs (atoms).

Pendant vertices go first. If v has exactly one neighbour p and the graph
has more than two vertices, {p} is a clique separator and every prime set
holding v lies inside {v, p}, so the atoms are {v, p} and the atoms of
G - v (the degree-one case of the rule that no atom meets two sides of a
cut vertex); peeling repeats until no pendant vertex is left. What is
left takes the classic pipeline: compute a minimal elimination ordering
with MCS-M, then walk it, and whenever a vertex's later neighborhood in
the minimal triangulation (which is never built: MCS-M records only the
separators small enough to be cliques) is a clique of the graph that
still separates the rest, split off the vertex's component together with
that separator. The pieces are exactly the maximal prime subgraphs; a
naive exponential recomputation ships alongside for testing.
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


def _mcs_m(g: Graph, within: int) -> tuple[list[int], dict[int, int]]:
    """MCS-M: a minimal elimination ordering and the separators that can be cliques.

    Runs on the subgraph induced by the vertex mask ``within`` (``g._full``
    for all of g): only its vertices are ever in a bucket, so a neighbour
    outside it may enter a reach mask but is never bumped, numbered or
    reached through. Returns (meo, separators), meo[0] eliminated first. Each step numbers
    z, the least vertex of the highest non-empty weight bucket, and bumps
    each unnumbered u of weight j that z reaches through unnumbered
    vertices of weight below j (zu is then an edge of the minimal
    triangulation), in one pass over the non-empty levels j = 0, 1, ...
    that stops growing the reach once it touches every vertex above j.
    A closure round visits its frontier highest bit first (no negation per
    visit) and ORs each visited neighbourhood into ``near``, so the round
    ends with the same ``near`` in any order. A visit reads b, the bit
    length of what is left, and clears bit b - 1 with ``pb[b]`` from a
    table built once per call, so a visit shifts out no new int; the
    separator bumps walk their masks the same way. An empty weight level
    only passes the bumped vertices up, before any ``hit`` is computed.
    ``seen`` = near & above, recomputed only after a closure grows
    ``near``, tests both stops: the pass ends when it is empty and moves
    every level above j up whole when it equals ``above``.
    When the selected weight fails to exceed the previous one, z is a
    generator, and the vertices that bumped it form a minimal separator. A
    clique has at most bound = Δ + 1 members, so bumps are recorded only
    below level bound, and ``separators`` holds each generator of weight at
    most bound with its (then complete) separator mask.
    """
    n = g.n
    masks = g._masks
    bound = max(map(int.bit_count, masks), default=0) + 1
    seps = [0] * n  # seps[u]: the vertices that bumped u at a level below bound
    buckets = [within] + [0] * n  # buckets[w]: the unnumbered vertices of weight w
    unnumbered = within
    top = 0
    order_rev: list[int] = []
    separators: dict[int, int] = {}
    prev_weight = -1
    # pb[b] = 1 << (b - 1), the bit a mask of bit length b loses first: at
    # most k ints of at most k bits for the k = within.bit_length() vertex
    # ids MCS-M can meet, the size class of seps and of the graph's masks
    pb = [0, *map((1).__lshift__, range(within.bit_length()))]
    for _ in range(within.bit_count()):
        while not buckets[top]:
            top -= 1
        zbit = buckets[top] & -buckets[top]
        z = zbit.bit_length() - 1
        buckets[top] ^= zbit
        unnumbered ^= zbit
        if top <= prev_weight and top <= bound:
            separators[z] = seps[z]
        prev_weight = top
        near = masks[z]  # N(z) | N(the vertices reached so far)
        above = unnumbered  # the unnumbered vertices of weight > j
        seen = near & above  # kept equal to near & above
        pending = 0  # the unnumbered vertices of weight <= j not yet reached
        bumped = 0  # the qualifying vertices of weight j, moving to bucket j + 1
        for j in range(top + 1):
            level = buckets[j]
            if not level:
                buckets[j] = bumped
                bumped = 0
                continue
            hit = level & near
            buckets[j] = level ^ hit | bumped
            bumped = hit
            if hit and j < bound:
                bump = hit
                while bump:
                    b = bump.bit_length()
                    seps[b - 1] |= zbit
                    bump ^= pb[b]
            above ^= level
            if not above:
                break
            pending |= level
            if hit:  # else near is unchanged and level held nothing of seen
                frontier = hit  # near & pending, as the reach is closed below j
                while frontier:
                    pending ^= frontier
                    while frontier:
                        b = frontier.bit_length()
                        near |= masks[b - 1]
                        frontier ^= pb[b]
                    frontier = near & pending
                seen = near & above
            if not seen:
                break
            if seen == above:  # every level above j moves up whole
                for k in range(j + 1, min(top + 1, bound)):
                    bump = buckets[k]
                    while bump:
                        b = bump.bit_length()
                        seps[b - 1] |= zbit
                        bump ^= pb[b]
                buckets.insert(j + 1, bumped)  # the list grows by at most n
                bumped, top = 0, top + 1
                break
        if bumped:
            buckets[j + 1] |= bumped
            top = max(top, j + 1)
        order_rev.append(z)
    return order_rev[::-1], separators


def _atom_members(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield the atoms of g as ascending member tuples: first one edge per
    pendant vertex peeled, then each region the separator walk splits off
    the core, in the order it finds them, and last the core that is left.

    While some vertex v has exactly one neighbour p among the vertices
    left, and more than v and p are left, {v, p} is an atom and v is
    deleted. {p} is a clique separator, and every prime set holding v
    lies inside {v, p}, so atoms(G) = {{v, p}} | atoms(G - v). The
    vertices left stay connected, so while more than two are left no two
    pendant vertices are adjacent: a vertex is pushed once, when its
    degree among them reads 1, and still has that one neighbour when it
    is popped. A core of more than two vertices, the whole graph when
    nothing was peeled, takes the separator walk over MCS-M's generators
    in elimination order; a core of one edge (or K1) is one atom as it is.
    """
    _require_connected(g, _DISCONNECTED)
    masks = g._masks
    core = g._full
    left = g.n
    stack = [v for v, m in enumerate(masks) if not m & (m - 1)]
    while stack and left > 2:
        v = stack.pop()
        p = (masks[v] & core).bit_length() - 1
        yield (v, p) if v < p else (p, v)
        core ^= 1 << v
        left -= 1
        if (masks[p] & core).bit_count() == 1:
            stack.append(p)
    if left > 2:
        # the generators in elimination order, as MCS-M numbers them in reverse
        for x, sep_mask in reversed(_mcs_m(g, core)[1].items()):
            if not core >> x & 1 or sep_mask & ~core:
                raise InternalConsistencyError(
                    "elimination ordering touched an already split-off vertex"
                )
            if not _is_clique_mask(masks, sep_mask):
                continue  # a minimal separator of the triangulation, not a clique in g
            comp = component_mask(masks, core & ~sep_mask, x)
            region = comp | sep_mask
            if region != core:
                yield tuple(bits(region))
                core &= ~comp
    yield tuple(bits(core))


def decompose(g: Graph) -> AtomDecomposition:
    """The unique set of maximal prime subgraphs of a connected graph.

    Atoms are returned sorted by their ascending member tuples, as
    :func:`_atom_members` yields them (a peeled edge is never an n-bit
    mask). The work is one pass that peels the pendant vertices, each
    with its neighbour as an atom (exact: {v, p} is an atom of G and the
    other atoms are those of G - v), then on the core left over one MCS-M
    pass (a reachability pass over the weight levels per vertex), one
    clique test and at most one component sweep per separator of at most
    Δ + 1 members, and an annotation that finds each atom's partner among
    the atoms containing one of its shared vertices. A tree takes no
    MCS-M pass at all. The result is memoized on the graph, so a second
    call returns the same object.
    """
    dec = g._derived.get("decompose")
    if dec is None:
        dec = g._derived["decompose"] = _annotate(sorted(_atom_members(g)))
    return dec


def _annotate(members: list[tuple[int, ...]]) -> AtomDecomposition:
    # each vertex's atoms, ascending; an atom j dominates every
    # intersection of atom i iff it contains shared[i], the union of them
    containing: dict[int, list[int]] = {}
    for t, atom in enumerate(members):
        for v in atom:
            containing.setdefault(v, []).append(t)
    atoms = tuple(map(frozenset, members))
    shared = tuple(frozenset([v for v in a if len(containing[v]) > 1]) for a in members)
    partner: list[int | None] = []
    for i, s in enumerate(shared):
        # shared[i] is empty only when the graph is a single atom
        candidates = min((containing[v] for v in s), key=len, default=())
        partner.append(next((j for j in candidates if j != i and s <= atoms[j]), None))
    return AtomDecomposition(
        atoms=atoms,
        shared=shared,
        exclusive=tuple(a - s for a, s in zip(atoms, shared)),
        extremal=tuple(j is not None for j in partner),
        partner=tuple(partner),
    )


def is_prime(g: Graph) -> bool:
    """True iff no clique of g separates g (i.e. g is its own single atom).

    Reads the decomposition memoized on g when :func:`decompose` has run
    on it; otherwise stops at the first atom found, the edge of a pendant
    vertex or the first clique separator the walk finds, and stores
    nothing."""
    dec = g._derived.get("decompose")
    if dec is not None:
        return len(dec.atoms) == 1
    return len(next(_atom_members(g))) == g.n


def brute_force_atoms(g: Graph, cap: int = 12) -> list[frozenset[int]]:
    """Atoms by enumeration: maximal vertex sets inducing connected prime
    subgraphs. Exponential; testing oracle only."""
    _require_connected(g, _DISCONNECTED)
    if g.n > cap:
        raise CapExceededError(f"atom enumeration refused: n={g.n} exceeds cap {cap}")
    masks = g._masks

    def connected(a: int) -> bool:
        return component_mask(masks, a, (a & -a).bit_length() - 1) == a

    def prime(a: int) -> bool:
        # reducible iff some proper clique submask disconnects the rest
        c = (a - 1) & a
        while c:
            if _is_clique_mask(masks, c) and not connected(a & ~c):
                return False
            c = (c - 1) & a
        return True

    # largest first, so a prime set inside a larger one is met after it
    maximal: list[int] = []
    for a in sorted(range(1, 1 << g.n), key=lambda a: -a.bit_count()):
        if not any(a & m == a for m in maximal) and connected(a) and prime(a):
            maximal.append(a)
    maximal.sort(key=lambda m: sorted(bits(m)))
    return [frozenset(bits(m)) for m in maximal]
