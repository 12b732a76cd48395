"""Weakly toll walk membership, interval and hull operators, extreme vertices.

Membership of a vertex v in some weakly toll (u, w)-walk is decided by the
component criterion: v lies on such a walk iff there are neighbors
v_u of u and v_w of w such that v_u, v_w and v share a connected component
of the graph minus the blocked set (N[u] - v_u) union (N[w] - v_w).
Walk endpoints must be distinct and nonadjacent; adjacent pairs never
generate anything.

Whatever (v_u, v_w) is chosen, removing the blocked set leaves the same
base B = G - (N[u] union N[w]) plus v_u and v_w. So the components of B
are labelled once per endpoint pair (:class:`_BaseLabels`), and each
(v_u, v_w) verdict is a few mask operations on touch(v_u) and
touch(v_w), the unions of the base components adjacent to them. Both the
per-vertex witness search and the per-pair walk masks read this one
labelling.

Extreme vertices need no walk masks at all. A vertex x is extreme iff
every BFS layer L_0 = {x}, L_1 = N(x), L_2, ... of its component is a
clique and no layer L_i (i >= 2) holds vertices u != v where v has a
neighbor in L_{i-1} and one in L_{i+1}, both outside N(u); the proof is
in :func:`extreme_vertices`. So each vertex costs one bitmask BFS, one
that is not simplicial stops at its first layer, L_1 = N(x), and the
true twins of a simplicial vertex take its verdict without a BFS.

Everything here is pure. Per-pair walk masks are memoized on the Graph
instance, which makes repeated interval/hull evaluations over overlapping
pairs (subset searches, fixpoint iterations) cheap. The extreme set is
memoized on it too, so the wtn solver's twin-class step reuses the set a
caller has already asked for; the one-vertex test
:func:`is_extreme_vertex` reads that set when it is there, and otherwise
stops at x's first non-clique layer and keeps nothing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import Graph, _check_subset, _nonadjacent_pairs, bits, component_mask

__all__ = [
    "MembershipWitness",
    "in_weakly_toll_walk",
    "interval",
    "hull",
    "is_convex",
    "extreme_vertices",
    "is_extreme_vertex",
]


class MembershipWitness(NamedTuple):
    """Certificate that v lies on a weakly toll (u, w)-walk.

    ``v_u`` is the walk's second vertex (a neighbor of u), ``v_w`` its
    second-to-last (a neighbor of w), and ``component`` the component of
    the graph minus the blocked set containing v_u, v_w and v.
    """

    v_u: int
    v_w: int
    component: frozenset[int]


class _BaseLabels:
    """Lazily labelled components of the base B = G - (N[u] union N[w]).

    For a neighbor v_u of u and a neighbor v_w of w with v_u = v_w, or
    with v_u not in N(w) and v_w not in N(u), the blocked set leaves
    exactly B plus {v_u, v_w}; any other choice blocks v_u or v_w itself.
    The component of v_u there is {v_u} union touch(v_u) when v_u = v_w,
    and otherwise contains v_w iff v_u ~ v_w or touch(v_u) meets
    touch(v_w), in which case it is {v_u, v_w} union touch(v_u) union
    touch(v_w). A base component is swept the first time it is needed,
    and never twice.
    """

    __slots__ = ("_masks", "base", "_comps")

    def __init__(self, g: Graph, u: int, w: int):
        masks = g._masks
        self._masks = masks
        self.base = g._full & ~(masks[u] | masks[w] | (1 << u) | (1 << w))
        self._comps: list[int] = []  # the base components swept so far

    def touch(self, y: int) -> int:
        """Union of the base components adjacent to y."""
        rest = self._masks[y] & self.base
        t = 0
        if rest:
            for comp in self._comps:
                if comp & rest:
                    t |= comp
                    rest &= ~comp
            while rest:
                start = (rest & -rest).bit_length() - 1
                comp = component_mask(self._masks, self.base, start)
                self._comps.append(comp)
                t |= comp
                rest &= ~comp
        return t


def in_weakly_toll_walk(g: Graph, u: int, w: int, v: int) -> MembershipWitness | None:
    """First witness that v lies on a weakly toll (u, w)-walk, else None.

    Neighbor pairs (v_u, v_w) are scanned in ascending lexicographic order,
    so the returned witness is deterministic.
    """
    _check_subset(g, (u, w, v))
    if len({u, w, v}) != 3:
        raise ValueError("u, w, v must be pairwise distinct")
    if g.has_edge(u, w):
        raise ValueError("walk endpoints must be nonadjacent")
    masks = g._masks
    mu, mw = masks[u], masks[w]
    touch = _BaseLabels(g, u, w).touch
    for v_u in bits(mu):
        for v_w in bits(mw):
            if v_u == v_w:
                comp = (1 << v_u) | touch(v_u)
            elif mw >> v_u & 1 or mu >> v_w & 1:
                continue  # the blocked set contains v_u or v_w
            else:
                t_u, t_w = touch(v_u), touch(v_w)
                if not (masks[v_u] >> v_w & 1 or t_u & t_w):
                    continue
                comp = (1 << v_u) | (1 << v_w) | t_u | t_w
            if comp >> v & 1:
                return MembershipWitness(v_u, v_w, frozenset(bits(comp)))
    return None


def _pair_walk_mask(g: Graph, u: int, w: int) -> int:
    """Mask of all vertices on some weakly toll (u, w)-walk (u, w excluded).

    The union over qualifying (v_u, v_w) of their components (see
    :class:`_BaseLabels`), taken per neighbor instead of per pair:
    a common neighbor c contributes {c} union touch(c); a private
    neighbor a of u (a in N(u) - N(w)) contributes {a} union touch(a) if
    some private neighbor b of w is adjacent to it or shares a base
    component with it, and private neighbors of w likewise. Each base
    component is swept at most once, and only those adjacent to a common
    neighbor, to a private neighbor of w, or to a qualifying private
    neighbor of u are swept at all. Memoized on the graph.
    """
    key = (u, w) if u < w else (w, u)
    cached = g._pair_cache.get(key)
    if cached is not None:
        return cached
    masks = g._masks
    mu, mw = masks[u], masks[w]
    labels = _BaseLabels(g, u, w)
    touch = labels.touch
    common = mu & mw
    marked = common
    for c in bits(common):
        marked |= touch(c)
    priv_u, priv_w = mu & ~mw, mw & ~mu
    if priv_u and priv_w:
        near_u = 0  # base vertices adjacent to a private neighbor of u
        for a in bits(priv_u):
            near_u |= masks[a]
        near_u &= labels.base
        reach_w = priv_w  # private neighbors of w and their base components
        for b in bits(priv_w):
            t_b = touch(b)
            reach_w |= t_b
            # t_b is a union of whole components, so meeting near_u means
            # sharing a component with some private neighbor of u
            if masks[b] & priv_u or t_b & near_u:
                marked |= (1 << b) | t_b
        for a in bits(priv_u):
            if masks[a] & reach_w:
                marked |= (1 << a) | touch(a)
    g._pair_cache[key] = marked
    return marked


def _interval_mask(g: Graph, smask: int) -> int:
    marked = smask
    full = g._full
    if marked == full:
        return marked
    for u, w in _nonadjacent_pairs(g._masks, smask):
        marked |= _pair_walk_mask(g, u, w)
        if marked == full:
            break
    return marked


def interval(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """The weakly toll interval I(S): S plus every vertex on a weakly toll
    walk between two distinct nonadjacent vertices of S."""
    return frozenset(bits(_interval_mask(g, _check_subset(g, s))))


def _hull_mask(g: Graph, smask: int) -> int:
    cur = smask
    while True:
        nxt = _interval_mask(g, cur)
        if nxt == cur:
            return cur
        cur = nxt


def hull(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """The weakly toll convex hull H(S): least fixed point of the interval
    operator containing S."""
    return frozenset(bits(_hull_mask(g, _check_subset(g, s))))


def is_convex(g: Graph, s: Iterable[int]) -> bool:
    """True iff I(S) = S."""
    smask = _check_subset(g, s)
    return _interval_mask(g, smask) == smask


def _is_extreme(masks: list[int], x: int) -> bool | None:
    """The layer test of :func:`extreme_vertices` for one vertex x: None
    when x is not simplicial, else whether x is extreme.

    One BFS from x over neighbor masks. It stops at the first layer that
    is not a clique (layer 1 first, so a vertex that is not simplicial
    costs one layer). Condition 2 is read per vertex v of a layer L_i:
    the vertices u of L_i with a neighbor p of v in L_{i-1} outside N(u)
    are L_i minus the intersection of those N(p), which never holds v;
    likewise upwards; x fails iff the two sets meet. At i = 1 they never
    do, as L_1 lies in N(x), so layer 1 skips that test. Each layer costs
    one pass over the edges leaving it, and no pair walk mask is made.
    """
    prev, layer = 1 << x, masks[x]
    seen = prev | layer
    fail = None  # layer 1 is N(x): failing there means x is not simplicial
    while layer:
        reach = 0
        for v in bits(layer):
            if layer & ~(masks[v] | 1 << v):
                return fail  # condition 1: the layer is not a clique
            reach |= masks[v]
        nxt = reach & ~seen
        if fail is False:  # past layer 1, which lies in N(x)
            for v in bits(layer):
                far_down = 0
                for p in bits(masks[v] & prev):
                    far_down |= layer & ~masks[p]
                if far_down:
                    far_up = 0
                    for s in bits(masks[v] & nxt):
                        far_up |= layer & ~masks[s]
                    if far_down & far_up:
                        return False  # condition 2: a walk u v p ... x ... p v s
        seen |= nxt
        prev, layer = layer, nxt
        fail = False
    return True


def extreme_vertices(g: Graph) -> frozenset[int]:
    """Vertices x such that V - {x} is weakly toll convex.

    Equivalently: x lies on no weakly toll walk between two other
    (distinct, nonadjacent) vertices. Let L_0 = {x}, L_1 = N(x) and
    L_{i+1} = N(L_i) - (L_0 union ... union L_i) be the BFS layers of x's
    component. Then x is extreme iff

    1. every layer is a clique, and
    2. no layer L_i with i >= 2 holds two distinct vertices u, v such
       that v has a neighbor in L_{i-1} outside N(u) and a neighbor in
       L_{i+1} outside N(u).

    Proof. *Splice:* let x be simplicial and u, w not in N[x]. Then x
    lies on a weakly toll (u, w)-walk iff some y in N(x) does, because an
    excursion y x y can be spliced in or cut out while N(x) is a clique.
    So x is extreme iff no vertex of the clique N(x) lies on a weakly
    toll walk of G - x between two vertices outside N[x].

    *Condition 1:* suppose a clique Q has that property. Then N(Q) is a
    clique, since two nonadjacent a, b in N(Q) give the walk a y b or
    a y y' b through Q; and N(Q) has the same property in G - Q, by
    splicing in an excursion a q a. Induct along the layers.

    *Condition 2:* assume condition 1 and take a walk through x between
    u in L_i and w in L_j. Each layer is a clique and u, w are not in
    N[x], so 2 <= i < j. Climbing back from L_0 to L_j the walk crosses
    L_i, and every vertex of L_i other than u lies in N(u), so it
    crosses at v_u in L_i. From v_u the walk goes down through some p in
    L_{i-1} - N(u) and up through some s in L_{i+1} - N(u). Conversely,
    u v p ... x ... p v s is weakly toll for any such v, p, s.

    Every vertex is tested by one BFS with bit masks that stops at its
    first non-clique layer (:func:`_is_extreme`). Layer 1 is N(x), so
    that first test is the simplicial test, and a vertex that is not
    simplicial fails it without a second layer. Vertices of other
    components never reach x, so an isolated vertex is extreme.

    *Twins:* a simplicial vertex x shares its verdict with its true
    twins, the y in N(x) with N[y] = N[x]: swapping x and y is an
    automorphism, which maps weakly toll walks onto weakly toll walks.
    So the scan, in vertex order, runs the BFS for the first member of
    each simplicial twin class and skips the rest; a vertex that is not
    simplicial has no twin that is, and still stops at layer 1. The set
    is memoized on the graph, so a second call returns the same object.
    """
    ext = g._derived.get("extreme_vertices")
    if ext is None:
        masks = g._masks
        found = 0
        settled = 0  # the later twins of simplicial vertices already tested
        for x in range(g.n):
            if settled >> x & 1:
                continue
            verdict = _is_extreme(masks, x)
            if verdict is None:
                continue  # not simplicial
            closed = masks[x] | 1 << x
            twins = 1 << x
            for y in bits(masks[x]):
                if masks[y] | 1 << y == closed:
                    twins |= 1 << y
            settled |= twins
            if verdict:
                found |= twins
        ext = g._derived["extreme_vertices"] = frozenset(bits(found))
    return ext


def is_extreme_vertex(g: Graph, x: int) -> bool:
    """Membership test for :func:`extreme_vertices`, with early exit: a
    vertex that is not simplicial fails at the first layer of its BFS.
    Reads the extreme set memoized on g when :func:`extreme_vertices` has
    run on it, and runs no BFS then."""
    _check_subset(g, (x,))
    ext = g._derived.get("extreme_vertices")
    if ext is not None:
        return x in ext
    return bool(_is_extreme(g._masks, x))
