"""Reference implementations the library is checked against in the tests.

- The walk-membership kernel: the straightforward per-(v_u, v_w) versions
  of the component criterion, one component sweep of G minus the blocked
  set for every neighbor pair. The library's base-labelling kernel must
  agree with them bit for bit.
- The interval as the double loop over the members of S, checking
  "I(S) = V?" before each first endpoint; the library's loop over the
  shared nonadjacent-pair scan must return the same mask and fill the
  pair memo in the same order.
- H(S) and the extreme vertices from the walk-enumeration oracle
  (``wtoll.oracle``), sharing no logic with the library's operators.
- MCS-M on adjacency sets, with the triangulation kept as sets and a
  Dial-bucket relaxation per vertex; the library's bucketed bitmask MCS-M
  must return the same ordering and, for every generator whose separator
  (its later neighborhood in the triangulation) has at most Δ + 1
  members, the same separator.
- The atoms by MCS-M and the separator walk over the whole graph, with
  no pendant vertex peeled first; the library's decomposition must hold
  the same atoms, and ``is_prime`` must agree with its first atom.
- The atom annotation by the direct triple loop: for each atom, the first
  other atom whose intersection with it contains every other
  intersection; the library's annotation must return the same
  decomposition, partners included.
- The extreme-vertex scan by pair walk masks: the simplicial vertices,
  minus the walk mask of every nonadjacent pair until none is left; the
  library's BFS layer test must return the same set.
- The literal wtn subset search, without twin pruning or completions.
- The wtn search over every set of extras holding at most one vertex per
  twin class, skipping the others one by one; the library's search over
  one representative per class must return the same value, witness and
  case tag.
- The I/O path as a line loop and a bit loop: the edge-list parser that
  collects (u, v) tuples line by line, the graph6 decoder that shifts the
  whole bitstream once per bit, the fingerprint over the sorted edge
  tuples and the edge-list writer with one formatted line per edge tuple.
  The library's bulk parsers must return equal graphs and raise the same
  message at the same line, its fingerprint must be the same string, and
  its writer, which shares its edge lines with the fingerprint, the same
  text. Bare text, which the library reads in bulk, is the regular
  language of one-or-more "u v" lines of ASCII digits; the library's
  skeleton and token count must pick out the same texts.
- wth as the case analysis over the decomposition's vertex sets, with a
  hull check at each of its exits; the library's version over masks,
  with one check, must return the same value, witness and case tag.
- wtn and wth by brute force: every subset in increasing size and
  lexicographic order, the first whose interval (hull) is V.
- The set bits of a mask by the lowest-bit loop, as a list; the
  library's ``bits``, a stored tuple below 2^10 and a generator above,
  must give the same positions in the same order.
- wtc by the exhaustive scan: the COMPLETE and PRIME_MAX_CLIQUE branches,
  then every size-s subset from ``combinations`` with one convexity test
  each, for s = n - 1 down to 1; the library's pruned depth-first search
  must return the same value, witness and case tag.
- wtc's two searches as recursive functions: the maximum clique branch
  and bound with nested first-fit colouring, and the pruned depth-first
  search for the first convex set of a size. The library runs each as
  one loop over an explicit stack and must return the same witness.
"""

import hashlib
import re
from itertools import combinations

from wtoll.atoms import _DISCONNECTED as _NO_ATOMS, AtomDecomposition, _mcs_m, decompose, is_prime
from wtoll.errors import CapExceededError, GraphParseError, InternalConsistencyError
from wtoll.graph import (
    Graph,
    _check_subset,
    _is_clique_mask,
    _nonadjacent_pairs,
    _require_connected,
    bits,
    component_mask,
    is_clique,
    is_complete,
    mask_of,
)
from wtoll.intervals import (
    MembershipWitness,
    _hull_mask,
    _interval_mask,
    _pair_walk_mask,
    hull,
    in_weakly_toll_walk,
    is_convex,
    is_extreme_vertex,
)
from wtoll.invariants import _DISCONNECTED, InvariantResult
from wtoll.oracle import DEFAULT_CAP, _check_cap, _pairs, oracle_interval, oracle_membership
from wtoll.twins import extreme_twin_classes, twin_classes


def _blocked_mask(masks, u, w, v_u, v_w):
    closed_u = masks[u] | (1 << u)
    closed_w = masks[w] | (1 << w)
    return (closed_u & ~(1 << v_u)) | (closed_w & ~(1 << v_w))


def reference_pair_walk_mask(g, u, w):
    """Mask of all vertices on some weakly toll (u, w)-walk, no memo."""
    masks = g._masks
    full = g._full
    marked = 0
    for v_u in bits(masks[u]):
        for v_w in bits(masks[w]):
            blocked = _blocked_mask(masks, u, w, v_u, v_w)
            if blocked >> v_u & 1 or blocked >> v_w & 1:
                continue
            comp = component_mask(masks, full & ~blocked, v_u)
            if comp >> v_w & 1:
                marked |= comp
    return marked


def reference_in_weakly_toll_walk(g, u, w, v):
    """First (v_u, v_w) witness in lexicographic order, else None."""
    masks = g._masks
    full = g._full
    for v_u in bits(masks[u]):
        for v_w in bits(masks[w]):
            blocked = _blocked_mask(masks, u, w, v_u, v_w)
            if blocked >> v_u & 1 or blocked >> v_w & 1:
                continue
            comp = component_mask(masks, full & ~blocked, v_u)
            if comp >> v_w & 1 and comp >> v & 1:
                return MembershipWitness(v_u, v_w, frozenset(bits(comp)))
    return None


def reference_interval_mask(g, smask):
    """I(S) as a mask by the double loop over the members of S, in
    lexicographic pair order, stopping once every vertex is marked."""
    marked = smask
    full = g._full
    verts = list(bits(smask))
    for i, u in enumerate(verts):
        if marked == full:
            break
        mu = g._masks[u]
        for w in verts[i + 1:]:
            if mu >> w & 1:
                continue
            marked |= _pair_walk_mask(g, u, w)
            if marked == full:
                break
    return marked


def oracle_hull(g, s, cap=DEFAULT_CAP):
    """H(S) recomputed purely from enumerated walks."""
    cur = frozenset(s)
    while True:
        nxt = oracle_interval(g, cur, cap=cap)
        if nxt == cur:
            return cur
        cur = nxt


def oracle_extreme(g, cap=DEFAULT_CAP):
    """ext(G) recomputed purely from enumerated walks."""
    _check_cap(g, cap)
    out = set()
    for x in range(g.n):
        others = [y for y in range(g.n) if y != x]
        if all(
            oracle_membership(g, a, b, x, cap=cap) is None
            for a, b in _pairs(others, g)
        ):
            out.add(x)
    return frozenset(out)


def interval_members(g, s):
    """Interval computed with the per-vertex membership test.

    Same contract as ``wtoll.interval``; used to cross-check the pair
    walk masks against the per-vertex witness search.
    """
    sset = set(bits(_check_subset(g, s)))
    out = set(sset)
    members = sorted(sset)
    for v in range(g.n):
        if v in sset:
            continue
        found = False
        for i, u in enumerate(members):
            for w in members[i + 1:]:
                if g.has_edge(u, w):
                    continue
                if in_weakly_toll_walk(g, u, w, v) is not None:
                    found = True
                    break
            if found:
                break
        if found:
            out.add(v)
    return frozenset(out)


def reference_extreme_scan(g):
    """Extreme vertices by elimination: start from the simplicial
    vertices, and remove the walk mask of each nonadjacent pair whose
    mask could still drop a candidate other than its own endpoints."""
    masks = g._masks
    candidates = 0
    for v in range(g.n):
        nb = masks[v]
        if all(nb & ~(1 << y) & ~masks[y] == 0 for y in bits(nb)):
            candidates |= 1 << v
    n = g.n
    for u in range(n):
        if not candidates:
            break
        mu = masks[u]
        for w in range(u + 1, n):
            if mu >> w & 1 or not candidates & ~((1 << u) | (1 << w)):
                continue
            candidates &= ~_pair_walk_mask(g, u, w)
            if not candidates:
                break
    return frozenset(bits(candidates))


def reference_mcs_m(g):
    """MCS-M with adjacency sets: (meo, h_adj as sets, generators)."""
    n = g.n
    adjacency = [g.neighbors(v) for v in range(n)]
    weight = [0] * n
    numbered = [False] * n
    h_adj = [set(adjacency[v]) for v in range(n)]
    order_rev = []
    generators = set()
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
        reached = _reference_mcsm_reach(adjacency, z, weight, numbered)
        for u in reached:
            weight[u] += 1
            h_adj[z].add(u)
            h_adj[u].add(z)
        order_rev.append(z)
    return order_rev[::-1], h_adj, generators


def _reference_mcsm_reach(adjacency, z, weight, numbered):
    # min over z->u paths (unnumbered interior) of the max interior weight,
    # by a Dial-bucket min-max relaxation; u qualifies when that value is
    # below weight(u) (direct neighbors always qualify).
    n = len(adjacency)
    inf = n + 1
    dist = [inf] * n
    buckets = [[] for _ in range(n + 2)]
    for y in adjacency[z]:
        if not numbered[y]:
            dist[y] = -1
            buckets[0].append(y)
    for d in range(n + 2):
        for u in buckets[d]:
            du = d - 1
            if dist[u] != du:
                continue
            nd = max(du, weight[u])
            for x in adjacency[u]:
                if not numbered[x] and x != z and nd < dist[x]:
                    dist[x] = nd
                    buckets[nd + 1].append(x)
    return [u for u in range(n) if dist[u] < weight[u]]


def reference_atom_masks(g):
    """The atoms of g as masks from MCS-M and the separator walk over the
    whole graph, pendant vertices included: each split region in the
    order the walk finds it, then the remainder as the last atom."""
    _require_connected(g, _NO_ATOMS)
    masks = g._masks
    available = g._full
    for x, sep_mask in reversed(_mcs_m(g, g._full)[1].items()):
        if not available >> x & 1 or sep_mask & ~available:
            raise InternalConsistencyError(
                "elimination ordering touched an already split-off vertex"
            )
        if not _is_clique_mask(masks, sep_mask):
            continue
        comp = component_mask(masks, available & ~sep_mask, x)
        region = comp | sep_mask
        if region != available:
            yield region
            available &= ~comp
    yield available


def reference_annotate(atom_masks):
    """AtomDecomposition of the atoms ``atom_masks`` (sorted by least
    member), by the triple loop over atoms, partners and intersections."""
    in_two = 0
    seen = 0
    for m in atom_masks:
        in_two |= seen & m
        seen |= m
    shared_masks = [m & in_two for m in atom_masks]
    extremal = []
    partner = []
    for i, mi in enumerate(atom_masks):
        found = None
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


def reference_wtn_unpruned(g):
    """wtn by the literal bounded search: the forced extreme twin classes
    plus every extra subset of the k-dependent window, in increasing size
    and lexicographic order. Connected graphs only."""
    n = g.n
    if is_complete(g):
        return InvariantResult(n, frozenset(range(n)), "COMPLETE")
    part = twin_classes(g)
    extreme_cls = extreme_twin_classes(g, part)
    k = len(extreme_cls)
    base = frozenset().union(*(part.classes[i] for i in extreme_cls))
    base_mask = mask_of(base)
    lo, hi = {0: (2, 8), 1: (1, 5), 2: (0, 2)}[k]
    extra_pool = sorted(set(range(n)) - base)
    for size in range(lo, hi + 1):
        for extra in combinations(extra_pool, size):
            smask = base_mask | mask_of(extra)
            if _interval_mask(g, smask) == g._full:
                return InvariantResult(len(base) + size, base | frozenset(extra), f"WTN_K{k}")
    raise InternalConsistencyError(
        f"no weakly toll interval set found in the k={k} search window"
    )


def reference_wtn_twin_filter(g):
    """wtn by the completion search over every extra subset of the window,
    skipping those that hold two vertices of one twin class. Connected
    graphs only."""
    n = g.n
    everything = frozenset(range(n))
    if is_complete(g):
        return InvariantResult(n, everything, "COMPLETE")
    part = twin_classes(g)
    extreme_cls = extreme_twin_classes(g, part)
    k = len(extreme_cls)
    base = frozenset().union(*(part.classes[i] for i in extreme_cls))
    base_mask = mask_of(base)
    lo, hi = {0: (2, 8), 1: (1, 5), 2: (0, 2)}[k]
    extra_pool = sorted(everything - base)
    class_of = {v: i for i, cls in enumerate(part.classes) for v in cls}
    best = None  # (value, witness mask)
    for size in range(lo, hi + 1):
        floor = len(base) + size
        if best is not None and floor >= best[0]:
            break
        for extra in combinations(extra_pool, size):
            if len({class_of[v] for v in extra}) < size:
                continue  # two twins among the extras
            rmask = base_mask | mask_of(extra)
            smask = rmask | (g._full & ~_interval_mask(g, rmask))
            value = smask.bit_count()
            if best is None or value < best[0]:
                best = (value, smask)
                if value == floor:
                    break
    if best is None:
        raise InternalConsistencyError(
            f"no weakly toll interval set found in the k={k} search window"
        )
    return InvariantResult(best[0], frozenset(bits(best[1])), f"WTN_K{k}")



def reference_wth(g):
    """wth as a case analysis over the decomposition's vertex sets, each
    branch verifying its own witness: the set-based helpers pick the
    anchored pair and the two-extremal choices with ``is_clique`` and
    ``has_edge``. The library's single-exit version over masks must return
    the same value, witness and case tag."""
    _require_connected(g, _DISCONNECTED)
    n = g.n
    if is_complete(g):
        return _reference_verified(g, InvariantResult(n, frozenset(range(n)), "COMPLETE"))
    dec = decompose(g)
    if len(dec.atoms) == 1:
        pair = next(_nonadjacent_pairs(g._masks, g._full), None)
        if pair is None:
            raise InternalConsistencyError("no nonadjacent pair in a non-complete graph")
        return _reference_verified(g, InvariantResult(2, frozenset(pair), "PRIME_PAIR"))
    extremal = [i for i, flag in enumerate(dec.extremal) if flag]
    if len(extremal) < 2:
        raise InternalConsistencyError("reducible graph produced fewer than two extremal atoms")
    if len(extremal) >= 3:
        i, j = extremal[0], extremal[1]
        witness = frozenset({min(dec.exclusive[i]), min(dec.exclusive[j])})
        return _reference_verified(g, InvariantResult(2, witness, "THREE_EXTREMAL"))
    for i in extremal:
        if not is_clique(g, dec.exclusive[i]):
            shared_mask = mask_of(dec.shared[i])
            anchored = mask_of(v for v in dec.exclusive[i] if g._masks[v] & shared_mask)
            for pair in _nonadjacent_pairs(g._masks, anchored):
                return _reference_verified(
                    g, InvariantResult(2, frozenset(pair), "EXCLUSIVE_NOT_CLIQUE")
                )
            raise InternalConsistencyError(
                "non-clique exclusive set yielded no anchored nonadjacent pair"
            )
    i, j = extremal
    u1 = _reference_two_extremal_choice(g, dec.atoms[i], dec.exclusive[i], dec.shared[i])
    u2 = _reference_two_extremal_choice(g, dec.atoms[j], dec.exclusive[j], dec.shared[j])
    x1, x2 = len(dec.exclusive[i]), len(dec.exclusive[j])
    e1, e2 = is_extreme_vertex(g, u1), is_extreme_vertex(g, u2)
    if e1 and e2:
        result = InvariantResult(
            x1 + x2, dec.exclusive[i] | dec.exclusive[j], "TWO_EXTREMAL_BOTH_EXTREME"
        )
    elif e1:
        result = InvariantResult(x1 + 1, dec.exclusive[i] | {u2}, "TWO_EXTREMAL_ONE_EXTREME")
    elif e2:
        result = InvariantResult(x2 + 1, dec.exclusive[j] | {u1}, "TWO_EXTREMAL_ONE_EXTREME")
    else:
        result = InvariantResult(2, frozenset({u1, u2}), "TWO_EXTREMAL_NONE_EXTREME")
    return _reference_verified(g, result)


def _reference_verified(g, result):
    if hull(g, result.witness) != frozenset(range(g.n)):
        raise InternalConsistencyError(
            f"{result.case_tag} witness {sorted(result.witness)} is not a hull set"
        )
    return result


def _reference_two_extremal_choice(g, atom, exclusive, shared):
    if is_clique(g, atom):
        return min(exclusive)
    for v in sorted(exclusive):
        if any(not g.has_edge(v, s) for s in shared):
            return v
    raise InternalConsistencyError(
        "non-complete extremal atom has no exclusive vertex missing a shared neighbor"
    )

def _brute_force(g, covers, cap, tag):
    _require_connected(g, _DISCONNECTED)
    if g.n > cap:
        raise CapExceededError(f"brute force refused: n={g.n} exceeds cap {cap}")
    for size in range(1, g.n + 1):
        for s in combinations(range(g.n), size):
            if covers(g, mask_of(s)):
                return InvariantResult(size, frozenset(s), tag)
    raise InternalConsistencyError("V(G) itself failed to cover the graph")


def brute_force_wtn(g, cap=10):
    """Exact wtn by subset enumeration in increasing cardinality."""
    return _brute_force(
        g, lambda g, smask: _interval_mask(g, smask) == g._full, cap, "BRUTE_FORCE"
    )


def brute_force_wth(g, cap=10):
    """Exact wth by subset enumeration in increasing cardinality."""
    return _brute_force(
        g, lambda g, smask: _hull_mask(g, smask) == g._full, cap, "BRUTE_FORCE"
    )


def reference_bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reference_parse_edge_list(text):
    """The edge-list parser as a line loop over (u, v) tuples."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"expected two integers, got {line!r}", lineno) from None
        if n is None:
            if a < 0 or b < 0:
                raise GraphParseError("header 'n m' must be nonnegative", lineno)
            n = a
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"vertex out of range 0..{n - 1}: {line!r}", lineno)
        if a == b:
            raise GraphParseError(f"self-loop at vertex {a}", lineno)
        edges.append((a, b))
    if n is None:
        raise GraphParseError("empty input: missing 'n m' header")
    return Graph(n, edges)


def reference_is_bare(text):
    """True iff ``text`` is bare: lines of ASCII digits, one space and
    ASCII digits, each ended by ``\n`` but the last, which may lack it."""
    return re.fullmatch(rb"(\d+ \d+\n)*\d+ \d+\n?", text.encode()) is not None


def reference_to_edge_list(g, comments=()):
    """The edge-list writer over ``g.edges()``: one ``# `` line per
    ``splitlines`` piece of each comment, the header ``n m``, one
    ``u v`` line per edge, and a final newline."""
    lines = [f"# {piece}" for c in comments for piece in c.splitlines() or [""]]
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _reference_g6_decode_size(data):
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise GraphParseError("truncated graph6 size field")
        n = 0
        for c in data[2:8]:
            n = (n << 6) | (c - 63)
        return n, data[8:]
    if len(data) < 4:
        raise GraphParseError("truncated graph6 size field")
    n = 0
    for c in data[1:4]:
        n = (n << 6) | (c - 63)
    return n, data[4:]


def reference_parse_graph6(line):
    """The graph6 decoder that tests each bit with a shift of the whole stream."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 input")
    data = s.encode("ascii", errors="replace")
    if any(c < 63 or c > 126 for c in data):
        raise GraphParseError("invalid graph6 character")
    n, body = _reference_g6_decode_size(data)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}"
        )
    bitstream = 0
    for c in body:
        bitstream = (bitstream << 6) | (c - 63)
    total = 6 * len(body)
    if nbits < total and bitstream & ((1 << (total - nbits)) - 1):
        raise GraphParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream >> (total - 1 - idx) & 1:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def reference_fingerprint(g):
    """sha256 prefix of "n;u,v;..." over the edges (u < v) in sorted order."""
    edges = [
        (u, v)
        for u, mask in enumerate(g._masks)
        for v in bits(mask >> (u + 1) << (u + 1))
    ]
    payload = f"{g.n};" + ";".join(f"{u},{v}" for u, v in edges)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def reference_wtc_exhaustive(g):
    """wtc by one convexity test per subset, in decreasing size and
    lexicographic order. Connected graphs on at least 2 vertices; no cap."""
    n = g.n
    if is_complete(g):
        return InvariantResult(n - 1, frozenset(range(n - 1)), "COMPLETE")
    if is_prime(g):
        clique = reference_max_clique(g)
        return InvariantResult(len(clique), clique, "PRIME_MAX_CLIQUE")
    for size in range(n - 1, 0, -1):
        for s in combinations(range(n), size):
            if is_convex(g, s):
                return InvariantResult(size, frozenset(s), "EXHAUSTIVE")
    raise InternalConsistencyError("no proper convex subset found; singletons are convex")


def reference_max_clique(g):
    """Maximum clique by the recursive branch and bound: the root order is
    descending degree, then id; each node colours its candidates first
    fit, in candidate order, and branches on them from the last colour
    class down, cutting once the colour bound cannot beat the best."""
    n = g.n
    if n == 0:
        return frozenset()
    masks = g._masks
    best = ()

    def color_sort(cand):
        # ordered: vertices grouped by greedy color class; bound[i] = class no.
        class_masks = []
        class_members = []
        for v in cand:
            for k, cm in enumerate(class_masks):
                if not cm & masks[v]:
                    class_masks[k] |= 1 << v
                    class_members[k].append(v)
                    break
            else:
                class_masks.append(1 << v)
                class_members.append([v])
        ordered = []
        bound = []
        for k, members in enumerate(class_members):
            ordered.extend(members)
            bound.extend([k + 1] * len(members))
        return ordered, bound

    def expand(r, cand):
        nonlocal best
        ordered, bound = color_sort(cand)
        for i in range(len(ordered) - 1, -1, -1):
            if len(r) + bound[i] <= len(best):
                return
            v = ordered[i]
            r.append(v)
            sub = [u for u in ordered[:i] if masks[v] >> u & 1]
            if sub:
                expand(r, sub)
            elif len(r) > len(best):
                best = tuple(r)
            r.pop()

    root = sorted(range(n), key=lambda v: (-g.degree(v), v))
    expand([], root)
    return frozenset(best)


def reference_first_convex(g, chosen, union, start, left):
    """Mask of the lexicographically first convex set that adds ``left``
    members from ``start`` upwards to ``chosen``, else None, by recursion.

    ``union`` is the union of the walk masks of the nonadjacent pairs of
    ``chosen``, whose members all lie below ``start``; the whole search
    for size s starts at ``(g, 0, 0, 0, s)``.
    """
    masks = g._masks
    stop = g.n - left
    pending = union & ~chosen
    if pending:
        stop = min(stop, (pending & -pending).bit_length() - 1)
    for v in range(start, stop + 1):
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
        found = reference_first_convex(g, taken, walks, v + 1, left - 1)
        if found is not None:
            return found
    return None
