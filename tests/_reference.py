"""Reference implementations of the walk-membership kernel for the tests.

These are the straightforward per-(v_u, v_w) versions of the component
criterion: one component sweep of G minus the blocked set for every
neighbor pair. The library's base-labelling kernel must agree with them
bit for bit.
"""

from wtoll.graph import _check_subset, bits, component_mask
from wtoll.intervals import MembershipWitness, in_weakly_toll_walk


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
