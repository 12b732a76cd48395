"""The weakly toll interval number wtn(G) and hull number wth(G).

Both solvers are case analyses over structure computed elsewhere: wtn
searches a bounded window around the twin classes of extreme vertices,
wth branches on the clique separator decomposition. Each result carries a
witness set and the case tag naming the branch that fired. wth verifies
its witness (H(witness) = V) before returning it. wtn's witness covers V
by construction, so it is not recomputed: the witness is
S = R + (V - I(R)) for a candidate R, and I is extensive and monotone, so
I(S) contains I(R) + S = V.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .atoms import decompose
from .errors import InternalConsistencyError
from .graph import (
    Graph, _nonadjacent_pairs, _require_connected, bits, is_clique, is_complete, mask_of
)
from .intervals import _interval_mask, hull, is_extreme_vertex
from .twins import extreme_twin_classes, twin_classes

__all__ = ["InvariantResult", "wtn", "wth"]


class InvariantResult(NamedTuple):
    """A computed invariant with its certifying set and solver branch."""

    value: int
    witness: frozenset[int]
    case_tag: str


_DISCONNECTED = "invariant is defined for connected graphs only"


# ---------------------------------------------------------------------------
# interval number
# ---------------------------------------------------------------------------

def wtn(g: Graph) -> InvariantResult:
    """Minimum size of a set S with I(S) = V, with witness and case tag.

    Complete graphs force S = V. Otherwise, with k the number of twin
    classes consisting of extreme vertices (k <= 2), the union of those
    classes is forced into S and the search only has to try bounded
    complements: total candidate size up to 8 for k = 0, up to 5 extras
    for k = 1, up to 2 extras for k = 2. Candidates are explored in
    increasing size and lexicographic order, so the result is
    deterministic.

    Extras are drawn from a pool of one vertex per twin class outside the
    forced set, the class's least member, and every candidate R is
    completed to R + (V - I(R-with-base)): because I(S) = S + I(S-hat),
    each interval set shrinks onto such a completion, so scanning
    representatives plus completions still finds the exact minimum while
    skipping the bulk of the subset space. The pool loses nothing:
    swapping true twins is an automorphism and the forced set is a union
    of whole classes, so replacing each extra by its class's least member
    gives a candidate of the same size, no later in lexicographic order,
    whose completion has the same size. The tests check the value against
    the literal search over all bounded extras, and the whole result
    against the search over every twin-free set of extras.
    """
    _require_connected(g, _DISCONNECTED)
    n = g.n
    if is_complete(g):
        return InvariantResult(n, frozenset(range(n)), "COMPLETE")

    part = twin_classes(g)
    extreme_cls = extreme_twin_classes(g, part)
    k = len(extreme_cls)
    base_mask = mask_of(v for i in extreme_cls for v in part.classes[i])
    # classes are ordered by least member, so the pool is ascending
    pool = [min(cls) for i, cls in enumerate(part.classes) if i not in extreme_cls]
    lo, hi = {0: (2, 8), 1: (1, 5), 2: (0, 2)}[k]
    tag = f"WTN_K{k}"

    best: tuple[int, int] | None = None  # (value, witness mask)
    for size in range(lo, hi + 1):
        floor = base_mask.bit_count() + size
        if best is not None and floor >= best[0]:
            break
        for extra in combinations(pool, size):
            rmask = base_mask | mask_of(extra)
            smask = rmask | (g._full & ~_interval_mask(g, rmask))
            value = smask.bit_count()
            if best is None or value < best[0]:
                best = (value, smask)
                if value == floor:
                    break  # nothing at this size can beat an empty completion
    if best is None:
        raise InternalConsistencyError(
            f"no weakly toll interval set found in the k={k} search window"
        )
    return InvariantResult(best[0], frozenset(bits(best[1])), tag)


# ---------------------------------------------------------------------------
# hull number
# ---------------------------------------------------------------------------

def wth(g: Graph) -> InvariantResult:
    """Minimum size of a set S with H(S) = V, with witness and case tag.

    Branches, in order: complete graph; prime graph (any nonadjacent pair
    works); at least three extremal atoms; an extremal atom whose
    exclusive set is not a clique; and finally exactly two extremal atoms
    with clique exclusive sets, where the answer depends on which of two
    canonically chosen exclusive vertices are extreme. Every witness is
    verified by computing its hull before returning.
    """
    _require_connected(g, _DISCONNECTED)
    n = g.n
    if is_complete(g):
        return _verified(g, InvariantResult(n, frozenset(range(n)), "COMPLETE"))

    dec = decompose(g)
    if len(dec.atoms) == 1:
        pair = next(_nonadjacent_pairs(g._masks, g._full), None)
        if pair is None:
            raise InternalConsistencyError("no nonadjacent pair in a non-complete graph")
        return _verified(g, InvariantResult(2, frozenset(pair), "PRIME_PAIR"))

    extremal = [i for i, flag in enumerate(dec.extremal) if flag]
    if len(extremal) < 2:
        raise InternalConsistencyError(
            "reducible graph produced fewer than two extremal atoms"
        )

    if len(extremal) >= 3:
        i, j = extremal[0], extremal[1]
        witness = frozenset({min(dec.exclusive[i]), min(dec.exclusive[j])})
        return _verified(g, InvariantResult(2, witness, "THREE_EXTREMAL"))

    for i in extremal:
        if not is_clique(g, dec.exclusive[i]):
            pair = _nonclique_exclusive_pair(g, dec.exclusive[i], dec.shared[i])
            return _verified(
                g, InvariantResult(2, frozenset(pair), "EXCLUSIVE_NOT_CLIQUE")
            )

    i, j = extremal
    u1 = _two_extremal_choice(g, dec.atoms[i], dec.exclusive[i], dec.shared[i])
    u2 = _two_extremal_choice(g, dec.atoms[j], dec.exclusive[j], dec.shared[j])
    x1, x2 = len(dec.exclusive[i]), len(dec.exclusive[j])
    e1, e2 = is_extreme_vertex(g, u1), is_extreme_vertex(g, u2)
    if e1 and e2:
        result = InvariantResult(
            x1 + x2, dec.exclusive[i] | dec.exclusive[j], "TWO_EXTREMAL_BOTH_EXTREME"
        )
    elif e1:
        result = InvariantResult(
            x1 + 1, dec.exclusive[i] | {u2}, "TWO_EXTREMAL_ONE_EXTREME"
        )
    elif e2:
        result = InvariantResult(
            x2 + 1, dec.exclusive[j] | {u1}, "TWO_EXTREMAL_ONE_EXTREME"
        )
    else:
        result = InvariantResult(2, frozenset({u1, u2}), "TWO_EXTREMAL_NONE_EXTREME")
    return _verified(g, result)


def _verified(g: Graph, result: InvariantResult) -> InvariantResult:
    if hull(g, result.witness) != frozenset(range(g.n)):
        raise InternalConsistencyError(
            f"{result.case_tag} witness {sorted(result.witness)} is not a hull set"
        )
    return result


def _nonclique_exclusive_pair(
    g: Graph, exclusive: frozenset[int], shared: frozenset[int]
) -> tuple[int, int]:
    # candidates per the separator structure: exclusive vertices with a
    # neighbor in the atom's shared clique; a nonadjacent pair among them
    # always exists when the exclusive set is not a clique
    masks = g._masks
    shared_mask = mask_of(shared)
    anchored = mask_of(v for v in exclusive if masks[v] & shared_mask)
    for pair in _nonadjacent_pairs(masks, anchored):
        return pair
    raise InternalConsistencyError(
        "non-clique exclusive set yielded no anchored nonadjacent pair"
    )


def _two_extremal_choice(
    g: Graph, atom: frozenset[int], exclusive: frozenset[int], shared: frozenset[int]
) -> int:
    if is_clique(g, atom):
        return min(exclusive)
    for v in sorted(exclusive):
        if any(not g.has_edge(v, s) for s in shared):
            return v
    raise InternalConsistencyError(
        "non-complete extremal atom has no exclusive vertex missing a shared neighbor"
    )
