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
from .errors import CapExceededError, InternalConsistencyError
from .graph import (
    Graph, _is_clique_mask, _nonadjacent_pairs, _require_connected, bits, is_complete, mask_of
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

# Candidates wtn's general window search may try before it refuses (exit 4
# in the CLI). That covers the whole size-2 and size-3 window of a k = 0
# graph whose pool has 100 vertices: 166,650 candidates, about 1 s on a
# 2-vCPU VM with Python 3.11. The largest search in the tests, the demos
# and the benchmark pools tries 36.
_WTN_CANDIDATE_BUDGET = 200_000


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

    For k = 0 a covering pair is first sought among the pairs whose
    endpoints have no dominated neighbor. Lemma: if u has a neighbor z
    with N[z] contained in N[u], no pair {u, w} covers V. Proof: z is a
    neighbor of u, so a weakly toll (u, w)-walk can hold z only as u_1.
    Then u_2 lies in N(z), inside N[u], and can only be u (any other
    neighbor of u would also have to be u_1); likewise u_3 = z, and so
    on, so the walk alternates between u and z and never reaches w, which
    lies outside N[u]. So z is not in I({u, w}). The same holds from w's
    end. The witness cannot change: the size-2 scan returns the first
    pair in lexicographic order whose completion reaches the floor of 2,
    that is the first pair with I({u, w}) = V, and the skipped pairs are
    exactly pairs that cannot reach it. When no pair passes, the general
    search below runs unchanged, reusing the memoized walk masks.

    The general search tries at most ``_WTN_CANDIDATE_BUDGET`` candidates
    and raises :class:`CapExceededError` past it instead of running on.
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
    if k == 0:
        pair = _covering_pair(g, mask_of(pool))
        if pair is not None:
            return InvariantResult(2, frozenset(pair), "WTN_K0")
    lo, hi = {0: (2, 8), 1: (1, 5), 2: (0, 2)}[k]
    tag = f"WTN_K{k}"

    best: tuple[int, int] | None = None  # (value, witness mask)
    tried = 0
    for size in range(lo, hi + 1):
        floor = base_mask.bit_count() + size
        if best is not None and floor >= best[0]:
            break
        for extra in combinations(pool, size):
            tried += 1
            if tried > _WTN_CANDIDATE_BUDGET:
                raise CapExceededError(
                    f"wtn refused: the k={k} search window needs more than "
                    f"{_WTN_CANDIDATE_BUDGET} candidates (budget reached at size {size})"
                )
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


def _covering_pair(g: Graph, pool_mask: int) -> tuple[int, int] | None:
    """The first nonadjacent pair (u, w) of ``pool_mask`` in lexicographic
    order with I({u, w}) = V, among the pairs whose endpoints have no
    dominated neighbor (see :func:`wtn`); None if there is none.

    Each vertex is tested once, when the scan first reaches it, and a
    pair's walk mask is computed only when both endpoints pass.
    """
    masks, full = g._masks, g._full
    passes: dict[int, bool] = {}
    for u in bits(pool_mask):
        if u not in passes:
            passes[u] = _no_dominated_neighbor(masks, u)
        if not passes[u]:
            continue
        for w in bits(pool_mask & ~masks[u] & ~((2 << u) - 1)):  # non-neighbors above u
            if w not in passes:
                passes[w] = _no_dominated_neighbor(masks, w)
            if passes[w] and _interval_mask(g, (1 << u) | (1 << w)) == full:
                return u, w
    return None


def _no_dominated_neighbor(masks: tuple[int, ...], v: int) -> bool:
    """True iff no neighbor z of v has N[z] inside N[v]."""
    closed = masks[v] | (1 << v)
    return all(masks[z] & ~closed for z in bits(masks[v]))


# ---------------------------------------------------------------------------
# hull number
# ---------------------------------------------------------------------------

def wth(g: Graph) -> InvariantResult:
    """Minimum size of a set S with H(S) = V, with witness and case tag.

    Branches, in order: complete graph; prime graph (any nonadjacent pair
    works); at least three extremal atoms; an extremal atom whose
    exclusive set is not a clique; and finally exactly two extremal atoms
    with clique exclusive sets, where the answer depends on which of two
    canonically chosen exclusive vertices are extreme. Whichever branch
    fires, its witness is checked once, here, by computing its hull.
    """
    _require_connected(g, _DISCONNECTED)
    result = _wth_case(g)
    if hull(g, result.witness) != frozenset(range(g.n)):
        raise InternalConsistencyError(
            f"{result.case_tag} witness {sorted(result.witness)} is not a hull set"
        )
    return result


def _wth_case(g: Graph) -> InvariantResult:
    """The result of the first :func:`wth` branch that fires, unchecked."""
    n, masks = g.n, g._masks
    if is_complete(g):
        return InvariantResult(n, frozenset(range(n)), "COMPLETE")

    dec = decompose(g)
    if len(dec.atoms) == 1:
        pair = next(_nonadjacent_pairs(masks, g._full), None)
        if pair is None:
            raise InternalConsistencyError("no nonadjacent pair in a non-complete graph")
        return InvariantResult(2, frozenset(pair), "PRIME_PAIR")

    extremal = [i for i, flag in enumerate(dec.extremal) if flag]
    if len(extremal) < 2:
        raise InternalConsistencyError(
            "reducible graph produced fewer than two extremal atoms"
        )
    excl = [mask_of(dec.exclusive[i]) for i in extremal[:2]]
    if len(extremal) >= 3:
        lowest = frozenset((e & -e).bit_length() - 1 for e in excl)
        return InvariantResult(2, lowest, "THREE_EXTREMAL")

    shared = [mask_of(dec.shared[i]) for i in extremal]
    for e, s in zip(excl, shared):
        if not _is_clique_mask(masks, e):
            # exclusive vertices with a neighbor in the atom's shared clique;
            # a nonadjacent pair among them always exists when the
            # exclusive set is not a clique
            anchored = mask_of(v for v in bits(e) if masks[v] & s)
            pair = next(_nonadjacent_pairs(masks, anchored), None)
            if pair is None:
                raise InternalConsistencyError(
                    "non-clique exclusive set yielded no anchored nonadjacent pair"
                )
            return InvariantResult(2, frozenset(pair), "EXCLUSIVE_NOT_CLIQUE")

    # each atom's choice: the least exclusive vertex missing a shared
    # neighbor, or else, in a clique atom, the least exclusive vertex
    choice = []
    for i, e, s in zip(extremal, excl, shared):
        v = next((v for v in bits(e) if s & ~masks[v]), None)
        if v is None:
            if not _is_clique_mask(masks, mask_of(dec.atoms[i])):
                raise InternalConsistencyError(
                    "non-complete extremal atom has no exclusive vertex missing a shared neighbor"
                )
            v = (e & -e).bit_length() - 1
        choice.append(v)
    u1, u2 = choice
    e1, e2 = is_extreme_vertex(g, u1), is_extreme_vertex(g, u2)
    if e1 and e2:
        witness, tag = excl[0] | excl[1], "TWO_EXTREMAL_BOTH_EXTREME"
    elif e1 or e2:
        witness = excl[0] | 1 << u2 if e1 else excl[1] | 1 << u1
        tag = "TWO_EXTREMAL_ONE_EXTREME"
    else:
        witness, tag = 1 << u1 | 1 << u2, "TWO_EXTREMAL_NONE_EXTREME"
    return InvariantResult(witness.bit_count(), frozenset(bits(witness)), tag)
