"""Simple undirected graphs over dense vertex ids 0..n-1.

Adjacency is stored once, as one int neighbor mask per vertex (bit i =
vertex i), so neighborhood and component operations reduce to
word-parallel integer arithmetic. Neighbor sets, degrees and edge lists
are read off the masks on demand. A Graph's adjacency never changes
after construction, so what is computed from it can be kept on it. It
has three mutable slots, all memos: ``_pair_cache``, filled by
:mod:`wtoll.intervals`, holds at most one walk mask per nonadjacent pair,
``_derived`` holds at most one entry per kind of whole-graph result, the
atom decomposition (:func:`wtoll.atoms.decompose`), the extreme set
(:func:`wtoll.intervals.extreme_vertices`) and the report hash
(:meth:`Graph.fingerprint`, which the edge-list reader stores itself when
it proves the text canonical), all immutable values, and ``_connected``
is set by ``_require_connected`` once the graph has passed it, so the
functions defined only on connected graphs search it once between them.
Every other function here is pure. Canonical edge lines are made in one
place, :func:`_edge_lines`, which the writer and the report hash share.
The edge-list reader knows bare text by its skeleton, one space and one
``\n`` per line once the digits are deleted, and its split, two tokens
per line. It reads dense canonical bare text by rows, other bare text
per edge, proving its order as it goes, and any other text by a line
loop that names the first bad line.
"""

from __future__ import annotations

import hashlib
from itertools import groupby, islice
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, DisconnectedGraphError, GraphParseError

__all__ = [
    "Graph",
    "parse_edge_list",
    "to_edge_list",
    "parse_graph6",
    "to_graph6",
    "is_connected",
    "is_clique",
    "is_complete",
    "max_clique",
]


# The largest vertex count either parser accepts, checked against the
# edge-list header and the graph6 size field before anything of size n is
# allocated. Every analysis is at least quadratic in n, so a larger graph
# is far out of reach, and a stray header such as "1000000000 0" must not
# allocate 10^9 masks.
MAX_VERTICES = 100_000


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# bits(m) for every m below 2^_SMALL_BITS, as a stored tuple: entry m is
# the ascending bit positions of m. Built by doubling; 1,024 tuples, about
# 88 KB. Every mask of a graph on at most 10 vertices is below the bound.
_SMALL_BITS = 10
_SMALL_MASKS = 1 << _SMALL_BITS
_BITS_TABLE: list[tuple[int, ...]] = [()]
for _b in range(_SMALL_BITS):
    _BITS_TABLE += [t + (_b,) for t in _BITS_TABLE]
del _b


def bits(mask: int) -> Iterable[int]:
    """The set bit positions of a nonnegative ``mask``, in ascending order.

    Returns an iterable, not an iterator: a mask below 2^10 gives a tuple
    from a table built at import (the same object on every call), and a
    larger one a lazy generator. Take the lowest bit as
    ``(mask & -mask).bit_length() - 1``, not with ``next``.
    """
    if mask < _SMALL_MASKS:
        return _BITS_TABLE[mask]
    return _bits_from(mask)


def _bits_from(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component_mask(masks: Sequence[int], allowed: int, start: int) -> int:
    """Mask of vertices reachable from ``start`` without leaving ``allowed``.

    ``start`` must itself be inside ``allowed``.
    """
    comp = 1 << start
    frontier = comp
    while frontier:
        reach = 0
        f = frontier
        while f:
            low = f & -f
            reach |= masks[low.bit_length() - 1]
            f ^= low
        frontier = reach & allowed & ~comp
        comp |= frontier
    return comp


class Graph:
    """Finite simple undirected graph with vertices 0..n-1."""

    __slots__ = ("n", "m", "_masks", "_full", "_pair_cache", "_derived", "_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adopt(n, masks)

    @classmethod
    def _from_masks(cls, n: int, masks: Sequence[int]) -> Graph:
        """Graph on 0..n-1 with these neighbor masks, taken as they are.

        The caller guarantees n masks, symmetric, with no bit at or above
        n and none on the diagonal.
        """
        g = cls.__new__(cls)
        g._adopt(n, masks)
        return g

    def _adopt(self, n: int, masks: Sequence[int]) -> None:
        self.n = n
        self._masks: tuple[int, ...] = tuple(masks)
        self._full = (1 << n) - 1
        self.m = sum(map(int.bit_count, self._masks)) // 2
        # lazily filled by wtoll.intervals; maps a nonadjacent pair (u, w)
        # with u < w to the mask of vertices on weakly toll (u, w)-walks
        self._pair_cache: dict[tuple[int, int], int] = {}
        # lazily filled by wtoll.atoms, wtoll.intervals, fingerprint and the
        # edge-list reader; maps the name of the function that computed a
        # whole-graph result to that result: "decompose" to its
        # AtomDecomposition, "extreme_vertices" to its frozenset,
        # "fingerprint" to its str
        self._derived: dict[str, object] = {}
        # set by _require_connected once the graph has passed its test
        self._connected = False

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(bits(self._masks[v]))

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self._masks[u] >> v & 1 == 1

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v."""
        return [
            (u, v)
            for u, mask in enumerate(self._masks)
            for v in bits(mask >> (u + 1) << (u + 1))  # the neighbors above u
        ]

    def fingerprint(self) -> str:
        """Stable short hash of the adjacency structure.

        The sha256 prefix of ``"n;u,v;u,v;..."`` over :meth:`edges` in
        order (:func:`_text_hash` of :func:`_edge_lines`), made once per
        graph and stored in ``_derived``. The edge-list reader stores it
        first when it proves the text to be these lines, by rows
        (:func:`_dense_masks`) or per edge (:func:`_masks_per_edge` and
        :func:`_zero_padded`); then no line is built from the masks.
        """
        stored = self._derived.get("fingerprint")
        if stored is not None:
            return stored
        fp = self._derived["fingerprint"] = _text_hash(self.n, _edge_lines(self).encode())
        return fp

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

_DIGITS = b"0123456789"

# bytes.translate table taking canonical edge lines to the fingerprint
# payload: "u v\nu v" to "u,v;u,v"
_PAYLOAD_BYTES = bytes.maketrans(b" \n", b",;")


def _edge_lines(g: Graph) -> str:
    """The canonical edge lines of ``g``: ``"u v"`` per edge of
    :meth:`Graph.edges`, in its order, joined by ``"\\n"``, with each
    vertex's name made once, not formatted per edge."""
    names = list(map(str, range(g.n)))
    heads = [name + " " for name in names]
    return "\n".join([
        heads[u] + names[v]
        for u, mask in enumerate(g._masks)
        for v in bits(mask >> (u + 1) << (u + 1))  # the neighbors above u
    ])


def _text_hash(n: int, lines: bytes) -> str:
    """The report hash of the canonical edge lines ``lines`` of a graph
    on n vertices (:func:`_edge_lines`): the sha256 prefix of the payload
    ``"n;u,v;u,v;..."``, which is the lines with ``","`` and ``";"`` for
    ``" "`` and ``"\\n"``."""
    return hashlib.sha256(b"%d;" % n + lines.translate(_PAYLOAD_BYTES)).hexdigest()[:16]


def parse_edge_list(text: str) -> Graph:
    r"""Parse the plain edge-list format.

    The first non-comment line is ``n m``; every following line is an edge
    ``u v`` with ``0 <= u, v < n`` and ``u != v``. Lines starting with ``#``
    and blank lines are ignored. Parallel edges collapse silently;
    self-loops are a hard error, and so is ``n`` above :data:`MAX_VERTICES`.

    Bare text, the "u v\n" lines of plain decimal ids :func:`to_edge_list`
    writes, is read in bulk (:func:`_parse_plain_edge_list`), and when its
    edge lines are the graph's own (:func:`_edge_lines`) the report hash
    is taken from the text and stored. Anything else (comments, blank
    lines, tabs, runs of blanks, other whitespace, signs, a bad line) goes
    through the line loop, which reports the first bad line by number and
    stores no hash; so does text the bulk read refuses.
    """
    if text.isascii():
        g = _parse_plain_edge_list(text.encode("ascii"))
        if g is not None:
            return g
    return _parse_edge_list_lines(text)


def _dense_masks(n: int, tokens: list[bytes]) -> list[int] | None:
    """The neighbor masks of the bare edge lines ``tokens``, read by rows,
    if the lines are canonical (:func:`_edge_lines`); else None.

    Row u is the sum of ``1 << v`` over the lines "u v", and mask v is
    row v OR column v of the rows. Tokens are looked up in one table made
    with no Python call per entry, ``powers`` (the name of v to
    ``1 << v``), so a token that is not a name as written, such as
    ``b"007"``, raises ``KeyError``. The lines are read in runs that
    share a first token u: each run must lie above the last, and its
    powers must ascend from above ``1 << u`` with none repeated, their
    sum having as many bits as the run has lines. A repeated line, a line
    "v u" or lines out of order fail their run.
    """
    powers = dict(zip(map(b"%d".__mod__, range(n)), map((1).__lshift__, range(n))))
    tails = list(map(powers.__getitem__, tokens[1::2]))
    rows = [0] * n
    start, last = 0, -1  # the lines before start are in the rows
    for head, lines in groupby(islice(tokens, 0, None, 2)):
        u = powers[head].bit_length() - 1
        end = start + len(list(lines))
        run = tails[start:end]
        row = sum(run)
        if not (last < u and run[0] >> u > 1 and row.bit_count() == len(run)
                and run == sorted(run)):
            return None
        rows[u] = row
        last, start = u, end
    # Row u as n binary digits holds bit v at index n - 1 - v. With the
    # rows joined from n - 1 down to 0, the digits at n - 1 - v, 2n - 1 - v,
    # ... are bit v of rows n - 1, n - 2, ..., 0: column v, highest first.
    digits = "".join(map(f"{{:0{n}b}}".format, reversed(rows)))
    return [row | int(digits[n - 1 - v::n], 2) for v, row in enumerate(rows)]


def _masks_per_edge(n: int, ids: Iterable[int]) -> tuple[list[int], bool]:
    """The neighbor masks of the edges (ids[0], ids[1]), (ids[2], ids[3]), ...,
    and whether those edges are in canonical order (:func:`_edge_lines`).

    Both masks of an edge are loaded before either shift, so an id at or
    above n raises ``IndexError`` before ``1 << id`` is made: a stray id
    such as 10**14 would otherwise ask for a 12 TB integer.

    The order is proved as the edges stream, with no list of ids: an edge
    (u, v) keeps it iff u is at least the previous edge's u, v > u, and
    u's mask so far is below ``1 << v``. Its bits below u come from edges
    (w, u) with w < u; one at v or above would be an earlier edge (u, v')
    with v' >= v, so a repeated edge, an edge written (v, u) and two edges
    out of order each break it.
    """
    masks = [0] * n
    pairs = iter(ids)
    last = 0
    ordered = True
    for u, v in zip(pairs, pairs):
        mu, mv = masks[u], masks[v]
        bit = 1 << v
        if mu >= bit or not last <= u < v:
            ordered = False
        masks[u] = mu | bit
        masks[v] = mv | 1 << u
        last = u
    return masks, ordered


# bytes.translate table for the zero-padding test of per-edge text: every
# nonzero digit to "1" and the space to "\n", so a name written with a
# leading zero reads "\n00" or "\n01" (or starts the text so)
_PADDING_BYTES = bytes.maketrans(b"123456789 ", b"111111111\n")


def _zero_padded(lines: bytes) -> bool:
    """True iff some name in the bare edge lines ``lines`` has a leading
    zero (``07``), which canonical text never writes."""
    flat = lines.translate(_PADDING_BYTES)
    return flat.startswith((b"00", b"01")) or b"\n00" in flat or b"\n01" in flat


def _parse_plain_edge_list(data: bytes) -> Graph | None:
    r"""Bulk parse of bare text, k lines of digits, one space, digits,
    split by ``\n`` (the last one may lack it); None if the text is not
    bare or the line loop must decide (a vertex count over the limit, a
    number too long for ``int``, a token the rows' table lacks, an
    endpoint out of range, a self-loop).

    With the digits deleted (and a last ``\n`` supplied) bare text reads
    ``" \n"`` once per line, and its split gives two tokens per line; a
    line with one number, or none, beside its space gives fewer.

    Dense text, with at least 16 tokens per vertex and n² at most twice
    its length, goes to the rows (:func:`_dense_masks`): one sum per run
    of lines that share a first endpoint and one transposition of the
    rows as binary digits, in place of two shifts and two ORs per edge.
    The second bound keeps the powers of two (at most n²/16 bytes) and
    the digits (about 3n² bytes) below the size of the token list. Other
    text is read per edge, each token converted by ``int`` as it streams
    into :func:`_masks_per_edge`, so a sparse file with a large n builds
    no table of n names; that loop proves the edge order as it goes.

    What the rows read is canonical, and so is per-edge text in canonical
    order with no zero-padded name (:func:`_zero_padded`, one translate
    of the text, run once the token list is freed). For canonical text
    the report hash is one sha256 of the text after the header, stored
    in ``_derived`` for :meth:`Graph.fingerprint`.
    """
    skeleton = data.translate(None, _DIGITS)
    if not data.endswith(b"\n"):
        skeleton += b"\n"
    if skeleton != b" \n" * (len(skeleton) >> 1):
        return None
    size = len(skeleton)  # two per line, as many as the tokens of bare text
    del skeleton  # before the token list
    # the split is made here so that ``del tokens`` below frees the list
    tokens = data.split()  # bytes tokens are smaller than str ones
    if len(tokens) != size:
        return None
    head = tokens[:2]
    del tokens[:2]
    rows = None
    try:
        n, _ = map(int, head)
        if n > MAX_VERTICES:
            return None
        if len(tokens) >= 16 * n and n * n <= 2 * len(data):
            # from 16 tokens per vertex the rows, which read canonical text
            # only, cost less than two shifts and two ORs per edge
            rows = _dense_masks(n, tokens)
        if rows is None:
            masks, canonical = _masks_per_edge(n, map(int, tokens))
        else:
            masks, canonical = rows, True
    except (IndexError, KeyError, ValueError):  # out of range, not a name, too long
        return None
    del tokens  # before the copies of the text below
    if any(mask >> u & 1 for u, mask in enumerate(masks)):
        return None  # a self-loop
    g = Graph._from_masks(n, masks)
    if canonical:
        # the header's own text and the last "\n" drop out
        lines = data.partition(b"\n")[2].removesuffix(b"\n")
        # the rows' table holds no padded name; the per-edge read's int does
        if rows is not None or not _zero_padded(lines):
            g._derived["fingerprint"] = _text_hash(n, lines)
    return g


def _parse_edge_list_lines(text: str) -> Graph:
    n = None
    masks: list[int] = []
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
            if a > MAX_VERTICES:
                raise GraphParseError(
                    f"vertex count {a} exceeds the limit of {MAX_VERTICES}", lineno
                )
            n = a
            masks = [0] * n
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"vertex out of range 0..{n - 1}: {line!r}", lineno)
        if a == b:
            raise GraphParseError(f"self-loop at vertex {a}", lineno)
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    if n is None:
        raise GraphParseError("empty input: missing 'n m' header")
    return Graph._from_masks(n, masks)


def to_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    """Serialize to the edge-list format (re-parsing yields an equal graph).

    Each comment is written as one ``# `` line per piece that
    ``str.splitlines`` (which the parser's line loop also splits by) cuts
    it into, so a line break inside a comment cannot start a data line.
    The header ``n m`` and the edge lines (:func:`_edge_lines`) follow.
    """
    lines = [f"# {piece}" for c in comments for piece in c.splitlines() or [""]]
    lines.append(f"{g.n} {g.m}")
    if g.m:
        lines.append(_edge_lines(g))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 format (bit-packed upper triangle, standard encoding)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_decode_size(data: bytes) -> tuple[int, bytes]:
    """The vertex count and the body: one byte below 126, else ``~`` and
    three bytes, or ``~~`` and six."""
    if data[0] != 126:
        return data[0] - 63, data[1:]
    start = 2 if data[1:2] == b"~" else 1
    end = 4 * start
    if len(data) < end:
        raise GraphParseError("truncated graph6 size field")
    n = 0
    for c in data[start:end]:
        n = (n << 6) | (c - 63)
    return n, data[end:]


def _g6_encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    return bytes([126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)])


# graph6 character c - 63 as six binary digits, indexed by the byte c
_G6_SIX_BITS = ("",) * 63 + tuple(format(c, "06b") for c in range(64))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6-encoded graph (optional ``>>graph6<<`` header).

    The body is the upper triangle column by column: column v holds the
    bits of (0, v), (1, v), ..., (v - 1, v), so each column is read as one
    v-bit slice of the body's binary digits.
    """
    s = line.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 input")
    # checked before encoding: a replaced character would read as "?", a
    # valid all-zero sextet
    if not s.isascii():
        raise GraphParseError("invalid graph6 character")
    data = s.encode("ascii")
    if any(c < 63 or c > 126 for c in data):
        raise GraphParseError("invalid graph6 character")
    n, body = _g6_decode_size(data)
    if n > MAX_VERTICES:
        raise GraphParseError(f"graph6 vertex count {n} exceeds the limit of {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}"
        )
    digits = "".join(map(_G6_SIX_BITS.__getitem__, body))
    if "1" in digits[nbits:]:
        raise GraphParseError("nonzero padding bits in graph6 body")
    masks = [0] * n
    start = 0
    for v in range(1, n):
        column = digits[start:start + v]
        start += v
        bit = 1 << v
        u = column.find("1")
        while u >= 0:
            masks[u] |= bit
            masks[v] |= 1 << u
            u = column.find("1", u + 1)
    return Graph._from_masks(n, masks)


def to_graph6(g: Graph) -> str:
    """Encode in graph6 (inverse of :func:`parse_graph6`, bit-exact).

    Column v is read off v's neighbor mask: its bits 0..v-1, lowest first.
    """
    digits = "".join(
        format(g._masks[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n)
    )
    digits += "0" * (-len(digits) % 6)
    body = bytes(int(digits[i:i + 6], 2) + 63 for i in range(0, len(digits), 6))
    return (_g6_encode_size(g.n) + body).decode("ascii")


# ---------------------------------------------------------------------------
# elementary queries
# ---------------------------------------------------------------------------

def _check_subset(g: Graph, s: Iterable[int]) -> int:
    m = 0
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
        m |= 1 << v
    return m


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    comp = component_mask(g._masks, g._full, 0)
    return comp == g._full


def _require_connected(g: Graph, message: str) -> None:
    """Raise DisconnectedGraphError(message) unless g is nonempty and connected.

    A graph that passes is marked, so a solver and the decomposition, twin
    or primality test it calls next search it once between them.
    """
    if not g._connected:
        if g.n == 0 or not is_connected(g):
            raise DisconnectedGraphError(message)
        g._connected = True


def _is_clique_mask(masks: Sequence[int], m: int) -> bool:
    """True iff every two distinct vertices of mask ``m`` are adjacent."""
    return not any(m & ~(1 << v) & ~masks[v] for v in bits(m))


def _nonadjacent_pairs(masks: Sequence[int], within: int) -> Iterator[tuple[int, int]]:
    """Yield the nonadjacent pairs (u, w), u < w, of mask ``within`` in
    lexicographic order."""
    for u in bits(within):
        for w in bits(within & ~masks[u] & ~((2 << u) - 1)):  # non-neighbors above u
            yield u, w


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff every pair of distinct vertices in ``s`` is adjacent."""
    return _is_clique_mask(g._masks, _check_subset(g, s))


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _colour_classes(masks: Sequence[int], cand: list[int]) -> tuple[list[int], list[int]]:
    """First-fit colouring of ``cand``: its vertices grouped by class, and
    each one's class number (from 1). Class k takes, in ``cand`` order,
    each remaining vertex with no neighbour among its members so far."""
    ordered: list[int] = []
    bound: list[int] = []
    rest = cand
    k = 0
    while rest:
        k += 1
        members = 0
        left: list[int] = []
        for v in rest:
            if masks[v] & members:
                left.append(v)
            else:
                members |= 1 << v
                ordered.append(v)
        bound += [k] * (len(ordered) - len(bound))
        rest = left
    return ordered, bound


# Search nodes (frame pushes) max_clique may make before it refuses (exit 4
# in the CLI). About 3.5 s on a 2-vCPU VM with Python 3.11 at n = 300, and
# nearly twice the largest search measured to finish: 54,883 nodes on
# G(300, 0.5) and 43,312 on G(150, 0.7), seed 1. The largest search in the
# tests, the demos and the benchmark pools makes 120.
_MAX_CLIQUE_NODE_BUDGET = 100_000


def max_clique(g: Graph) -> frozenset[int]:
    """Exact maximum clique via branch and bound with a greedy coloring bound.

    Deterministic: the root candidate order is descending degree with
    identifier tie-break, and coloring is greedy in candidate order.
    Exponential in the worst case; intended for moderate instances.

    One loop over an explicit stack, not bounded by the recursion limit:
    each frame holds a depth's candidates still to branch on, in colour
    order, with their class numbers, and ``r`` holds the vertex branched
    on in each frame below the top one (``len(r) == len(frames) - 1``).

    Each frame pushed is one search node; past
    ``_MAX_CLIQUE_NODE_BUDGET`` of them the search raises
    :class:`CapExceededError` instead of running on.
    """
    masks = g._masks
    best: tuple[int, ...] = ()
    r: list[int] = []
    root = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    frames = [_colour_classes(masks, root)]
    nodes = 1
    while frames:
        ordered, bound = frames[-1]
        if not ordered or len(r) + bound[-1] <= len(best):
            frames.pop()
            if r:
                r.pop()
            continue
        v = ordered.pop()
        bound.pop()
        sub = [u for u in ordered if masks[v] >> u & 1]
        if sub:
            nodes += 1
            if nodes > _MAX_CLIQUE_NODE_BUDGET:
                raise CapExceededError(
                    f"maximum clique search refused: it needs more than "
                    f"{_MAX_CLIQUE_NODE_BUDGET} search nodes"
                )
            r.append(v)
            frames.append(_colour_classes(masks, sub))
        elif len(r) + 1 > len(best):
            best = (*r, v)
    return frozenset(best)
