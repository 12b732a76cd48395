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
it proves its text canonical), all immutable values, and ``_connected``
is set by ``_require_connected`` once the graph has passed it, so the
functions defined only on connected graphs search it once between them.
Every other function here is pure.
"""

from __future__ import annotations

import hashlib
import re
from itertools import compress, groupby, islice
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


# bytes.translate table taking the digits b"0" and b"1" to the bytes 0 and 1
_BINARY_DIGIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")


def _payload_hash(payload: bytes) -> str:
    """The report hash of a fingerprint payload (:meth:`Graph.fingerprint`)."""
    return hashlib.sha256(payload).hexdigest()[:16]


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
        order, made once per graph and stored in ``_derived``. The
        edge-list reader stores it first when it proves its text canonical
        (:func:`_dense_masks`): the text after the header is then that
        payload with ``","`` and ``";"`` written as ``" "`` and ``"\\n"``.

        Otherwise the payload is joined from per-vertex strings made once,
        not formatted per edge. The neighbors of u above u form u's row. A
        dense row, one with at least 8 neighbors that fill at least a
        sixteenth of its bit length (the span from u + 1 to its highest
        neighbor), is picked out of ``names`` by one ``compress`` over the
        row's binary digits and joined into one segment ``"u,v;u,v;..."``;
        any other row is listed per edge. A graph with fewer than 8n edges
        has few rows that repay a row's fixed cost, so it is listed per
        edge with no per-row test.
        """
        stored = self._derived.get("fingerprint")
        if stored is not None:
            return stored
        n, masks = self.n, self._masks
        names = list(map(str, range(n)))
        heads = [name + "," for name in names]
        if self.m < 8 * n:
            segments = [
                heads[u] + names[v]
                for u, mask in enumerate(masks)
                for v in bits(mask >> (u + 1) << (u + 1))  # the neighbors above u
            ]
        else:
            segments = []
            for u, mask in enumerate(masks):
                upper = mask >> (u + 1)
                k = upper.bit_count()
                if k >= 8 and k << 4 >= upper.bit_length():
                    # bit i of upper is vertex u + 1 + i, so the binary
                    # digits reversed select from names[u + 1:]
                    selector = bin(upper)[:1:-1].encode().translate(_BINARY_DIGIT_VALUE)
                    row = compress(names[u + 1:], selector)
                    segments.append(heads[u] + (";" + heads[u]).join(row))
                elif k:
                    segments += [heads[u] + names[v] for v in bits(upper << (u + 1))]
        payload = f"{n};" + ";".join(segments)
        fp = self._derived["fingerprint"] = _payload_hash(payload.encode())
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

# The start of a line that is neither blank nor two unsigned decimal
# integers separated by spaces or tabs; the first alternative is the
# common "u v" line. A search for such a line keeps no state from one line
# to the next, unlike a fullmatch over a repeated line group, whose
# backtracking stack grows by one entry per line.
_NOT_PLAIN_LINE = re.compile(
    r"^(?![0-9]+[ \t]+[0-9]+$|[ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*)?$)", re.MULTILINE
)

_DIGITS = b"0123456789"

# bytes.translate table taking canonical edge lines to the fingerprint
# payload: "u v\nu v" to "u,v;u,v"
_PAYLOAD_BYTES = bytes.maketrans(b" \n", b",;")


def _is_bare_edge_list(data: bytes) -> bool:
    r"""True iff every line of ``data`` is digits, one space, digits, and
    the lines are split by ``\n`` (the last one may lack it): what
    :func:`to_edge_list` writes with no comments.

    With the digits deleted (and a last ``\n`` supplied) such text reads
    ``" \n"`` once per line, and no line starts or ends with its space,
    so both numbers are there.
    """
    body = data.translate(None, _DIGITS)
    if not data.endswith(b"\n"):
        body += b"\n"
    return (
        body == b" \n" * (len(body) >> 1)
        and b"\n " not in data
        and b" \n" not in data
        and not data.startswith(b" ")
        and not data.endswith(b" ")
    )


def parse_edge_list(text: str) -> Graph:
    r"""Parse the plain edge-list format.

    The first non-comment line is ``n m``; every following line is an edge
    ``u v`` with ``0 <= u, v < n`` and ``u != v``. Lines starting with ``#``
    and blank lines are ignored. Parallel edges collapse silently;
    self-loops are a hard error, and so is ``n`` above :data:`MAX_VERTICES`.

    ASCII text that holds only blank lines and "u v" lines of plain decimal
    vertex ids is read in bulk. Two checks, cheapest first, find such text:
    a byte-level one for the bare "u v\n" lines :func:`to_edge_list`
    writes, then a search for a line that is not plain, which admits tabs,
    blank lines and runs of spaces. Anything else (comments, other
    whitespace, signs, a bad line) goes through the line loop, which
    reports the first bad line by number; so does text the bulk read
    refuses.
    """
    if text.isascii():
        data = text.encode("ascii")
        bare = _is_bare_edge_list(data)
        if bare or _NOT_PLAIN_LINE.search(text) is None:
            g = _parse_plain_edge_list(data, bare)
            if g is not None:
                return g
    return _parse_edge_list_lines(text)


def _vertex_ids(n: int) -> dict[bytes, int]:
    """The vertex of each decimal name ``b"0"`` ... ``b"n-1"``, built with
    no Python call per entry; any other token (zero-padded, ≥ n) is missing."""
    return dict(zip(map(b"%d".__mod__, range(n)), range(n)))


def _dense_masks(n: int, tokens: list[bytes], bare: bool) -> tuple[list[int], bool]:
    """The neighbor masks of the edge lines ``tokens``, by rows, and
    whether the lines are canonical: in the order and form
    :func:`to_edge_list` writes them.

    Row u is the OR of ``1 << v`` over the lines "u v", and mask v is row
    v OR column v of the rows. Tokens are looked up in two tables made
    once, ``ids`` and ``powers`` (``1 << v``); a token that is not a
    vertex name as written, such as ``b"007"``, raises ``KeyError``.

    ``bare`` text is read in runs of lines that share a first token u,
    for as long as the runs prove it canonical: each run's head lies
    above the last one, and its powers of two ascend from above
    ``1 << u`` with none repeated. The run's row is their sum, which is
    their OR iff it has as many bits as the run has lines. From the first
    run that fails (a repeated line, a line "v u", lines out of order) to
    the end, and for all other text, the lines are ORed into the rows one
    by one.
    """
    ids = _vertex_ids(n)
    powers = dict(zip(ids, map((1).__lshift__, range(n))))
    tails = list(map(powers.__getitem__, tokens[1::2]))
    rows = [0] * n
    start = 0  # the lines before it are canonical and in the rows
    if bare:
        last = -1
        for head, lines in groupby(islice(tokens, 0, None, 2)):
            u = ids[head]
            end = start + len(list(lines))
            run = tails[start:end]
            row = sum(run)
            if not (last < u and run[0] >> u > 1 and row.bit_count() == len(run)
                    and run == sorted(run)):
                break
            rows[u] = row
            last, start = u, end
    heads = islice(tokens, 2 * start, None, 2)
    for u, bit in zip(map(ids.__getitem__, heads), tails[start:]):
        rows[u] |= bit
    # Row u as n binary digits holds bit v at index n - 1 - v. With the
    # rows joined from n - 1 down to 0, the digits at n - 1 - v, 2n - 1 - v,
    # ... are bit v of rows n - 1, n - 2, ..., 0: column v, highest first.
    digits = "".join(map(f"{{:0{n}b}}".format, reversed(rows)))
    masks = [row | int(digits[n - 1 - v::n], 2) for v, row in enumerate(rows)]
    return masks, bare and start == len(tails)


def _masks_per_edge(n: int, ids: Iterable[int]) -> list[int]:
    """The neighbor masks of the edges (ids[0], ids[1]), (ids[2], ids[3]), ..."""
    masks = [0] * n
    pairs = iter(ids)
    for u, v in zip(pairs, pairs):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _parse_plain_edge_list(data: bytes, bare: bool) -> Graph | None:
    """Bulk parse of ASCII text with no ``_NOT_PLAIN_LINE``; None if the
    line loop must decide (no header, a vertex count over the limit, a
    number too long for ``int``, an endpoint out of range, a self-loop).
    ``bare`` is the verdict of :func:`_is_bare_edge_list` on ``data``.

    Dense text, with at least 16 tokens per vertex and n² at most twice
    its length, is read by rows (:func:`_dense_masks`): one sum per run of
    lines that share a first endpoint and one transposition of the rows
    as binary digits, in place of two shifts and two ORs per edge. The
    second bound keeps the powers of two (at most n²/16 bytes) and the
    digits (about 3n² bytes) below the size of the token list. When the
    rows prove the text canonical, the report hash is taken from the text
    itself, one sha256 of the lines after the header, and stored in the
    graph's ``_derived`` for :meth:`Graph.fingerprint`. Other text is read
    per edge, looking each token up in :func:`_vertex_ids` from 8 tokens
    per vertex and converting every token below that. The tables know
    each id only as :func:`to_edge_list` writes it, so from 8 tokens per
    vertex a zero-padded id sends the text to the line loop.
    """
    tokens = data.split()  # bytes tokens are smaller than str ones
    if not tokens:
        return None
    head = tokens[:2]
    del tokens[:2]
    canonical = False
    try:
        n, _ = map(int, head)
        if n > MAX_VERTICES:
            return None
        if len(tokens) >= 16 * n and n * n <= 2 * len(data):
            # from 16 tokens per vertex, canonical text read by rows skips
            # the hash's row build, which costs more than the rows and the
            # sha256 add; shuffled text takes 0.9 to 1.15 times as long as
            # the lookup (n = 30 to 300)
            masks, canonical = _dense_masks(n, tokens, bare)
        elif len(tokens) < 8 * n:
            # under 8 tokens per vertex every token is converted, so a
            # sparse file with a large n builds no table of n names; the
            # lookup was faster at 6, 8 and 12 (n = 30, 300 and 1,000)
            ids = list(map(int, tokens))
            if max(ids, default=-1) >= n:
                return None
            masks = _masks_per_edge(n, ids)
        else:
            masks = _masks_per_edge(n, map(_vertex_ids(n).__getitem__, tokens))
    except (KeyError, ValueError):  # not a vertex name, or too long
        return None
    if any(mask >> u & 1 for u, mask in enumerate(masks)):
        return None  # a self-loop
    g = Graph._from_masks(n, masks)
    if canonical:
        # "n m\nu v\nu v\n" is the payload "n;u,v;u,v" with " " for ","
        # and "\n" for ";"; the header's own text and the last "\n" drop out
        lines = data.partition(b"\n")[2].removesuffix(b"\n")
        g._derived["fingerprint"] = _payload_hash(b"%d;" % n + lines.translate(_PAYLOAD_BYTES))
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
    """
    lines = [f"# {piece}" for c in comments for piece in c.splitlines() or [""]]
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges())
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
