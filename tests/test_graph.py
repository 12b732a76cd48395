import hashlib
import random
import time
import tracemalloc
from functools import reduce
from itertools import combinations, compress, islice
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtoll as w
from wtoll import Graph, GraphParseError
from wtoll.graph import (
    _NOT_PLAIN_LINE,
    MAX_VERTICES,
    _is_bare_edge_list,
    _g6_encode_size,
    _is_clique_mask,
    _nonadjacent_pairs,
    bits,
    mask_of,
)

from _reference import (
    reference_bits,
    reference_fingerprint,
    reference_parse_edge_list,
    reference_parse_graph6,
)
from _strategies import connected_components, graphs

DATA = Path(__file__).parent / "data"


def assert_same_graph(got, want):
    assert got == want and got.m == want.m
    assert got.fingerprint() == reference_fingerprint(want)


def assert_parses_like_reference(parse, reference, text):
    """The parser returns the reference's graph, or raises its error at its line."""
    try:
        want = reference(text)
    except GraphParseError as exc:
        with pytest.raises(GraphParseError) as got:
            parse(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return got.value
    assert_same_graph(parse(text), want)
    return None


def same_edge_list_error(text):
    assert assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)


def same_graph6_error(text):
    assert assert_parses_like_reference(w.parse_graph6, reference_parse_graph6, text)


# Text outside the bulk read's shape, or refused by it, takes the line
# loop; valid or not, the result must be the reference's.
FALLBACK_CASES = [
    "# c\n4 3\n0 1\n# mid\n1 2\n2 3\n",  # comments
    "# c\n4 3\n0 1\n# mid\n1 9\n",
    "4 3\r\n0 1\r\n1 2\r\n2 3\r\n",  # \r
    "4 3\r\n0 1\r\n3 3\r\n",
    "4 3\n+1 2\n0 1\n",  # sign
    "4 3\n-1 2\n",
    "-1 0\n",
    "12 3\n1_0 2\n",  # underscore
    "4 3\n1_0 2\n",
    "4 3\n\u0661 2\n",  # non-ASCII digit
    "4 3\n\u0669 2\n",
    "4 3\n0 1\n2\n",  # one token
    "4\n0 1\n",
    "4 3\n0 1 2\n",  # three tokens
    "4 3 9\n0 1\n",
    "4 3\n0 1\n1 4\n2 3\n",  # out of range
    "0 0\n0 1\n",
    "4 3\n0 1\n2 2\n3 9\n",  # self-loop
    "4 3\n0 " + "1" * 5000 + "\n",  # too many digits for int()
    "4 " + "1" * 5000 + "\n0 1\n",
    "1" * 5000 + " 3\n",
    "4 3\n00 01\n1 002\n",  # leading zeros
    "4 3\n0 1\x0c\n1 2\n",  # other whitespace
    "4 3\n0\u00a01\n",
    "4 1\n007 1\n",  # a padded id at n
    "4 1\n4 0\n",  # a first endpoint equal to n
    f"{MAX_VERTICES} 1\n{MAX_VERTICES} 0\n",
    "4 2\n0 1\n3 3",  # a self-loop on a last line with no newline
    "4 2\n0\n1 2 3\n",  # a 1-token line, then a 3-token one
    "4 1\n0 1\n3",  # a last 1-token line
    "4 1\n0 1\n3\n",
    "20 2\n12 \n 3\n",  # one number with a trailing or a leading space
    "20 1\n12 \n",
    "20 1\n 12\n",
    "4 2\n0\x0b1\n1 2\n",  # \v
]

# Text the bulk read takes
BULK_CASES = [
    "5 0",  # header only
    "5 0\n",
    "\n\n5 0\n\n",
    "4 3\n0 1\n1 2\n2 3",  # no final newline
    "4 3 \n0 1  \n\t1\t2\t\n  2 3 ",  # trailing and leading blanks
    "4 3\n\n0 1\n \n1 2\n\t\n2 3\n\n",
    "3 1\n2 0\n0 2\n",
    "0 0\n",
    "8 2\n007 1\n1 2\n",  # leading zeros
    "8 2\n7 1\n007 1\n",  # one vertex spelled two ways
    f"{MAX_VERTICES} 1\n0 {MAX_VERTICES - 1}\n",
    "4 2\n0\t1\n1\t2\n",
    "0 0",
]


def _with_many_tokens(text):
    """``text`` with 4n "0 1" lines after its header line, so that the
    bulk read meets at least 8 tokens per vertex, but under 16, and
    looks each distinct token up instead of converting every one or
    reading rows; None unless the header starts with an n from 2 to
    100."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            break
    else:
        return None
    if not (parts[0].isdecimal() and len(parts[0]) <= 3 and 2 <= int(parts[0]) <= 100):
        return None
    lines[i] += "\n0 1" * (4 * int(parts[0]))
    return "\n".join(lines)


@pytest.fixture
def bulk_branches(monkeypatch):
    """The branches edge-list parses take, in order: "rows" for the rows
    and their transposition, "lookup" for a table lookup per token,
    "convert" for one conversion per token, and "lines" for the line
    loop, which also decides what a bulk branch refuses."""
    import wtoll.graph

    taken = []
    dense_masks, masks_per_edge = wtoll.graph._dense_masks, wtoll.graph._masks_per_edge
    parse_lines = wtoll.graph._parse_edge_list_lines

    def rows(n, tokens, bare):
        taken.append("rows")
        return dense_masks(n, tokens, bare)

    def per_edge(n, ids):
        taken.append("convert" if isinstance(ids, list) else "lookup")
        return masks_per_edge(n, ids)

    def lines(text):
        taken.append("lines")
        return parse_lines(text)

    monkeypatch.setattr(wtoll.graph, "_dense_masks", rows)
    monkeypatch.setattr(wtoll.graph, "_masks_per_edge", per_edge)
    monkeypatch.setattr(wtoll.graph, "_parse_edge_list_lines", lines)
    return taken


class TestParseEdgeList:
    def test_p4(self):
        g = w.parse_edge_list("4 3\n0 1\n1 2\n2 3")
        assert g == w.path_graph(4)

    def test_single_vertex(self):
        g = w.parse_edge_list("1 0")
        assert g.n == 1 and g.m == 0

    def test_k3(self):
        g = w.parse_edge_list("3 3\n0 1\n1 2\n0 2")
        assert g == w.complete_graph(3)

    def test_comments_and_blanks_ignored(self):
        g = w.parse_edge_list("# a path\n\n4 3\n0 1\n# middle\n1 2\n2 3\n")
        assert g == w.path_graph(4)

    def test_duplicate_edges_collapse(self):
        g = w.parse_edge_list("3 3\n0 1\n0 1\n1 0")
        assert g.m == 1

    def test_malformed_line_names_line_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            w.parse_edge_list("3 1\n0 one")
        same_edge_list_error("3 1\n0 one")

    def test_out_of_range(self):
        with pytest.raises(GraphParseError, match="line 2"):
            w.parse_edge_list("3 1\n0 7")
        same_edge_list_error("3 1\n0 7")

    def test_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            w.parse_edge_list("3 1\n1 1")
        same_edge_list_error("3 1\n1 1")

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            w.parse_edge_list("# nothing\n")
        same_edge_list_error("# nothing\n")
        same_edge_list_error("")
        same_edge_list_error(" \n\t\n")

    @pytest.mark.parametrize("text", FALLBACK_CASES)
    def test_fallback_matches_reference(self, text):
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)

    @pytest.mark.parametrize("text", BULK_CASES)
    def test_bulk_path_matches_reference(self, bulk_branches, text):
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        # below 8 tokens per vertex every token is converted; n = 0 has
        # no vertex, so the rows read it
        assert bulk_branches == (["rows"] if text.split()[0] == "0" else ["convert"])

    @pytest.mark.parametrize(
        "text",
        [t for t in map(_with_many_tokens, FALLBACK_CASES + BULK_CASES) if t is not None],
    )
    def test_many_tokens_match_reference(self, bulk_branches, text):
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert bulk_branches in (["lines"], ["lookup"], ["lookup", "lines"])

    def test_shape_check_is_line_local(self):
        # a long plain file with a bad last line: the check for a bad line
        # neither backtracks across lines nor keeps state per line
        text = "3 2\n" + "0 1\n1 2\n" * 10_000 + "2\n"
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(GraphParseError, match="line 20002: expected two integers"):
                w.parse_edge_list(text)
            elapsed = time.perf_counter() - t0
            plain = text[:-2]
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert _NOT_PLAIN_LINE.search(plain) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak - held < 10_000

    def test_vertex_limit(self):
        assert w.parse_edge_list(f"{MAX_VERTICES} 0\n0 1\n").n == MAX_VERTICES
        for text, line in ((f"{MAX_VERTICES + 1} 0", 1), (f"# big\n\n{MAX_VERTICES + 1} 0\n", 3)):
            with pytest.raises(GraphParseError, match="exceeds the limit") as exc:
                w.parse_edge_list(text)
            assert exc.value.line == line

    def test_huge_header_refused_before_allocation(self):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            with pytest.raises(GraphParseError, match="line 1: vertex count 1000000000"):
                w.parse_edge_list("1000000000 0\n")
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 100_000

    @given(graphs(max_n=12))
    def test_roundtrip(self, g):
        assert w.parse_edge_list(w.to_edge_list(g)) == g

    @pytest.mark.parametrize(
        "comments",
        [
            ["two\nlines"],
            ["x\r0 2"],  # a bare \r made "0 2" the header
            ["a\r\nb", "c\x0bd\x0ce\x1cf\x85g\u2028h"],
            ["1 2\n3 4\n"],
            ["", "\n"],
        ],
    )
    def test_comment_line_breaks_round_trip(self, comments):
        g = w.gnp_graph(6, 0.5, seed=1)
        text = w.to_edge_list(g, comments)
        assert w.parse_edge_list(text) == g
        assert reference_parse_edge_list(text) == g
        pieces = [piece for c in comments for piece in c.splitlines() or [""]]
        assert text.splitlines() == [f"# {piece}" for piece in pieces] + w.to_edge_list(
            g
        ).splitlines()

    def test_single_line_comments_unchanged(self):
        g = w.path_graph(3)
        assert w.to_edge_list(g, ["one", ""]) == "# one\n# \n3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize(
        "text, bare",
        [
            ("4 2\n0 1\n1 2\n", True),
            ("4 2\n0 1\n1 2", True),
            ("5 0", True),
            ("100 1\n007 99\n", True),
            ("", False),
            ("\n", False),
            ("5", False),  # a 1-token line
            ("4 1\n0 1\n3", False),
            ("4 1\n0 1\n3\n", False),
            ("4 2\n\n0 1\n", False),  # a blank line
            ("4 2\n0  1\n", False),  # a run of spaces
            ("4 2\n0\t1\n", False),
            ("4 2\r\n0 1\r\n", False),
            (" 4 2\n0 1\n", False),
            ("4 2 \n0 1\n", False),
            ("4 2\n0 1 \n", False),
            ("4 2\n0 1\n ", False),
            ("4 2\n0\n1 2 3\n", False),
            ("4 2\n12 \n 3\n", False),
            ("4 2\n0 1\n# c\n", False),
        ],
    )
    def test_bare_shape(self, text, bare):
        assert _is_bare_edge_list(text.encode()) is bare

    def test_header_only_file_allocates_no_name_table(self):
        # a header-only file is below 16 tokens per vertex, so every token
        # is converted and no table of n vertex names is built
        text = f"{MAX_VERTICES} 0\n"
        w.parse_edge_list(text)
        tracemalloc.start()
        try:
            g = w.parse_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == MAX_VERTICES and g.m == 0
        # the masks list and its tuple take 1.6 MB; a table of the names
        # would add about 9 MB
        assert peak < 3_000_000


@st.composite
def edge_list_layouts(draw):
    """A graph and its edge list laid out with reversed lines, tabs, runs
    of blanks, blank lines and leading zeros, each in a drawn share of the
    places it could go (none, some or all), and the edge lines shuffled
    in a drawn share of cases."""
    n = draw(st.integers(0, 40))
    p = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    g = w.gnp_graph(n, p, seed=draw(st.integers(0, 10**6)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    share = {
        k: draw(st.sampled_from((0.0, 0.3, 1.0)))
        for k in ("flip", "shuffle", "sep", "pad", "blank", "zero")
    }

    def chance(kind):
        return rng.random() < share[kind]

    def blanks():
        return "".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))

    def number(x):
        return "0" * rng.randint(1, 3) + x if chance("zero") else x

    head, *edges = w.to_edge_list(g).splitlines()
    edges = [" ".join(line.split()[::-1]) if chance("flip") else line for line in edges]
    if chance("shuffle"):
        rng.shuffle(edges)
    lines = []
    for line in [head, *edges]:
        while chance("blank") and rng.random() < 0.5:
            lines.append(blanks() if rng.random() < 0.5 else "")
        a, b = line.split()
        sep = blanks() if chance("sep") else " "
        lead, trail = (blanks(), blanks()) if chance("pad") else ("", "")
        lines.append(lead + number(a) + sep + number(b) + trail)
    text = "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")
    return g, text


class TestEdgeListLayouts:
    @settings(max_examples=150, deadline=None)
    @given(edge_list_layouts())
    def test_same_graph_and_fingerprint(self, case):
        g, text = case
        # every layout stays on the bulk read
        assert _NOT_PLAIN_LINE.search(text) is None
        got = w.parse_edge_list(text)
        assert got == g and got.m == g.m
        assert got.fingerprint() == g.fingerprint() == reference_fingerprint(g)


def _first_edges(n, k):
    """Edge list text of the first k pairs of ``combinations(range(n), 2)``."""
    return f"{n} {k}\n" + "".join(f"{u} {v}\n" for u, v in islice(combinations(range(n), 2), k))


def _padded(text, length):
    """``text`` with blank lines added up to ``length`` characters."""
    assert len(text) <= length
    return text + "\n" * (length - len(text))


# n = 1000 with 8,000 edge lines (16 tokens per vertex), short of n²/2
# characters, so only the length decides
_LONG_ROWS = "1000 8000\n" + "".join(f"{i % 1000} {(7 * i + 1) % 1000}\n" for i in range(8_000))


class TestBulkBranches:
    """Each bulk branch is pinned with its own inputs, on both sides of
    each switch: rows from 16 tokens per vertex with n² at most twice the
    text length, else a table lookup per token from 8 tokens per vertex,
    else a conversion per token."""

    @pytest.mark.parametrize(
        "text, branch",
        [
            pytest.param(_first_edges(64, 512), "rows", id="16n tokens"),
            pytest.param(_first_edges(64, 511), "lookup", id="16n - 2 tokens"),
            pytest.param(_first_edges(64, 256), "lookup", id="8n tokens"),
            pytest.param(_first_edges(64, 255), "convert", id="8n - 2 tokens"),
            pytest.param(_first_edges(3, 0), "convert", id="header only"),
            pytest.param(_padded(_LONG_ROWS, 500_000), "rows", id="n² = 2 len"),
            pytest.param(_padded(_LONG_ROWS, 499_999), "lookup", id="n² = 2 len + 2"),
            pytest.param("0 0\n", "rows", id="n = 0"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 8, "rows", id="n = 2, 16n tokens"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 7 + "0 1\n", "lookup", id="n = 2, 16n - 2"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 4, "lookup", id="n = 2, 8n tokens"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 3 + "0 1\n", "convert", id="n = 2, 8n - 2"),
        ],
    )
    def test_branch_at_each_switch(self, bulk_branches, text, branch):
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert bulk_branches == [branch]


# The header and edge lines of G(40, 0.9) as written: 35 tokens per
# vertex and n² below the text length, so the rows read it
_HEAD, *_LINES = w.to_edge_list(w.gnp_graph(40, 0.9, seed=3)).splitlines()


def _flipped(lines):
    return [" ".join(line.split()[::-1]) for line in lines]


def _shuffled(lines):
    lines = list(lines)
    random.Random(1).shuffle(lines)
    return lines


def _text(head, lines):
    return "\n".join([head, *lines]) + "\n"


def _padded_id(text):
    """True iff an edge line of ``text`` spells an id with a leading zero,
    which the tables of vertex names leave to the line loop."""
    return any(len(t) > 1 and t.startswith("0") for t in text.split()[2:])


def _with_line(k, line):
    """The dense text with ``line`` inserted before its k-th edge line."""
    return _text(_HEAD, _LINES[:k] + [line] + _LINES[k:])


# Text the rows read first, valid or not; the result must be the reference's
DENSE_CASES = {
    "reversed": _text(_HEAD, _flipped(_LINES)),
    "shuffled": _text(_HEAD, _shuffled(_LINES)),
    "reversed and shuffled": _text(_HEAD, _shuffled(_flipped(_LINES))),
    "duplicate both ways": _with_line(100, "3 5\n5 3\n3 5"),
    "duplicate of a line": _with_line(0, _LINES[0]),
    "self-loop": _with_line(200, "17 17"),
    "self-loop last": _text(_HEAD, _LINES) + "39 39",
    "second endpoint at n": _with_line(300, "3 40"),
    "first endpoint at n": _with_line(300, "40 3"),
    "endpoint far above n": _with_line(5, "0 123456789"),
    "a self-loop before an endpoint at n": _with_line(10, "6 6\n0 40"),
    "an endpoint at n before a self-loop": _with_line(10, "0 40\n6 6"),
    "too long for int": _with_line(50, "0 " + "1" * 5000),
    "one vertex spelled two ways": _with_line(7, "7 0\n007 1\n0007 2"),
    "padded ids": _text(_HEAD, [" ".join("00" + x for x in line.split()) for line in _LINES]),
    "padded id at n": _with_line(7, "0040 1"),
    "header m too small": _text("40 5", _LINES),
    "header m too large": _text("40 99999", _LINES),
    "n = 0": "0 0\n",
    "n = 0 with an edge": "0 0\n" + "0 1\n",
    "n = 1": "1 0\n" + "0 0\n" * 16,
    "n = 2": "2 1\n" + "0 1\n1 0\n" * 16,
    "n = 2 with an endpoint at n": "2 1\n" + "0 1\n1 0\n" * 16 + "1 2\n",
}


class TestDenseBranchParity:
    @pytest.mark.parametrize("text", DENSE_CASES.values(), ids=DENSE_CASES.keys())
    def test_matches_reference(self, bulk_branches, text):
        # only the line loop names a bad line or reads a padded id
        error = assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert bulk_branches == (["rows", "lines"] if error or _padded_id(text) else ["rows"])

    def test_random_dense_texts(self, bulk_branches):
        rng = random.Random(21)
        rows = 0
        for _ in range(150):
            n = rng.randint(20, 80)
            g = w.gnp_graph(n, rng.choice((0.6, 0.8, 1.0)), seed=rng.randrange(10**6))
            head, *lines = w.to_edge_list(g).splitlines()
            lines = [" ".join(x.split()[::-1]) if rng.random() < 0.5 else x for x in lines]
            lines += rng.sample(lines, rng.randint(0, 5))  # duplicates
            if rng.random() < 0.5:
                rng.shuffle(lines)
            if rng.random() < 0.3:
                u = rng.randrange(n)
                bad = rng.choice((f"{u} {u}", f"{u} {n + rng.randrange(3)}", f"{n} {u}"))
                lines.insert(rng.randrange(len(lines)), bad)
            padded = rng.random() < 0.3
            if padded:
                lines = [" ".join("0" + x for x in line.split()) for line in lines]
            text = _text(head, lines)
            error = assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
            assert ("lines" in bulk_branches) == (bool(error) or padded)
            rows += bulk_branches[0] == "rows"
            bulk_branches.clear()
        assert rows >= 75  # most draws are read by rows

    def test_random_lookup_texts(self, bulk_branches):
        # texts the table lookup reads: 8 to 15 tokens per vertex, or
        # from 16 with n² above twice the text length
        rng = random.Random(25)
        for i in range(150):
            if i % 3:
                n = rng.randint(20, 120)
                k = rng.randint(4 * n, 7 * n)  # edge lines
            else:
                n = rng.randint(400, 450)
                k = rng.randint(8 * n, 9 * n)
            g = w.gnp_graph(n, rng.choice((0.05, 0.2, 0.5)), seed=rng.randrange(10**6))
            head, *lines = w.to_edge_list(g).splitlines()
            if len(lines) >= k:
                lines = rng.sample(lines, k)
            else:
                lines += rng.choices(lines, k=k - len(lines))  # duplicates
            lines = [" ".join(x.split()[::-1]) if rng.random() < 0.5 else x for x in lines]
            if rng.random() < 0.5:
                rng.shuffle(lines)
            if rng.random() < 0.3:
                u = rng.randrange(n)
                bad = rng.choice((f"{u} {u}", f"{u} {n + rng.randrange(3)}", f"{n} {u}"))
                lines.insert(rng.randrange(len(lines)), bad)
            padded = rng.random() < 0.3
            if padded:
                lines = [" ".join("0" + x for x in line.split()) for line in lines]
            text = _text(head, lines)
            error = assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
            assert bulk_branches == (["lookup", "lines"] if error or padded else ["lookup"])
            bulk_branches.clear()


class TestBulkReadMemory:
    def test_sparse_text_with_a_large_n_builds_no_rows(self, monkeypatch, bulk_branches):
        # no table of vertex names, no powers of two and no transposition
        # is made below the switch, however large n is
        import wtoll.graph

        def no_table(n):
            raise AssertionError(f"a table of {n} vertex names was built")

        monkeypatch.setattr(wtoll.graph, "_vertex_ids", no_table)
        text = f"{MAX_VERTICES} 3\n0 1\n1 2\n5 {MAX_VERTICES - 1}\n"
        w.parse_edge_list(text)
        tracemalloc.start()
        try:
            g = w.parse_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == MAX_VERTICES and g.m == 3
        # the masks list and its tuple take 1.6 MB; the digits of the rows
        # alone would take 3 * 10^10 bytes
        assert peak < 3_000_000
        n = 20_000
        perm = list(range(n))
        random.Random(1).shuffle(perm)
        path = f"{n} {n - 1}\n" + "".join(f"{perm[i]} {perm[i + 1]}\n" for i in range(n - 1))
        assert w.parse_edge_list(path).m == n - 1
        assert bulk_branches == ["convert"] * 3

    @staticmethod
    def parse_peak(text):
        """The tracemalloc peak of a second parse of ``text``."""
        w.parse_edge_list(text)
        tracemalloc.start()
        try:
            w.parse_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_dense_parse_peak_within_20_times_the_text(self, bulk_branches):
        # the token list, about 12 bytes per byte of text, dominates; 16.1
        # times the text was measured (14.5 before the lines were read in
        # runs, 13.1 before the rows)
        text = w.to_edge_list(w.gnp_graph(300, 0.5, seed=1))
        peak = self.parse_peak(text)
        assert bulk_branches == ["rows", "rows"]
        assert peak < 20 * len(text)

    def test_lookup_parse_peak_within_20_times_the_text(self, bulk_branches):
        # 16.1 tokens per vertex, above the rows switch, but n² is over
        # twice the text length, so each token is looked up; 16.4 times
        # the text was measured, most of it the token list
        text = w.to_edge_list(w.gnp_graph(1000, 0.016, seed=5))
        peak = self.parse_peak(text)
        assert bulk_branches == ["lookup", "lookup"]
        assert peak < 20 * len(text)


def _row_graph(n, row, clique_from):
    """Vertex 0 joined to ``row``, plus a clique on ``clique_from``..n-1."""
    edges = [(0, v) for v in row]
    edges += combinations(range(clique_from, n), 2)
    return Graph(n, edges)


class TestFingerprintMatchesReference:
    """``Graph.fingerprint`` builds a dense row as one segment and a sparse
    one per edge; both must give the reference's payload."""

    @pytest.mark.parametrize(
        "k, top, dense",
        [
            (8, 127, True),  # 16k = 128 against a bit length of 127
            (8, 128, True),  # at the switch
            (8, 129, False),
            (7, 100, False),  # one neighbor short of the minimum
            (9, 144, True),
            (9, 145, False),
            (299, 299, True),
        ],
    )
    def test_rows_at_the_density_switch(self, monkeypatch, k, top, dense):
        # row 0 has k neighbors, the highest at ``top``, so its bit length
        # is ``top``; the clique on 200..299 (4,950 edges) puts the graph
        # above 8n edges, where rows are tested one by one
        import wtoll.graph

        row = [top] + random.Random(top).sample(range(1, top), k - 1)
        g = _row_graph(300, row, 200)
        lengths = []

        def counting(data, selector):
            lengths.append(len(data))
            return compress(data, selector)

        monkeypatch.setattr(wtoll.graph, "compress", counting)
        assert g.fingerprint() == reference_fingerprint(g)
        assert (299 in lengths) is dense  # row 0 selects from names[1:]

    def test_sparse_graph_lists_every_row_per_edge(self, monkeypatch):
        # a star has a full row 0 but fewer than 8n edges, so no row is
        # tested and none is compressed
        import wtoll.graph

        g = w.star_graph(300)
        monkeypatch.setattr(wtoll.graph, "compress", None)
        assert g.m < 8 * g.n
        assert g.fingerprint() == reference_fingerprint(g)

    # n = 0, 1 and 2 are here too, K_2 minus its matching being two
    # isolated vertices
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 18, 40, 100, 300])
    def test_complete_and_minus_a_perfect_matching(self, n):
        g = w.complete_graph(n)
        assert g.fingerprint() == reference_fingerprint(g)
        if n % 2 == 0:
            matching = {(v, v + 1) for v in range(0, n, 2)}
            h = Graph(n, [e for e in g.edges() if e not in matching])
            assert h.fingerprint() == reference_fingerprint(h)

    def test_relabelled_paths(self):
        rng = random.Random(5)
        for n in (2, 10, 90, 300):
            perm = list(range(n))
            rng.shuffle(perm)
            g = Graph(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
            assert g.fingerprint() == reference_fingerprint(g)

    def test_isolated_vertices(self):
        rng = random.Random(6)
        # below 8n edges, listed per edge; above it, row by row
        for n, p in ((60, 0.5), (300, 0.5), (300, 0.9)):
            h = w.gnp_graph(n, p, seed=n)
            # spread the vertices over 0..2n-1, leaving n of them isolated
            label = sorted(rng.sample(range(2 * n), n))
            rng.shuffle(label)
            g = Graph(2 * n, [(label[u], label[v]) for u, v in h.edges()])
            assert g.fingerprint() == reference_fingerprint(g)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9, 1.0])
    def test_gnp_300(self, p):
        g = w.gnp_graph(300, p, seed=17)
        assert g.fingerprint() == reference_fingerprint(g)


# G(300, 0.5), seed 7, as `wtoll generate random-gnp 300 0.5 --seed 7`
# writes it, and the hash the CLI's reports have always printed for it
_CI_HEAD, *_CI_LINES = w.to_edge_list(w.gnp_graph(300, 0.5, seed=7)).splitlines()
_CI_HASH = "b2db3953155ea4b8"


def _swapped_in_a_row(lines):
    """``lines`` with the first two lines of one row swapped."""
    k = next(k for k in range(len(lines) - 1) if lines[k].split()[0] == lines[k + 1].split()[0])
    return lines[:k] + [lines[k + 1], lines[k]] + lines[k + 2:]


def _rows_swapped(lines):
    """``lines`` with the lines of rows 0 and 1 in each other's place."""
    row = [[x for x in lines if x.split()[0] == u] for u in ("0", "1")]
    return row[1] + row[0] + lines[len(row[0]) + len(row[1]):]


class TestTextFingerprint:
    """Canonical text read by rows stores its hash, one sha256 of the
    text; every other bare text read by rows stores nothing. Either way
    ``fingerprint()`` gives the reference's hash and a ``_from_masks``
    copy's, which is built from the masks."""

    @staticmethod
    def check(text, stored):
        g = w.parse_edge_list(text)
        assert ("fingerprint" in g._derived) is stored
        assert g.fingerprint() == reference_fingerprint(g)
        assert g.fingerprint() == Graph._from_masks(g.n, g._masks).fingerprint()
        return g

    CANONICAL = {
        "final newline": _text(_CI_HEAD, _CI_LINES),
        "no final newline": "\n".join([_CI_HEAD, *_CI_LINES]),
        "zero-padded header n": _text("0" + _CI_HEAD, _CI_LINES),
    }

    @pytest.mark.parametrize("text", CANONICAL.values(), ids=CANONICAL.keys())
    def test_canonical_text_stores_the_hash(self, bulk_branches, text):
        assert text.startswith(("300 ", "0300 "))
        self.check(text, stored=True)
        assert w.parse_edge_list(text).fingerprint() == _CI_HASH
        assert bulk_branches == ["rows", "rows"]

    @pytest.mark.parametrize("text", ["0 0", "0 0\n"])
    def test_empty_graph_stores_the_hash(self, bulk_branches, text):
        assert self.check(text, stored=True).n == 0
        assert bulk_branches == ["rows"]

    NOT_CANONICAL = {
        "two lines of one row swapped": _text(_HEAD, _swapped_in_a_row(_LINES)),
        "two rows out of order": _text(_HEAD, _rows_swapped(_LINES)),
        "a line repeated in its run": _with_line(1, _LINES[0]),
        "a line repeated in a later row": _with_line(len(_LINES) - 1, _LINES[0]),
        "a line written v u": _text(_HEAD, _LINES[:9] + _flipped(_LINES[9:10]) + _LINES[10:]),
        "the last line written v u": _text(_HEAD, _LINES[:-1] + _flipped(_LINES[-1:])),
    }

    @pytest.mark.parametrize("text", NOT_CANONICAL.values(), ids=NOT_CANONICAL.keys())
    def test_other_bare_text_stores_nothing(self, bulk_branches, text):
        assert _is_bare_edge_list(text.encode())
        assert self.check(text, stored=False) == w.parse_edge_list(_text(_HEAD, _LINES))
        assert bulk_branches == ["rows", "rows"]

    def test_text_that_is_not_bare_stores_nothing(self, bulk_branches):
        # tabs take the regex check, and text it admits is never proved canonical
        text = _text(_HEAD, _LINES).replace(" ", "\t")
        self.check(text, stored=False)
        assert bulk_branches == ["rows"]

    def test_canonical_text_builds_no_row(self, monkeypatch):
        import wtoll.graph

        def no_row(*args):
            raise AssertionError("fingerprint() built a row")

        g = w.parse_edge_list(_text(_CI_HEAD, _CI_LINES))
        monkeypatch.setattr(wtoll.graph, "compress", no_row)
        assert g.m >= 8 * g.n  # so a computed hash would compress its rows
        assert g.fingerprint() == _CI_HASH

    def test_a_computed_hash_is_stored(self):
        g = w.gnp_graph(300, 0.5, seed=7)
        assert "fingerprint" not in g._derived
        assert g.fingerprint() == _CI_HASH == g._derived["fingerprint"]

    def test_random_runs_with_a_repeated_line(self, bulk_branches):
        # a line repeated next to itself puts a power of two twice in its
        # run, so the run's sum carries and differs from its OR
        rng = random.Random(27)
        for _ in range(60):
            n = rng.randint(40, 80)  # at least 23 tokens per vertex, so read by rows
            g = w.gnp_graph(n, rng.choice((0.6, 0.8, 1.0)), seed=rng.randrange(10**6))
            head, *lines = w.to_edge_list(g).splitlines()
            k = rng.randrange(len(lines))
            lines.insert(k, lines[k])
            u = lines[k].split()[0]
            run = [1 << int(x.split()[1]) for x in lines if x.split()[0] == u]
            assert sum(run) != reduce(or_, run)
            assert self.check(_text(head, lines), stored=False) == g
            assert bulk_branches == ["rows"]
            bulk_branches.clear()


class TestGraph6:
    def test_roundtrip_identity(self):
        assert w.to_graph6(w.parse_graph6("D?{")) == "D?{"

    def test_k3_matches_reference_encoder(self):
        nx = pytest.importorskip("networkx")
        ref = nx.to_graph6_bytes(nx.complete_graph(3), header=False).decode().strip()
        g = w.parse_graph6(ref)
        assert g.n == 3 and g.m == 3
        assert w.to_graph6(w.complete_graph(3)) == ref

    def test_empty_string_is_error(self):
        with pytest.raises(GraphParseError):
            w.parse_graph6("")
        same_graph6_error("")

    def test_invalid_character(self):
        with pytest.raises(GraphParseError):
            w.parse_graph6("D\x1f{")
        same_graph6_error("D\x1f{")

    def test_wrong_body_length(self):
        with pytest.raises(GraphParseError):
            w.parse_graph6("D?{{")
        same_graph6_error("D?{{")

    @pytest.mark.parametrize(
        "text",
        ["B@", "C~", "~", "~~", "~?", "~??", "~~??", "~~?????", ">>graph6<<", "  ", "@", "A_", "?"],
    )
    def test_edge_cases_match_reference(self, text):
        assert_parses_like_reference(w.parse_graph6, reference_parse_graph6, text)

    @pytest.mark.parametrize("text", ["A\u00e9", "\u00e9A", "A\udcc3"])
    def test_non_ascii_character_is_refused(self, text):
        # the reference decoder replaces a non-ASCII character with "?", a
        # valid all-zero sextet, and so reads "A\u00e9" as two isolated
        # vertices; the parser refuses it
        with pytest.raises(GraphParseError, match="^invalid graph6 character$"):
            w.parse_graph6(text)

    def test_vertex_limit(self):
        for n in (MAX_VERTICES + 1, 10**9):
            text = _g6_encode_size(n).decode()
            tracemalloc.start()
            try:
                t0 = time.perf_counter()
                with pytest.raises(GraphParseError, match=f"vertex count {n} exceeds"):
                    w.parse_graph6(text)
                elapsed = time.perf_counter() - t0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert elapsed < 0.5 and peak < 100_000

    def test_header_accepted(self):
        assert w.parse_graph6(">>graph6<<D?{") == w.parse_graph6("D?{")

    def test_large_n_size_field(self):
        g = Graph(100, [(0, 99)])
        assert w.parse_graph6(w.to_graph6(g)) == g

    @given(graphs(max_n=12))
    def test_roundtrip(self, g):
        assert w.parse_graph6(w.to_graph6(g)) == g

    def test_matches_reference_encoder_on_samples(self):
        nx = pytest.importorskip("networkx")
        for seed in range(20):
            g = w.gnp_graph(9, 0.4, seed=seed)
            h = nx.Graph()
            h.add_nodes_from(range(9))
            h.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert w.to_graph6(g) == ref

    def test_reencode_corpus_bit_exact(self, corpus):
        # the corpus file was written by an independent encoder, so
        # parse + re-encode reproducing every line pins both directions
        from pathlib import Path

        lines = (Path(__file__).parent / "data" / "connected_upto7.g6").read_text().splitlines()
        assert [w.to_graph6(g) for g in corpus] == lines


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-1)

    def test_equal_graphs_hash_equal(self):
        a, b = Graph(4, [(0, 1), (1, 2), (2, 3)]), w.path_graph(4)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, w.parse_graph6(w.to_graph6(a))}) == 1
        assert a != w.cycle_graph(4)

    def test_adjacency_symmetric(self):
        g = w.path_graph(4)
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_edges_sorted(self):
        g = w.bowtie_graph()
        assert g.edges() == sorted(g.edges())

    def test_accessors_match_networkx_corpus(self, corpus):
        nx = pytest.importorskip("networkx")
        lines = (DATA / "connected_upto7.g6").read_text().splitlines()
        for g, line in zip(corpus, lines):
            ref = nx.from_graph6_bytes(line.encode())
            edges = sorted(tuple(sorted(e)) for e in ref.edges())
            assert g.edges() == edges
            assert g.m == len(edges)
            assert w.to_edge_list(g) == f"{g.n} {len(edges)}\n" + "".join(
                f"{u} {v}\n" for u, v in edges
            )
            for v in range(g.n):
                assert g.neighbors(v) == frozenset(ref[v])
                assert g.degree(v) == ref.degree(v)
                for u in range(g.n):
                    assert g.has_edge(u, v) == ref.has_edge(u, v)

    def test_fingerprints_unchanged_corpus(self, corpus):
        # sha256 over the corpus's newline-joined fingerprint() values
        digest = hashlib.sha256("\n".join(g.fingerprint() for g in corpus).encode())
        assert digest.hexdigest() == (
            "73cafa1afdd363603855e827a2cf1de187a9f9a509eb03c9f9f2e65a2d5a049c"
        )


class TestGnpGraph:
    @pytest.mark.parametrize("p", [1.5, -0.5, float("nan"), float("inf")])
    def test_rejects_p_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            w.gnp_graph(5, p)

    @pytest.mark.parametrize("p", [0, 0.3, 1])
    def test_valid_p_keeps_the_draws(self, p):
        rng = random.Random(5)
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < p]
        assert w.gnp_graph(12, p, seed=5) == Graph(12, edges)

    def test_endpoints(self):
        assert w.gnp_graph(6, 0) == Graph(6)
        assert w.gnp_graph(6, 1) == w.complete_graph(6)
        # the hash earlier releases print for this graph
        assert w.gnp_graph(300, 0.5, seed=7).fingerprint() == "b2db3953155ea4b8"


class TestConnectedComponents:
    def test_path_split(self):
        comps = connected_components(w.path_graph(4), {1})
        assert comps == [frozenset({0}), frozenset({2, 3})]

    def test_remove_everything(self):
        g = w.path_graph(4)
        assert connected_components(g, range(4)) == []

    def test_cycle_single_component(self):
        comps = connected_components(w.cycle_graph(5))
        assert comps == [frozenset(range(5))]

    @given(graphs(max_n=10))
    def test_partition_and_no_crossing_edges(self, g):
        removed = set(range(0, g.n, 3))
        comps = connected_components(g, removed)
        union = set()
        for c in comps:
            assert not (union & c)
            union |= c
        assert union == set(range(g.n)) - removed
        index = {v: i for i, c in enumerate(comps) for v in c}
        for u, v in g.edges():
            if u in index and v in index:
                assert index[u] == index[v]


class TestCliques:
    def test_is_clique(self):
        assert w.is_clique(w.complete_graph(3), range(3))
        assert not w.is_clique(w.path_graph(4), {0, 2})
        assert w.is_clique(w.path_graph(4), {2})
        assert w.is_clique(w.path_graph(4), ())

    def test_is_complete(self):
        assert w.is_complete(w.complete_graph(5))
        assert not w.is_complete(w.path_graph(4))
        assert w.is_complete(w.complete_graph(1))

    def test_max_clique_examples(self):
        assert len(w.max_clique(w.complete_graph(4))) == 4
        assert len(w.max_clique(w.cycle_graph(5))) == 2
        assert len(w.max_clique(w.bowtie_graph())) == 3

    def test_max_clique_is_a_clique(self):
        for seed in range(10):
            g = w.gnp_graph(10, 0.5, seed=seed)
            assert w.is_clique(g, w.max_clique(g))

    def test_max_clique_deterministic(self):
        g = w.gnp_graph(12, 0.5, seed=3)
        assert w.max_clique(g) == w.max_clique(g)

    def test_max_clique_matches_enumeration_n8(self):
        for seed in range(30):
            g = w.gnp_graph(8, 0.5, seed=seed)
            best = max(
                (s for k in range(g.n + 1) for s in combinations(range(g.n), k)
                 if w.is_clique(g, s)),
                key=len,
            )
            assert len(w.max_clique(g)) == len(best)

    def test_max_clique_node_budget(self, monkeypatch):
        # G(60, 0.6) seed 1 is searched in 131 nodes, the root included
        import wtoll.graph

        g = w.gnp_graph(60, 0.6, seed=1)
        clique = w.max_clique(g)
        monkeypatch.setattr(wtoll.graph, "_MAX_CLIQUE_NODE_BUDGET", 131)
        assert w.max_clique(g) == clique
        monkeypatch.setattr(wtoll.graph, "_MAX_CLIQUE_NODE_BUDGET", 130)
        with pytest.raises(w.CapExceededError, match="more than 130 search nodes"):
            w.max_clique(g)

    def test_max_clique_matches_enumeration_corpus(self, corpus):
        for g in corpus:
            best = max(
                (s for k in range(g.n + 1) for s in combinations(range(g.n), k)
                 if w.is_clique(g, s)),
                key=len,
            )
            assert len(w.max_clique(g)) == len(best)



class TestMaskScans:
    """The shared clique test and nonadjacent-pair scan against their
    pairwise definitions, on whole graphs and on random sub-masks."""

    @staticmethod
    def check(g, within):
        pairs = list(combinations([v for v in range(g.n) if within >> v & 1], 2))
        assert list(_nonadjacent_pairs(g._masks, within)) == [
            (u, v) for u, v in pairs if not g.has_edge(u, v)
        ]
        assert _is_clique_mask(g._masks, within) == all(g.has_edge(u, v) for u, v in pairs)

    def test_corpus(self, corpus):
        rng = random.Random(4)
        for g in corpus:
            self.check(g, g._full)
            self.check(g, rng.getrandbits(g.n))

    def test_random_graphs_and_submasks(self):
        rng = random.Random(10)
        for i in range(300):
            n = rng.randint(0, 40)
            g = w.gnp_graph(n, rng.choice((0.0, 0.1, 0.5, 0.9, 1.0)), seed=i)
            self.check(g, g._full)
            for _ in range(4):
                self.check(g, rng.getrandbits(n))
            # cliques, so that the positive answer is reached on larger masks
            clique = mask_of(w.max_clique(g))
            self.check(g, clique)
            self.check(g, clique & rng.getrandbits(n))


class TestBits:
    """``bits`` against the lowest-bit loop: a stored tuple below 2^10, a
    lazy generator above, the same positions in ascending order."""

    def test_every_mask_below_the_table_bound_and_across_it(self):
        assert bits(0) == ()
        for mask in [*range(1 << 10), 1024, 1025]:
            got = list(bits(mask))
            assert got == reference_bits(mask) == sorted(got)

    def test_random_masks_up_to_2_to_the_1200(self):
        rng = random.Random(19)
        for _ in range(2000):
            mask = rng.getrandbits(rng.randint(1, 1200))
            got = list(bits(mask))
            assert got == reference_bits(mask)
            assert all(a < b for a, b in zip(got, got[1:]))

    def test_small_masks_give_the_same_stored_tuple(self):
        for mask in (0, 1, 5, 1023):
            first = bits(mask)
            assert isinstance(first, tuple)
            assert first == tuple(reference_bits(mask))
            assert bits(mask) is first
        assert not isinstance(bits(1024), tuple)

    def test_callers_leave_the_stored_tuples_unchanged(self, corpus):
        before = [tuple(bits(m)) for m in range(1 << 10)]
        for g in corpus:
            if g.n >= 2 and w.is_connected(g):
                for op in (w.wtn, w.wth, w.wtc_exact, w.decompose, w.extreme_vertices):
                    op(g)
                w.hull(g, range(0, g.n, 2))
        assert [bits(m) for m in range(1 << 10)] == before


class TestBulkIOMatchesReference:
    """The bulk parsers and the fingerprint against the line loop and bit
    loop they replaced (``tests/_reference.py``)."""

    @staticmethod
    def check(g, graph6_reference=True):
        el, g6 = w.to_edge_list(g), w.to_graph6(g)
        want = reference_parse_edge_list(el)
        assert_same_graph(w.parse_edge_list(el), want)
        # the reference decoder is quadratic in the bits: seconds on P_1000
        if graph6_reference:
            want = reference_parse_graph6(g6)
        assert_same_graph(w.parse_graph6(g6), want)
        assert want == g and g.fingerprint() == reference_fingerprint(g)

    def test_corpus(self):
        for line in (DATA / "connected_upto7.g6").read_text().splitlines():
            g = w.parse_graph6(line)
            assert_same_graph(g, reference_parse_graph6(line))
            self.check(g)

    def test_random_round_trips(self):
        rng = random.Random(20231)
        for i in range(200):
            n = rng.randint(0, 300 if i % 10 == 0 else 60)
            p = rng.choice((0.0, 0.02, 0.1, 0.35, 0.7, 1.0))
            self.check(w.gnp_graph(n, p, seed=i))

    def test_large(self):
        self.check(w.path_graph(1000), graph6_reference=False)
        self.check(w.gnp_graph(300, 0.35, seed=7))
