import hashlib
import random
import time
import tracemalloc
from functools import reduce
from itertools import combinations, islice
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtoll as w
from wtoll import Graph, GraphParseError
from wtoll.graph import (
    MAX_VERTICES,
    _g6_encode_size,
    _is_clique_mask,
    _nonadjacent_pairs,
    bits,
    mask_of,
)

from _reference import (
    reference_bits,
    reference_fingerprint,
    reference_is_bare,
    reference_parse_edge_list,
    reference_parse_graph6,
    reference_to_edge_list,
)
from _strategies import connected_components, graphs, shuffled

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
    "4 1\n0 99999999999999\n",  # an endpoint far above n
    "4 1\n99999999999999 0\n",
]

# Valid text and the branch that reads it: bare text below 16 tokens per
# vertex is read per edge, but n = 0 has no vertex, so the rows read it;
# blanks, tabs and blank lines take the line loop
BULK_CASES = [
    ("5 0", "per-edge"),  # header only
    ("5 0\n", "per-edge"),
    ("\n\n5 0\n\n", "lines"),
    ("4 3\n0 1\n1 2\n2 3", "per-edge"),  # no final newline
    ("4 3 \n0 1  \n\t1\t2\t\n  2 3 ", "lines"),  # trailing and leading blanks
    ("4 3\n\n0 1\n \n1 2\n\t\n2 3\n\n", "lines"),
    ("3 1\n2 0\n0 2\n", "per-edge"),
    ("0 0\n", "rows"),
    ("8 2\n007 1\n1 2\n", "per-edge"),  # leading zeros
    ("8 2\n7 1\n007 1\n", "per-edge"),  # one vertex spelled two ways
    (f"{MAX_VERTICES} 1\n0 {MAX_VERTICES - 1}\n", "per-edge"),
    ("4 2\n0\t1\n1\t2\n", "lines"),
    ("0 0", "rows"),
]


def _with_many_tokens(text):
    """``text`` with 4n "0 1" lines after its header line, so that the
    bulk read meets at least 8 tokens per vertex, but under 16, and
    still reads bare text per edge, not by rows; None unless the header
    starts with an n from 2 to 100."""
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
    and their transposition, which read canonical text only and give any
    other text to "per-edge", one conversion per token, and "lines" for
    the line loop, which also decides what a bulk branch refuses."""
    import wtoll.graph

    taken = []
    dense_masks, masks_per_edge = wtoll.graph._dense_masks, wtoll.graph._masks_per_edge
    parse_lines = wtoll.graph._parse_edge_list_lines

    def rows(n, tokens):
        taken.append("rows")
        return dense_masks(n, tokens)

    def per_edge(n, ids):
        taken.append("per-edge")
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

    @pytest.mark.parametrize("text, branch", BULK_CASES)
    def test_bulk_path_matches_reference(self, bulk_branches, text, branch):
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert bulk_branches == [branch]

    @pytest.mark.parametrize(
        "text",
        [
            t
            for t in map(_with_many_tokens, FALLBACK_CASES + [t for t, _ in BULK_CASES])
            if t is not None
        ],
    )
    def test_many_tokens_match_reference(self, bulk_branches, text):
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert bulk_branches in (["lines"], ["per-edge"], ["per-edge", "lines"])

    @pytest.mark.parametrize("text", ["4 1\n0 99999999999999\n", "4 1\n99999999999999 0\n"])
    def test_far_endpoint_is_refused_before_any_shift(self, bulk_branches, text):
        # 1 << 99999999999999 would take about 12 TB; the per-edge read
        # loads both masks first, so the id fails as an index and the line
        # loop names the line
        with pytest.raises(GraphParseError, match="line 2: vertex out of range") as exc:
            w.parse_edge_list(text)
        assert exc.value.line == 2
        assert bulk_branches == ["per-edge", "lines"]

    def test_shape_check_is_line_local(self):
        # a long plain file with a bad last line: the check for a bad line
        # does not backtrack across lines
        text = "3 2\n" + "0 1\n1 2\n" * 10_000 + "2\n"
        t0 = time.perf_counter()
        with pytest.raises(GraphParseError, match="line 20002: expected two integers"):
            w.parse_edge_list(text)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0

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
    def test_bare_shape(self, bulk_branches, text, bare):
        # a bulk branch runs first exactly when the text is bare
        assert reference_is_bare(text) is bare
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert (bulk_branches[0] != "lines") is bare

    @pytest.mark.parametrize(
        "text",
        [
            "4 2\n0 1\n2 \n",  # a lone number before the space
            "4 2\n0 1\n 3",  # a lone number after it
            "4 2\n12 \n 3\n",
            "4 2\n 1\n0 1\n",
            "5 \n",  # a lone number on the header
            " 5\n0 1\n",
            "4 1\n \n0 1\n",  # a line of one space, which the line loop skips
            " \n4 1\n0 1",
            "4 1\n0 1\n \n",
            "4 2\n0 1\n2 3\n \n",
        ],
    )
    def test_skeleton_without_two_numbers_per_line(self, bulk_branches, text):
        # the digit-deleted skeleton reads " \n" per line, but a line holds
        # fewer than two numbers: the token count sends it to the line loop
        assert not reference_is_bare(text)
        skeleton = text.encode().translate(None, b"0123456789")
        if not text.endswith("\n"):
            skeleton += b"\n"
        assert skeleton == b" \n" * (len(skeleton) // 2)
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert bulk_branches == ["lines"]

    def test_header_only_file_allocates_no_name_table(self):
        # a header-only file is below 16 tokens per vertex, so it is read
        # per edge and no table of n vertex names is built
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
        got = w.parse_edge_list(text)
        assert got == g and got.m == g.m
        assert got.fingerprint() == g.fingerprint() == reference_fingerprint(g)


def _first_edges(n, k):
    """Edge list text of the first k pairs of ``combinations(range(n), 2)``."""
    return f"{n} {k}\n" + "".join(f"{u} {v}\n" for u, v in islice(combinations(range(n), 2), k))


def _lengthened(text, length):
    """``text`` with repeated edge lines "0 10" and "0 1" added up to
    ``length`` characters, so that it stays bare."""
    extra = length - len(text)
    tens = extra % 4  # 5 * tens + 4 * ones == extra
    assert extra >= 5 * tens
    return text + "0 10\n" * tens + "0 1\n" * ((extra - 5 * tens) // 4)


# n = 1000 with 8,000 edge lines (16 tokens per vertex), short of n²/2
# characters, so only the length decides
_LONG_ROWS = "1000 8000\n" + "".join(f"{i % 1000} {(7 * i + 1) % 1000}\n" for i in range(8_000))


class TestBulkBranches:
    """Each bulk branch is pinned with its own inputs, on both sides of
    the switch: bare text goes to the rows from 16 tokens per vertex with
    n² at most twice the text length, else per edge. The rows read
    canonical text only, and give the repeated lines below to the
    per-edge read."""

    @pytest.mark.parametrize(
        "text, branches",
        [
            pytest.param(_first_edges(64, 512), ["rows"], id="16n tokens"),
            pytest.param(_first_edges(64, 511), ["per-edge"], id="16n - 2 tokens"),
            pytest.param(_first_edges(64, 256), ["per-edge"], id="8n tokens"),
            pytest.param(_first_edges(64, 255), ["per-edge"], id="8n - 2 tokens"),
            pytest.param(_first_edges(3, 0), ["per-edge"], id="header only"),
            pytest.param(_lengthened(_LONG_ROWS, 500_000), ["rows", "per-edge"], id="n² = 2 len"),
            pytest.param(_lengthened(_LONG_ROWS, 499_999), ["per-edge"], id="n² = 2 len + 2"),
            pytest.param("0 0\n", ["rows"], id="n = 0"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 8, ["rows", "per-edge"], id="n = 2, 16n tokens"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 7 + "0 1\n", ["per-edge"], id="n = 2, 16n - 2"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 4, ["per-edge"], id="n = 2, 8n tokens"),
            pytest.param("2 1\n" + "0 1\n1 0\n" * 3 + "0 1\n", ["per-edge"], id="n = 2, 8n - 2"),
        ],
    )
    def test_branch_at_each_switch(self, bulk_branches, text, branches):
        assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        assert bulk_branches == branches


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


# The dense cases that are not canonical, with every token the rows look
# up before their first failing run a vertex name as written: the rows
# give them to the per-edge read
_READ_PER_EDGE = {
    "reversed", "shuffled", "reversed and shuffled", "duplicate both ways",
    "duplicate of a line", "self-loop", "self-loop last",
    "one vertex spelled two ways", "n = 1", "n = 2",
}


class TestDenseBranchParity:
    @pytest.mark.parametrize("name, text", DENSE_CASES.items(), ids=DENSE_CASES.keys())
    def test_matches_reference(self, bulk_branches, name, text):
        # the per-edge read converts a padded id with int; only the line
        # loop names a bad line or reads a padded id the rows' table misses
        error = assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
        per_edge = name in _READ_PER_EDGE
        lines = bool(error) or (_padded_id(text) and not per_edge)
        assert bulk_branches == ["rows"] + ["per-edge"] * per_edge + ["lines"] * lines

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
        assert rows >= 75  # most draws go to the rows first

    def test_random_per_edge_texts(self, bulk_branches):
        # texts read per edge: 8 to 15 tokens per vertex, or from 16 with
        # n² above twice the text length; a padded id is converted there
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
            if rng.random() < 0.3:
                lines = [" ".join("0" + x for x in line.split()) for line in lines]
            text = _text(head, lines)
            error = assert_parses_like_reference(w.parse_edge_list, reference_parse_edge_list, text)
            assert bulk_branches == (["per-edge", "lines"] if error else ["per-edge"])
            bulk_branches.clear()


class TestBulkReadMemory:
    def test_sparse_text_with_a_large_n_builds_no_rows(self, bulk_branches):
        # no table of vertex names, no powers of two and no transposition
        # is made below the switch, however large n is
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
        assert bulk_branches == ["per-edge"] * 3

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
        # the token list, about 12 bytes per byte of text, dominates; 15.7
        # times the text was measured (16.1 while the token list outlived
        # the hash, 14.5 before the lines were read in runs, 13.1 before
        # the rows)
        text = w.to_edge_list(w.gnp_graph(300, 0.5, seed=1))
        peak = self.parse_peak(text)
        assert bulk_branches == ["rows", "rows"]
        assert peak < 20 * len(text)

    @pytest.mark.parametrize("p", [0.008, 0.016])
    def test_per_edge_parse_peak_within_20_times_the_text(self, bulk_branches, p):
        # 8.15 and 16.1 tokens per vertex; at 16.1 n² is over twice the
        # text length, so both are read per edge. 17.1 and 14.9 times the
        # text were measured with the edge order proved in the mask loop
        # and the padding test run once the token list is freed, most of
        # it the token list (17.3 and 15.0 with no proof, 20.1 and 16.4
        # with the ids listed first or looked up in a table of names)
        text = w.to_edge_list(w.gnp_graph(1000, p, seed=5))
        peak = self.parse_peak(text)
        assert bulk_branches == ["per-edge", "per-edge"]
        assert peak < 20 * len(text)


def _row_graph(n, row, clique_from):
    """Vertex 0 joined to ``row``, plus a clique on ``clique_from``..n-1."""
    edges = [(0, v) for v in row]
    edges += combinations(range(clique_from, n), 2)
    return Graph(n, edges)


class TestFingerprintMatchesReference:
    """``Graph.fingerprint`` hashes one edge line per edge; it must give
    the reference's payload on sparse, dense and partly full rows."""

    @pytest.mark.parametrize(
        "k, top",
        [(8, 127), (8, 128), (8, 129), (7, 100), (9, 144), (9, 145), (299, 299)],
    )
    def test_one_row_beside_a_clique(self, k, top):
        # row 0 has k neighbors, the highest at ``top``; the clique on
        # 200..299 (4,950 edges) makes the other rows full
        row = [top] + random.Random(top).sample(range(1, top), k - 1)
        g = _row_graph(300, row, 200)
        assert g.fingerprint() == reference_fingerprint(g)

    def test_star(self):
        g = w.star_graph(300)
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
    """Dense canonical text, read by rows, stores its hash, one sha256 of
    the text; dense text that is not canonical, which the rows give to
    the per-edge read, and text that is not bare store nothing (sparse
    text: ``TestPerEdgeTextFingerprint``). Either way ``fingerprint()``
    gives the reference's hash and a ``_from_masks`` copy's, which is
    built from the masks."""

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
        assert reference_is_bare(text)
        assert self.check(text, stored=False) == w.parse_edge_list(_text(_HEAD, _LINES))
        assert bulk_branches == ["rows", "per-edge", "rows"]

    def test_text_that_is_not_bare_stores_nothing(self, bulk_branches):
        # tabs take the line loop, which never proves text canonical
        text = _text(_HEAD, _LINES).replace(" ", "\t")
        self.check(text, stored=False)
        assert bulk_branches == ["lines"]

    def test_canonical_text_builds_no_payload(self, monkeypatch):
        import wtoll.graph

        def no_payload(*args):
            raise AssertionError("fingerprint() listed the edges")

        g = w.parse_edge_list(_text(_CI_HEAD, _CI_LINES))
        monkeypatch.setattr(wtoll.graph, "bits", no_payload)
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
            n = rng.randint(40, 80)  # at least 23 tokens per vertex, so sent to the rows
            g = w.gnp_graph(n, rng.choice((0.6, 0.8, 1.0)), seed=rng.randrange(10**6))
            head, *lines = w.to_edge_list(g).splitlines()
            k = rng.randrange(len(lines))
            lines.insert(k, lines[k])
            u = lines[k].split()[0]
            run = [1 << int(x.split()[1]) for x in lines if x.split()[0] == u]
            assert sum(run) != reduce(or_, run)
            assert self.check(_text(head, lines), stored=False) == g
            assert bulk_branches == ["rows", "per-edge"]
            bulk_branches.clear()


# A shuffled P_90 as written: 2 tokens per vertex, so read per edge
_PATH_HEAD, *_PATH_LINES = w.to_edge_list(shuffled(w.path_graph(90), 30)).splitlines()


def _padded(lines, k):
    """``lines`` with a leading zero on the k-th name (two per line)."""
    tokens = " ".join(lines).split()
    tokens[k] = "0" + tokens[k]
    return [" ".join(tokens[i:i + 2]) for i in range(0, len(tokens), 2)]


class TestPerEdgeTextFingerprint:
    """The per-edge read proves the edge order as it streams and tests the
    text for zero-padded names once: canonical text stores its hash, one
    sha256 of the text, as the rows do, and every other text stores
    nothing. Either way ``fingerprint()`` gives the reference's hash."""

    check = staticmethod(TestTextFingerprint.check)

    CANONICAL = {
        "final newline": _text(_PATH_HEAD, _PATH_LINES),
        "no final newline": "\n".join([_PATH_HEAD, *_PATH_LINES]),
        "zero-padded header": _text("090 089", _PATH_LINES),
    }

    @pytest.mark.parametrize("text", CANONICAL.values(), ids=CANONICAL.keys())
    def test_canonical_text_stores_the_hash(self, bulk_branches, text):
        g = self.check(text, stored=True)
        assert g.n == 90 and bulk_branches == ["per-edge"]
        assert g.fingerprint() == shuffled(w.path_graph(90), 30).fingerprint()

    NOT_CANONICAL = {
        "a line repeated in its place": _text(_PATH_HEAD, _PATH_LINES[:5] + _PATH_LINES[4:]),
        "a line repeated later": _text(_PATH_HEAD, _PATH_LINES + _PATH_LINES[:1]),
        "a line written v u": _text(
            _PATH_HEAD, _PATH_LINES[:9] + _flipped(_PATH_LINES[9:10]) + _PATH_LINES[10:]
        ),
        "the last line written v u": _text(
            _PATH_HEAD, _PATH_LINES[:-1] + _flipped(_PATH_LINES[-1:])
        ),
        "two lines of one row swapped": _text(_PATH_HEAD, _swapped_in_a_row(_PATH_LINES)),
        "two rows out of order": _text(_PATH_HEAD, _rows_swapped(_PATH_LINES)),
        "every name zero-padded": _text(
            _PATH_HEAD, [" ".join("0" + x for x in line.split()) for line in _PATH_LINES]
        ),
        "the first name zero-padded": _text(_PATH_HEAD, _padded(_PATH_LINES, 0)),
        "a second endpoint zero-padded": _text(_PATH_HEAD, _padded(_PATH_LINES, 41)),
        "the last name zero-padded, no final newline": "\n".join(
            [_PATH_HEAD, *_padded(_PATH_LINES, -1)]
        ),
        "07-style names": _text(
            _PATH_HEAD, [" ".join(x.zfill(2) for x in line.split()) for line in _PATH_LINES]
        ),
        "0 written 00": _text(
            _PATH_HEAD, ["0" + x if x.startswith("0 ") else x for x in _PATH_LINES]
        ),
    }

    @pytest.mark.parametrize("text", NOT_CANONICAL.values(), ids=NOT_CANONICAL.keys())
    def test_other_bare_text_stores_nothing(self, bulk_branches, text):
        assert reference_is_bare(text) and text != self.CANONICAL["final newline"]
        assert self.check(text, stored=False) == shuffled(w.path_graph(90), 30)
        assert bulk_branches == ["per-edge"]

    def test_random_sparse_texts(self, bulk_branches):
        # a hash is stored exactly when the edge lines are the graph's own
        rng = random.Random(30)
        stored = 0
        for _ in range(300):
            n = rng.randint(2, 60)
            g = w.gnp_graph(n, rng.choice((0.03, 0.06, 0.12)), seed=rng.randrange(10**6))
            head, *lines = w.to_edge_list(g).splitlines()
            r = rng.random()
            if r < 0.15 and lines:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            elif r < 0.3 and len(lines) > 1:
                k = rng.randrange(len(lines) - 1)
                lines[k], lines[k + 1] = lines[k + 1], lines[k]
            elif r < 0.45 and lines:
                lines = _padded(lines, rng.randrange(2 * len(lines)))
            elif r < 0.6 and lines:
                k = rng.randrange(len(lines))
                lines[k:k + 1] = _flipped(lines[k:k + 1])
            text = "\n".join([head, *lines]) + "\n" * (rng.random() < 0.7)
            h = w.parse_edge_list(text)
            own = w.to_edge_list(h).partition("\n")[2].removesuffix("\n")
            canonical = "fingerprint" in h._derived
            assert canonical == ("\n".join(lines) == own)
            assert h.fingerprint() == reference_fingerprint(h) == reference_fingerprint(g)
            stored += canonical
            assert bulk_branches == ["per-edge"]
            bulk_branches.clear()
        assert 100 <= stored <= 200  # 128: about 40 % of the texts are left as written


class TestEdgeListWriter:
    """``to_edge_list`` writes the reference's text byte for byte, with
    no comment and with one that spans several lines, and the text it
    writes, read back by either bulk branch, stores the graph's own
    hash."""

    COMMENTS = [(), ["G(n, p)", "two\nlines\r\nand a third", ""]]

    def check(self, bulk_branches, g):
        """Whether the rows read the text back."""
        for comments in self.COMMENTS:
            assert w.to_edge_list(g, comments) == reference_to_edge_list(g, comments)
        bulk_branches.clear()
        h = w.parse_edge_list(w.to_edge_list(g))
        assert h == g
        assert bulk_branches in (["rows"], ["per-edge"])
        assert h._derived["fingerprint"] == g.fingerprint() == reference_fingerprint(g)
        return bulk_branches == ["rows"]

    def test_corpus(self, bulk_branches, corpus):
        for g in corpus:
            self.check(bulk_branches, g)

    def test_random_graphs(self, bulk_branches):
        rng = random.Random(29)
        rows = 0
        for _ in range(40):
            n = rng.randint(2, 300)
            p = rng.choice((0.02, 0.1, 0.3, 0.6, 0.9, 1.0))
            rows += self.check(bulk_branches, w.gnp_graph(n, p, seed=rng.randrange(10**6)))
        assert rows >= 10  # the rows read the denser draws

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, bulk_branches, n):
        # a header alone: n = 0 meets the rows' bounds, the others are read
        # per edge, and each stores the hash of no lines
        assert self.check(bulk_branches, Graph(n)) is (n == 0)


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
