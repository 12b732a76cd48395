"""Command-line interface.

Every analysis command prints one JSON run report:

    {"command": ..., "input": {"n": ..., "m": ..., "hash": ...},
     "result": {...operation payload..., "ms": ...}}

``--plain`` switches to short human-readable lines. Graph files are
edge lists (`.el`, default) or graph6 (`.g6`), auto-detected by extension
and overridable with ``--format`` in the analysis commands and
``generate clique-reduction``; the path ``-``
reads standard input. A graph6 input holds exactly one graph (blank lines
aside).

Exit codes: 0 success, 2 parse/argument error, 3 disconnected input where
connectivity is required, 4 wtc cap, wtc maximum-clique search budget
(100,000 search nodes) or wtn search budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from .atoms import AtomDecomposition, decompose
from .convexity import DEFAULT_WTC_CAP, clique_reduction, reduction_edge_list, wtc_exact
from .errors import CapExceededError, DisconnectedGraphError, GraphParseError
from .generators import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    star_graph,
)
from .graph import (
    MAX_VERTICES, Graph, _nonadjacent_pairs, parse_edge_list, parse_graph6, to_edge_list
)
from .intervals import extreme_vertices, hull, interval
from .invariants import InvariantResult, wth, wtn
from .twins import TwinPartition, twin_classes

__all__ = ["main", "entry"]


def _load_graph(path: str, fmt: str) -> Graph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    if fmt == "auto":
        fmt = "g6" if path.endswith(".g6") else "el"
    if fmt == "g6":
        lines = [(i, line) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
        if len(lines) > 1:
            raise GraphParseError("second graph; a graph6 input holds one graph", lines[1][0])
        return parse_graph6(lines[0][1] if lines else "")
    return parse_edge_list(text)


def _set_out(command: str, s: frozenset[int], plain: bool) -> dict | str:
    members = sorted(s)
    if plain:
        return " ".join(map(str, members))
    return {"set": members, "size": len(members)}


def _invariant_out(command: str, res: InvariantResult, plain: bool) -> dict | str:
    witness = sorted(res.witness)
    if plain:
        return (
            f"{command} = {res.value} (case {res.case_tag}); "
            f"witness: {' '.join(map(str, witness))}"
        )
    return {"value": res.value, "witness": witness, "case_tag": res.case_tag}


def _decompose_out(command: str, dec: AtomDecomposition, plain: bool) -> dict | str:
    parts = zip(dec.atoms, dec.shared, dec.exclusive, dec.extremal)
    if plain:
        return "\n".join(
            f"atom {i}: {{{' '.join(map(str, sorted(a)))}}}"
            f" shared={{{' '.join(map(str, sorted(s)))}}}"
            f"{' extremal' if x else ''}"
            for i, (a, s, _, x) in enumerate(parts)
        )
    atoms = [
        {"vertices": sorted(a), "shared": sorted(s), "exclusive": sorted(e), "extremal": x}
        for a, s, e, x in parts
    ]
    return {"atoms": atoms, "count": len(atoms)}


def _twins_out(command: str, part: TwinPartition, plain: bool) -> dict | str:
    classes = [sorted(c) for c in part.classes]
    if plain:
        return "\n".join(f"class {i}: {' '.join(map(str, c))}" for i, c in enumerate(classes))
    return {"classes": classes}


# command -> (help, run, build). ``run(g, args)`` names the library function
# at call time, so a function swapped into this module's globals (a tracer,
# a test double) is the one that runs; ``build(command, result, plain)``
# makes only the form asked for: the --plain text, or the report payload,
# which :func:`_run` completes with "ms".
_ANALYSES = {
    "interval": ("weakly toll interval I(S)", lambda g, a: interval(g, a.vertices), _set_out),
    "hull": ("weakly toll hull H(S)", lambda g, a: hull(g, a.vertices), _set_out),
    "wtn": ("weakly toll interval number", lambda g, a: wtn(g), _invariant_out),
    "wth": ("weakly toll hull number", lambda g, a: wth(g), _invariant_out),
    "wtc": ("weakly toll convexity number", lambda g, a: wtc_exact(g, a.cap), _invariant_out),
    "decompose": ("maximal prime subgraphs (atoms)", lambda g, a: decompose(g), _decompose_out),
    "twins": ("true-twin classes", lambda g, a: twin_classes(g), _twins_out),
    "extreme": ("weakly toll extreme vertices", lambda g, a: extreme_vertices(g), _set_out),
}


def _run(command: str, g: Graph, args: argparse.Namespace) -> dict | str:
    """Run one analysis on g: its --plain text when ``args.plain`` is set,
    else its report payload with the run's "ms"."""
    _, run, build = _ANALYSES[command]
    t0 = time.perf_counter()
    result = run(g, args)
    ms = round((time.perf_counter() - t0) * 1000.0, 3)
    out = build(command, result, args.plain)
    if not args.plain:
        out["ms"] = ms
    return out


def _cmd_analysis(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    out = _run(args.command, g, args)
    if not args.plain:
        out = json.dumps({
            "command": args.command,
            "input": {"n": g.n, "m": g.m, "hash": g.fingerprint()},
            "result": out,
        }, sort_keys=True)
    print(out)
    return 0


def _vertex_count(n: int) -> int:
    """n, refused before anything is built if the parsers would refuse it."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


def _reduction(params: list[str], args: argparse.Namespace) -> str:
    g = _load_graph(params[0], args.format or "auto")
    _vertex_count(g.n + g.n * (g.n - 1) // 2 - g.m)  # one added vertex per non-edge
    return reduction_edge_list(clique_reduction(g, int(params[1])))


# family -> (parameter count, what its usage error says it takes, build).
# ``build(params, args)`` returns the edge-list text and, like the
# _ANALYSES runners, names its generator at call time.
_ONE = "one parameter: the vertex count"
_FAMILIES = {
    "path": (1, _ONE, lambda p, a: to_edge_list(path_graph(_vertex_count(int(p[0]))))),
    "cycle": (1, _ONE, lambda p, a: to_edge_list(cycle_graph(_vertex_count(int(p[0]))))),
    "complete": (1, _ONE, lambda p, a: to_edge_list(complete_graph(_vertex_count(int(p[0]))))),
    "star": (1, _ONE, lambda p, a: to_edge_list(star_graph(_vertex_count(int(p[0]))))),
    "bowtie": (0, "no parameters", lambda p, a: to_edge_list(bowtie_graph())),
    "random-gnp": (2, "two parameters: n and p", lambda p, a: to_edge_list(
        gnp_graph(_vertex_count(int(p[0])), float(p[1]), seed=a.seed))),
    "clique-reduction": (2, "two parameters: a graph file and k", _reduction),
}


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    count, takes, build = _FAMILIES[args.family]
    if len(args.params) != count:
        raise ValueError(f"{args.family} takes {takes}")
    if args.format is not None and args.family != "clique-reduction":
        raise ValueError(f"--format applies to clique-reduction only, not to {args.family}")
    _write(build(args.params, args), args.output)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["graph", "n", "m", "op", "value", "ms"])
    for path in sorted(p for p in Path(args.corpus).iterdir() if p.suffix in (".el", ".g6")):
        try:
            g = _load_graph(str(path), "auto")
        except (OSError, UnicodeDecodeError, GraphParseError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        pair = next(_nonadjacent_pairs(g._masks, g._full), tuple(range(min(g.n, 2))))
        op_args = argparse.Namespace(vertices=pair, plain=False)
        for command in ("interval", "hull", "wtn", "wth"):
            try:  # on a fresh Graph, so each op starts from an empty pair memo
                payload = _run(command, Graph._from_masks(g.n, g._masks), op_args)
            except ValueError as exc:
                print(f"warning: {path.name} {command}: {exc}", file=sys.stderr)
                continue
            value = payload["size"] if "size" in payload else payload["value"]
            writer.writerow([path.name, g.n, g.m, command, value, payload["ms"]])
    _write(out.getvalue(), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtoll",
        description="Weakly toll walks, intervals, hulls, and convexity invariants.",
    )
    format_choices = ("auto", "el", "g6")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument(
        "--format",
        choices=format_choices,
        default="auto",
        help="graph file format (default: by extension, .g6 = graph6, else edge list)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (doc, _, _) in _ANALYSES.items():
        p = sub.add_parser(name, help=doc, parents=[formats])
        p.add_argument(
            "--plain", action="store_true", help="human-readable output instead of JSON"
        )
        p.add_argument("graph")
        if name in ("interval", "hull"):
            p.add_argument("vertices", nargs="+", type=int)
        if name == "wtc":
            p.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_WTC_CAP,
                help="max n for the exhaustive search on reducible graphs",
            )
        p.set_defaults(func=_cmd_analysis)

    p = sub.add_parser("generate", help="emit a graph from a named family")
    p.add_argument(
        "--format",
        choices=format_choices,
        help="clique-reduction only: the input graph's format (default: by extension)",
    )
    p.add_argument(
        "family",
        choices=tuple(_FAMILIES),
    )
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="time interval/hull/wtn/wth over a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_bench)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # GraphParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DisconnectedGraphError):
            return 3
        return 4 if isinstance(exc, CapExceededError) else 2


def entry() -> None:
    sys.exit(main())
