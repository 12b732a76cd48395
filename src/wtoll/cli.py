"""Command-line interface.

Every analysis command prints one JSON run report:

    {"command": ..., "input": {"n": ..., "m": ..., "hash": ...},
     "result": {...operation payload..., "ms": ...}}

``--plain`` switches to short human-readable lines. Graph files are
edge lists (`.el`, default) or graph6 (`.g6`), auto-detected by extension
and overridable with ``--format``; the path ``-`` reads standard input.
A graph6 input holds exactly one graph (blank lines aside).

Exit codes: 0 success, 2 parse/argument error, 3 disconnected input where
connectivity is required, 4 wtc cap exceeded.
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
from .graph import MAX_VERTICES, Graph, parse_edge_list, parse_graph6, to_edge_list
from .intervals import extreme_vertices, hull, interval
from .invariants import InvariantResult, _least_nonadjacent_pair, wth, wtn
from .twins import TwinPartition, twin_classes

__all__ = ["main", "entry"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "auto":
        fmt = "g6" if path.endswith(".g6") else "el"
    if fmt == "g6":
        lines = [(i, line) for i, line in enumerate(text.splitlines(), 1) if line.strip()]
        if not lines:
            raise GraphParseError("empty graph6 input")
        if len(lines) > 1:
            raise GraphParseError("second graph; a graph6 input holds one graph", lines[1][0])
        return parse_graph6(lines[0][1])
    return parse_edge_list(text)


def _timed(fn, *fn_args):
    t0 = time.perf_counter()
    out = fn(*fn_args)
    return out, round((time.perf_counter() - t0) * 1000.0, 3)


def _set_out(command: str, s: frozenset[int]) -> tuple[dict, str]:
    members = sorted(s)
    return {"set": members, "size": len(members)}, " ".join(map(str, members))


def _invariant_out(command: str, res: InvariantResult) -> tuple[dict, str]:
    witness = sorted(res.witness)
    payload = {"value": res.value, "witness": witness, "case_tag": res.case_tag}
    plain = (
        f"{command} = {res.value} (case {res.case_tag}); "
        f"witness: {' '.join(map(str, witness))}"
    )
    return payload, plain


def _decompose_out(command: str, dec: AtomDecomposition) -> tuple[dict, str]:
    atoms = [
        {"vertices": sorted(a), "shared": sorted(s), "exclusive": sorted(e), "extremal": x}
        for a, s, e, x in zip(dec.atoms, dec.shared, dec.exclusive, dec.extremal)
    ]
    plain = "\n".join(
        f"atom {i}: {{{' '.join(map(str, a['vertices']))}}}"
        f" shared={{{' '.join(map(str, a['shared']))}}}"
        f"{' extremal' if a['extremal'] else ''}"
        for i, a in enumerate(atoms)
    )
    return {"atoms": atoms, "count": len(atoms)}, plain


def _twins_out(command: str, part: TwinPartition) -> tuple[dict, str]:
    classes = [sorted(c) for c in part.classes]
    plain = "\n".join(f"class {i}: {' '.join(map(str, c))}" for i, c in enumerate(classes))
    return {"classes": classes}, plain


# command -> (help, run, out). ``run(g, args)`` names the library function
# at call time, so a function swapped into this module's globals (a tracer,
# a test double) is the one that runs; ``out(command, result)`` returns the
# report payload, which the runner completes with "ms", and the --plain text.
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


def _cmd_analysis(args: argparse.Namespace) -> int:
    _, run, out = _ANALYSES[args.command]
    g = _load_graph(args.graph, args.format)
    result, ms = _timed(run, g, args)
    payload, plain = out(args.command, result)
    payload["ms"] = ms
    report = {
        "command": args.command,
        "input": {"n": g.n, "m": g.m, "hash": g.fingerprint()},
        "result": payload,
    }
    print(plain if args.plain else json.dumps(report, sort_keys=True))
    return 0


def _vertex_count(n: int) -> int:
    """n, refused before anything is built if the parsers would refuse it."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


def _generate(args: argparse.Namespace) -> str:
    family = args.family
    params = args.params
    simple = {
        "path": path_graph,
        "cycle": cycle_graph,
        "complete": complete_graph,
        "star": star_graph,
    }
    if family in simple:
        if len(params) != 1:
            raise ValueError(f"{family} takes one parameter: the vertex count")
        return to_edge_list(simple[family](_vertex_count(int(params[0]))))
    if family == "bowtie":
        if params:
            raise ValueError("bowtie takes no parameters")
        return to_edge_list(bowtie_graph())
    if family == "random-gnp":
        if len(params) != 2:
            raise ValueError("random-gnp takes two parameters: n and p")
        n = _vertex_count(int(params[0]))
        return to_edge_list(gnp_graph(n, float(params[1]), seed=args.seed))
    if family == "clique-reduction":
        if len(params) != 2:
            raise ValueError("clique-reduction takes two parameters: a graph file and k")
        g = _load_graph(params[0], args.format)
        _vertex_count(g.n + g.n * (g.n - 1) // 2 - g.m)  # one added vertex per non-edge
        return reduction_edge_list(clique_reduction(g, int(params[1])))
    raise ValueError(f"unknown family {family!r}")


def _cmd_generate(args: argparse.Namespace) -> int:
    text = _generate(args)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["graph", "n", "m", "op", "value", "ms"])
    root = Path(args.corpus)
    files = sorted(p for p in root.iterdir() if p.suffix in (".el", ".g6"))
    for path in files:
        try:
            g = _load_graph(str(path), args.format)
        except (OSError, GraphParseError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        pair = _least_nonadjacent_pair(g) or ((0, 1) if g.n >= 2 else (0,))
        ops = [
            ("interval", lambda: len(interval(g, pair))),
            ("hull", lambda: len(hull(g, pair))),
            ("wtn", lambda: wtn(g).value),
            ("wth", lambda: wth(g).value),
        ]
        for name, fn in ops:
            try:
                value, ms = _timed(fn)
            except (ValueError, CapExceededError) as exc:
                print(f"warning: {path.name} {name}: {exc}", file=sys.stderr)
                continue
            writer.writerow([path.name, g.n, g.m, name, value, ms])
    text = out.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtoll",
        description="Weakly toll walks, intervals, hulls, and convexity invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("auto", "el", "g6"),
        default="auto",
        help="graph file format (default: by extension, .g6 = graph6, else edge list)",
    )
    common.add_argument(
        "--plain", action="store_true", help="human-readable output instead of JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (doc, _, _) in _ANALYSES.items():
        p = sub.add_parser(name, help=doc, parents=[common])
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

    p = sub.add_parser("generate", help="emit a graph from a named family", parents=[common])
    p.add_argument(
        "family",
        choices=("path", "cycle", "complete", "star", "bowtie", "random-gnp", "clique-reduction"),
    )
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "bench", help="time interval/hull/wtn/wth over a corpus directory", parents=[common]
    )
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
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GraphParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
