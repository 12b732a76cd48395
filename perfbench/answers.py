"""Canonical answer forms shared by the worker and ``make_refs.py``.

An answer is reduced to plain JSON data so that it can be stored in the
reference files and compared with ``==``. Vertex sets become bitmasks
(hex strings for CLI reports, whose sets can have hundreds of vertices;
ints for the small corpus graphs). Timing fields are dropped.
"""

from __future__ import annotations

import hashlib
import json


def mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def canon_report(command: str, result: dict) -> dict:
    """Canonical form of the ``result`` part of a CLI run report."""
    if command in ("interval", "hull", "extreme"):
        return {"set": format(mask(result["set"]), "x"), "size": result["size"]}
    if command in ("wtn", "wth"):
        return {
            "value": result["value"],
            "witness": format(mask(result["witness"]), "x"),
            "case_tag": result["case_tag"],
        }
    if command == "decompose":
        # a decomposition of a 1000-vertex graph is tens of kilobytes, so
        # the reference keeps the atom count and a digest of the atom list
        atoms = json.dumps(result["atoms"], sort_keys=True).encode()
        return {"count": result["count"], "atoms_sha256": hashlib.sha256(atoms).hexdigest()[:32]}
    raise ValueError(f"no canonical form for command {command!r}")


def sweep(ops, graph6: str, pairs) -> dict:
    """One corpus-sweep request: parse once, run every operation.

    ``ops`` supplies the library functions (plain or traced). A
    ``ValueError`` from ``wtc_exact`` is the library's documented refusal
    (graphs on fewer than two vertices) and is kept as the answer.
    """
    g = ops.parse_graph6(graph6)
    out = {
        "twins": ops.twin_classes(g).classes,
        "extreme": ops.extreme_vertices(g),
        "decompose": ops.decompose(g),
        "wtn": ops.wtn(g),
        "wth": ops.wth(g),
    }
    try:
        out["wtc"] = ops.wtc_exact(g)
    except ValueError as exc:
        out["wtc"] = exc
    out["interval"] = [ops.interval(g, p) for p in pairs]
    out["hull"] = [ops.hull(g, p) for p in pairs]
    return out


def _invariant(res) -> list:
    return [res.value, mask(res.witness), res.case_tag]


def canon_sweep(raw: dict) -> dict:
    """Canonical form of :func:`sweep`'s output."""
    wtc = raw["wtc"]
    dec = raw["decompose"]
    return {
        "twins": [mask(c) for c in raw["twins"]],
        "extreme": mask(raw["extreme"]),
        "atoms": [mask(a) for a in dec.atoms],
        "extremal": [int(x) for x in dec.extremal],
        "wtn": _invariant(raw["wtn"]),
        "wth": _invariant(raw["wth"]),
        "wtc": f"refused: {type(wtc).__name__}" if isinstance(wtc, Exception) else _invariant(wtc),
        "interval": [mask(s) for s in raw["interval"]],
        "hull": [mask(s) for s in raw["hull"]],
    }


def nonadjacent_pairs(spec) -> list[tuple[int, int]]:
    """Every nonadjacent pair (u < w) of a generated graph, in order."""
    adj = spec.adjacency()
    return [(u, w) for u in range(spec.n) for w in range(u + 1, spec.n) if w not in adj[u]]
