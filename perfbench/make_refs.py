"""Regenerate the reference answers in ``perfbench/refs/``.

Usage, from the root of a checkout whose library gives the reference
answers (they were made at the commit that introduced this benchmark):

    PYTHONPATH=src python3 perfbench/make_refs.py

This is never run by the benchmark itself: a run compares the program's
answers with the stored ones and never recomputes a reference with the
code under test.

Every answer records its source, in this order of preference:

- ``oracle`` / ``brute_force``: the walk-enumeration oracle
  (``wtoll.oracle``) and the brute-force solvers agree with the answer
  (graphs on at most 10 vertices);
- ``closed_form``: paths, clique chains and trees have known answers
  (for P_n the extreme set and the wtn/wth witness are the two ends, the
  atoms are the edges; for a chain of cliques the extreme set and the
  witnesses are the private vertices of the two end cliques, the atoms
  are the cliques), and the answer matches them;
- ``seed_commit``: the library's own answer at that commit, used only
  where neither applies (large random graphs, case tags, witnesses beyond
  their verified properties).

A mismatch with an oracle or a closed form aborts the script.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import wtoll
import wtoll.cli
from wtoll.oracle import oracle_interval

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import workloads  # noqa: E402

ORACLE_CAP = 10


class RefError(RuntimeError):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise RefError(what)


def _cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wtoll.cli.main(argv)
    if code != 0:
        raise RefError(f"wtoll {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


class Oracle:
    """Answers for one small graph derived from oracle pair intervals."""

    def __init__(self, spec):
        self.n = spec.n
        self.full = (1 << spec.n) - 1
        g = wtoll.Graph(spec.n, spec.edges)
        self.pairs = answers.nonadjacent_pairs(spec)
        self.pair_interval = {
            (u, w): answers.mask(oracle_interval(g, (u, w), cap=ORACLE_CAP))
            for u, w in self.pairs
        }

    def interval(self, s: int) -> int:
        out = s
        for (u, w), m in self.pair_interval.items():
            if s >> u & 1 and s >> w & 1:
                out |= m
        return out

    def hull(self, s: int) -> int:
        while True:
            nxt = self.interval(s)
            if nxt == s:
                return s
            s = nxt

    def extreme(self) -> int:
        inner = 0
        for (u, w), m in self.pair_interval.items():
            inner |= m & ~(1 << u) & ~(1 << w)
        return self.full & ~inner

    def min_cover(self, op) -> int:
        return min(bin(s).count("1") for s in range(1, self.full + 1) if op(s) == self.full)

    def max_proper_convex(self) -> int:
        return max(bin(s).count("1") for s in range(1, self.full)
                   if self.interval(s) == s)


def _check_invariant(o: Oracle, canon: list, value: int, op, what: str) -> None:
    got_value, witness, _tag = canon
    _expect(got_value == value, f"{what}: value {got_value}, oracle {value}")
    _expect(bin(witness).count("1") == value and op(witness) == o.full,
            f"{what}: witness {witness:x} does not cover")


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def _atom_sets(report: dict) -> set[frozenset]:
    return {frozenset(a["vertices"]) for a in report["result"]["atoms"]}


def _closed_form(req, report, perm) -> str | None:
    """Check a sparse-chain answer against its family's closed form."""
    family = req.graph.gid.split("/")[1].rsplit("-", 1)[0]
    cmd = req.command
    res = report["result"]
    if family == "path":
        n = req.graph.n
        ends = {perm[0], perm[n - 1]}
        if cmd == "extreme":
            _expect(set(res["set"]) == ends, f"{req.key}: extreme")
        elif cmd in ("wtn", "wth"):
            _expect(res["value"] == 2 and set(res["witness"]) == ends, f"{req.key}: {cmd}")
        else:
            _expect(_atom_sets(report) == {frozenset(e) for e in req.graph.edges}, f"{req.key}")
        return "closed_form"
    if family == "clique-chain":
        k, s = map(int, req.graph.gid.split("/")[1].rsplit("-", 1)[1].split("x"))
        blocks = [frozenset(perm[v] for v in range(c * (s - 1), c * (s - 1) + s))
                  for c in range(k)]
        cuts = {perm[c * (s - 1)] for c in range(1, k)}
        private = (blocks[0] | blocks[-1]) - cuts
        if cmd == "extreme":
            _expect(set(res["set"]) == private, f"{req.key}: extreme")
        elif cmd in ("wtn", "wth"):
            _expect(res["value"] == len(private) and set(res["witness"]) == private,
                    f"{req.key}: {cmd}")
        else:
            _expect(_atom_sets(report) == set(blocks), f"{req.key}: atoms")
        return "closed_form"
    if family == "caterpillar" and cmd == "decompose":
        _expect(_atom_sets(report) == {frozenset(e) for e in req.graph.edges}, f"{req.key}")
        return "closed_form"
    return None


def _write(path: Path, data: dict) -> None:
    """JSON with one answer (or graph) per line, so diffs stay readable."""
    parts = []
    for key, value in sorted(data.items()):
        if key in ("answers", "inputs"):
            rows = ",\n".join(
                f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                for k, v in sorted(value.items()))
            parts.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def _oracle_cli(req, report) -> str:
    g = req.graph
    o = Oracle(g)
    res = report["result"]
    cmd = req.command
    if cmd in ("interval", "hull"):
        s = answers.mask(req.args)
        want = o.interval(s) if cmd == "interval" else o.hull(s)
        _expect(answers.mask(res["set"]) == want, f"{req.key}: oracle {cmd}")
        return "oracle"
    if cmd == "extreme":
        _expect(answers.mask(res["set"]) == o.extreme(), f"{req.key}: oracle extreme")
        return "oracle"
    if cmd in ("wtn", "wth"):
        op = o.interval if cmd == "wtn" else o.hull
        canon = [res["value"], answers.mask(res["witness"]), res["case_tag"]]
        _check_invariant(o, canon, o.min_cover(op), op, req.key)
        return "oracle (value, witness); case_tag: seed_commit"
    atoms_bf = set(wtoll.brute_force_atoms(wtoll.Graph(g.n, g.edges)))
    _expect(_atom_sets(report) == atoms_bf, f"{req.key}: brute-force atoms")
    return "brute_force (atoms); flags: seed_commit"


def cli_refs(workload: str, scratch: Path) -> dict:
    inputs: dict = {}
    refs: dict = {}
    for scale in workloads.SCALES:
        for req in workloads.pool(workload, scale):
            g = req.graph
            path = scratch / (g.gid.replace("/", "_") + ".el")
            if g.gid not in inputs:
                path.write_text(g.edge_list_text())
            report = _cli([req.command, str(path), *map(str, req.args)])
            inputs.setdefault(g.gid, report["input"])
            _expect(report["input"] == inputs[g.gid]
                    and report["input"]["n"] == g.n
                    and report["input"]["m"] == len(g.edges), f"{req.key}: input")
            source = None
            if g.n <= ORACLE_CAP:
                source = _oracle_cli(req, report)
            elif workload == "sparse-chain":
                family, tag = g.gid.split("/")[1].rsplit("-", 1)
                if family != "sparse-gnp":
                    size = int(tag) if "x" not in tag else tuple(map(int, tag.split("x")))
                    k = int(g.gid.rsplit("/g", 1)[1])
                    perm = workloads.sparse_instance(family, size, k)[1]
                    source = _closed_form(req, report, perm)
            if source is None:
                source = "seed_commit"
            elif source == "closed_form" and req.command in ("wtn", "wth"):
                source = "closed_form (value, witness); case_tag: seed_commit"
            elif source == "closed_form" and req.command == "decompose":
                source = "closed_form (atoms); flags: seed_commit"
            refs[req.key] = {
                "answer": answers.canon_report(req.command, report["result"]),
                "source": source,
            }
    return {"inputs": inputs, "answers": refs}


# ---------------------------------------------------------------------------
# corpus sweep
# ---------------------------------------------------------------------------

def _twins_by_definition(spec) -> list[int]:
    adj = spec.adjacency()
    groups: dict[frozenset, list[int]] = {}
    for v in range(spec.n):
        groups.setdefault(frozenset(adj[v] | {v}), []).append(v)
    return [answers.mask(ms) for ms in sorted(groups.values(), key=lambda ms: ms[0])]


def sweep_refs() -> dict:
    ops = SimpleNamespace(
        parse_graph6=wtoll.parse_graph6, twin_classes=wtoll.twin_classes,
        extreme_vertices=wtoll.extreme_vertices, decompose=wtoll.decompose,
        wtn=wtoll.wtn, wth=wtoll.wth, wtc_exact=wtoll.wtc_exact,
        interval=wtoll.interval, hull=wtoll.hull,
    )
    refs: dict = {}
    source = {
        "twins": "definition (equal closed neighborhoods)",
        "extreme": "oracle",
        "atoms": "brute_force",
        "extremal": "seed_commit",
        "wtn": "oracle (value, witness); case_tag: seed_commit",
        "wth": "oracle (value, witness); case_tag: seed_commit",
        "wtc": "oracle (value, witness); case_tag: seed_commit; n = 1: documented refusal",
        "interval": "oracle",
        "hull": "oracle",
    }
    for scale in workloads.SCALES:
        for req in workloads.pool("corpus-sweep", scale):
            if req.key in refs:
                continue
            g = req.graph
            pairs = answers.nonadjacent_pairs(g)
            got = answers.canon_sweep(answers.sweep(ops, g.graph6(), pairs))
            o = Oracle(g)
            key = req.key
            _expect(got["twins"] == _twins_by_definition(g), f"{key}: twins")
            _expect(got["extreme"] == o.extreme(), f"{key}: extreme")
            atoms_bf = sorted(answers.mask(a) for a in
                              wtoll.brute_force_atoms(wtoll.Graph(g.n, g.edges)))
            _expect(sorted(got["atoms"]) == atoms_bf, f"{key}: atoms")
            _check_invariant(o, got["wtn"], o.min_cover(o.interval), o.interval, f"{key} wtn")
            _check_invariant(o, got["wth"], o.min_cover(o.hull), o.hull, f"{key} wth")
            if g.n < 2:
                _expect(got["wtc"] == "refused: ValueError", f"{key}: wtc refusal")
            else:
                value, witness, _ = got["wtc"]
                _expect(value == o.max_proper_convex(), f"{key}: wtc value")
                _expect(bin(witness).count("1") == value and o.interval(witness) == witness,
                        f"{key}: wtc witness")
            _expect(got["interval"] == [o.pair_interval[p] for p in pairs], f"{key}: I")
            _expect(got["hull"] == [o.hull(answers.mask(p)) for p in pairs], f"{key}: H")
            refs[key] = {"answer": got}
    return {"source": source, "answers": refs}


def main() -> int:
    out_dir = HERE / "refs"
    out_dir.mkdir(exist_ok=True)
    scratch = HERE / "out" / "make_refs"
    scratch.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        data = sweep_refs() if workload == "corpus-sweep" else cli_refs(workload, scratch)
        data = {"wtoll_version": wtoll.__version__, **data}
        _write(out_dir / f"{workload}.json", data)
        print(f"{workload}: {len(data['answers'])} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
