"""Span tracing at the module boundaries of ``wtoll``, for traced runs only.

The benchmark wraps the public functions that ``cli``, ``invariants``,
``twins`` and ``convexity`` import from ``graph``, ``intervals``,
``twins``, ``atoms``, ``invariants`` and ``convexity``; calls inside one
module are not split. Private helpers (``_interval_mask``, which the wtn
search calls directly) and the bit-level helpers (``bits``, ``mask_of``)
stay unwrapped, so their time is self time of the caller.

Each call records a span (name, start, end, parent span, request id).
Self time is a span's duration minus what its child spans cover; it is
accumulated as spans close, so memory stays bounded however long the
run. The first ``MAX_DUMP`` spans are kept for the dump file.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

ROOT = "bench.request"
MAX_DUMP = 200_000

# (module, function) -> span name
WRAPPED = {
    ("graph", "parse_edge_list"): "graph.parse",
    ("graph", "parse_graph6"): "graph.parse",
    ("graph", "is_connected"): "graph.is_connected",
    ("graph", "is_complete"): "graph.is_complete",
    ("graph", "is_clique"): "graph.is_clique",
    ("graph", "max_clique"): "graph.max_clique",
    ("intervals", "interval"): "intervals.interval",
    ("intervals", "hull"): "intervals.hull",
    ("intervals", "is_convex"): "intervals.is_convex",
    ("intervals", "extreme_vertices"): "intervals.extreme_vertices",
    ("intervals", "is_extreme_vertex"): "intervals.is_extreme_vertex",
    ("twins", "twin_classes"): "twins.twin_classes",
    ("twins", "extreme_twin_classes"): "twins.extreme_twin_classes",
    ("atoms", "decompose"): "atoms.decompose",
    ("atoms", "is_prime"): "atoms.is_prime",
    ("invariants", "wtn"): "invariants.wtn",
    ("invariants", "wth"): "invariants.wth",
    ("convexity", "wtc_exact"): "convexity.wtc_exact",
}
IMPORTERS = ("cli", "invariants", "twins", "convexity")

SPAN_NAMES = ("cli.main", *dict.fromkeys(WRAPPED.values()), ROOT)
INVARIANT_TAGS = (
    "COMPLETE", "WTN_K0", "WTN_K1", "WTN_K2", "PRIME_PAIR", "THREE_EXTREMAL",
    "EXCLUSIVE_NOT_CLIQUE", "TWO_EXTREMAL_BOTH_EXTREME", "TWO_EXTREMAL_ONE_EXTREME",
    "TWO_EXTREMAL_NONE_EXTREME",
)
CONVEXITY_TAGS = ("COMPLETE", "PRIME_MAX_CLIQUE", "EXHAUSTIVE", "REFUSED")
COUNTS = (
    "atoms.atoms_out",
    *(f"invariants.case.{t}" for t in INVARIANT_TAGS),
    *(f"convexity.case.{t}" for t in CONVEXITY_TAGS),
)


class Tracer:
    """Span recorder; one instance per traced run, single-threaded."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.stack: list[list] = []  # [name, start, child_seconds, span_id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.dump: list[tuple] = []
        self.next_id = 0
        self.request = -1
        self.request_self = 0.0
        self.partition_error_s = 0.0

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0, self.next_id])
        self.next_id += 1

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.request_self += dur - child
        self.calls[name] += 1
        parent = self.stack[-1][3] if self.stack else -1
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.dump) < MAX_DUMP:
            self.dump.append((sid, parent, self.request, name, start - self.t0, end - self.t0))
        return dur

    def begin_request(self) -> None:
        self.request += 1
        self.request_self = 0.0
        self.enter(ROOT)

    def end_request(self) -> float:
        """Close the request's root span; returns its duration in seconds.

        The self times of all spans of a request must add up to the root
        span's duration; the largest gap seen is kept as a check.
        """
        dur = self.exit()
        self.partition_error_s = max(self.partition_error_s, abs(self.request_self - dur))
        return dur

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except ValueError:
                if observe is not None:
                    observe(None)
                raise
            finally:
                tracer.exit()
            if observe is not None:
                observe(out)
            return out

        return traced

    def _observer(self, span: str):
        if span == "atoms.decompose":
            return lambda dec: dec is not None and self.counts.update(
                {"atoms.atoms_out": len(dec.atoms)})
        if span in ("invariants.wtn", "invariants.wth"):
            return lambda res: res is not None and self.counts.update(
                [f"invariants.case.{res.case_tag}"])
        if span == "convexity.wtc_exact":
            return lambda res: self.counts.update(
                ["convexity.case." + ("REFUSED" if res is None else res.case_tag)])
        return None

    def install(self, package) -> dict:
        """Replace the boundary names in the importing modules by traced
        wrappers. Returns the wrappers by (module, function) and the
        originals to restore with :func:`uninstall`."""
        modules = {name: getattr(package, name) for name in
                   ("graph", "intervals", "twins", "atoms", "invariants", "convexity", "cli")}
        wrappers = {}
        for (mod, fn_name), span in WRAPPED.items():
            fn = getattr(modules[mod], fn_name)
            wrappers[(mod, fn_name)] = self.wrap(span, fn, self._observer(span))
        wrappers[("cli", "main")] = self.wrap("cli.main", modules["cli"].main)
        saved = []
        for importer in IMPORTERS:
            module = modules[importer]
            for attr, value in list(vars(module).items()):
                key = (getattr(value, "__module__", "").rpartition(".")[2],
                       getattr(value, "__name__", None))
                if key in WRAPPED and key[0] != importer:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[key])
        return {"wrappers": wrappers, "saved": saved}

    @staticmethod
    def uninstall(installed: dict) -> None:
        for module, attr, value in installed["saved"]:
            setattr(module, attr, value)

    def layer_metrics(self, requests: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-request self time (times ``scale``, the run's scale to the
        reference speed) and calls of every span name, and the per-request
        counts; names absent from this run read 0."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = (1000.0 * scale * self.self_s.get(name, 0.0) / requests, "ms")
            out[f"{name}.calls"] = (self.calls.get(name, 0) / requests, "count")
        for name in COUNTS:
            out[name] = (self.counts.get(name, 0) / requests, "count")
        return out
