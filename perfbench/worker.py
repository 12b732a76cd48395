"""Closed-loop client for one workload, run in its own process.

Usage: ``python3 perfbench/worker.py PLAN.json`` from the checkout root,
with ``src`` on ``PYTHONPATH``. ``run.py`` writes the plan (requests,
reference answers, seed, time budget) and reads the result file back.
The process holds no input graphs, only their file names or graph6
lines, so its peak RSS is the program's working set plus a small,
fixed client overhead.

One client sends each request only after the previous one has
returned. A request's latency covers the program call alone: the CLI's
``main`` (which parses the graph file) or the corpus sweep. Checking the
answer happens after the clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from types import SimpleNamespace

import wtoll
import wtoll.cli
from wtoll import atoms, convexity, graph, intervals, invariants, twins

import answers
import spans
import speed
from workloads import schedule

LIBRARY_OPS = {
    "parse_graph6": ("graph", "parse_graph6"),
    "twin_classes": ("twins", "twin_classes"),
    "extreme_vertices": ("intervals", "extreme_vertices"),
    "decompose": ("atoms", "decompose"),
    "wtn": ("invariants", "wtn"),
    "wth": ("invariants", "wth"),
    "wtc_exact": ("convexity", "wtc_exact"),
    "interval": ("intervals", "interval"),
    "hull": ("intervals", "hull"),
}
PROBE_EVERY_S = 0.25
REPEATS_KEPT = 9
MODULES = {"graph": graph, "intervals": intervals, "twins": twins, "atoms": atoms,
           "invariants": invariants, "convexity": convexity}


class Client:
    """Sends requests and checks the answers against the references."""

    def __init__(self, plan: dict, functions: dict | None = None):
        self.plan = plan
        functions = functions or {}
        self.main = functions.get(("cli", "main"), wtoll.cli.main)
        self.ops = SimpleNamespace(**{
            op: functions.get(key, getattr(MODULES[key[0]], key[1]))
            for op, key in LIBRARY_OPS.items()
        })
        self.failures: list[str] = []
        self.failed = 0

    def call(self, req: dict):
        """Run one request; returns (latency seconds, raw output)."""
        if req["command"] == "sweep":
            graph6, pairs = req["graph6"], req["pairs"]
            t0 = time.perf_counter()
            raw = answers.sweep(self.ops, graph6, pairs)
            return time.perf_counter() - t0, raw
        argv = [req["command"], req["file"], *map(str, req["args"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.main(argv)
            latency = time.perf_counter() - t0
        return latency, (code, out.getvalue(), err.getvalue())

    def check(self, req: dict, raw) -> bool:
        expected = self.plan["expected"][req["key"]]
        if req["command"] == "sweep":
            want = expected
        else:
            want = {"command": req["command"], "input": self.plan["inputs"][req["graph"]],
                    "result": expected}
        try:
            got = self._canonical(req, raw)
        except Exception as exc:  # a malformed answer is a wrong answer
            got = f"unreadable answer: {exc!r}"
        ok = got == want
        if not ok:
            self.fail(f"{req['key']}: expected {want}, got {got}")
        return ok

    @staticmethod
    def _canonical(req: dict, raw):
        if req["command"] == "sweep":
            return answers.canon_sweep(raw)
        code, out, err = raw
        if code != 0:
            return f"exit {code}: {err.strip()}"
        report = json.loads(out)
        return {
            "command": report["command"],
            "input": report["input"],
            "result": answers.canon_report(req["command"], report["result"]),
        }

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message[:2000])

    def send(self, req: dict) -> float:
        """Call and check one request; a crash counts as a failed answer."""
        try:
            latency, raw = self.call(req)
        except Exception:  # the program raised: record it, keep the loop going
            self.fail(f"{req['key']}: raised\n{traceback.format_exc(limit=4)}")
            return float("nan")
        self.check(req, raw)
        return latency


def timed_loop(send, requests, seconds: float, minimum: int, record) -> int:
    """Send requests until ``seconds`` have passed and at least
    ``minimum`` requests have been sent; returns how many were sent.

    The machine's speed is probed every ``PROBE_EVERY_S`` between
    requests. Each latency is passed to ``record(request, latency, scale)``
    once the probe after it is taken, with its scale to the reference
    speed from the probes on either side. Nothing here grows with the
    number of requests, so the client's memory stays fixed.
    """
    sent = 0
    pending: list[tuple[dict, float]] = []
    before = speed.probe()
    last = time.perf_counter()
    deadline = last + seconds
    for req in requests:
        now = time.perf_counter()
        if sent >= minimum and now >= deadline:
            break
        if now - last >= PROBE_EVERY_S:
            after = speed.probe()
            for done, latency in pending:
                record(done, latency, speed.factor(before, after))
            pending.clear()
            before, last = after, time.perf_counter()
        pending.append((req, send(req)))
        sent += 1
    after = speed.probe()
    for done, latency in pending:
        record(done, latency, speed.factor(before, after))
    return sent


def _stream(plan: dict):
    return map(plan["requests"].__getitem__, schedule(list(plan["requests"]), plan["seed"]))


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``xs``.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics
    (Harrell & Davis, Biometrika 1982): on a hundred values it moves far
    less from run to run than the one or two order statistics a plain
    percentile reads.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = max(4, 4000 // n)  # midpoint rule inside each [i/n, (i+1)/n]
    log_density = [
        (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
        for t in ((k + 0.5) / (n * steps) for k in range(n * steps))
    ]
    top = max(log_density)  # scale before exp: the density underflows for large n
    density = [math.exp(x - top) for x in log_density]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(plan: dict) -> dict:
    """Metrics over the pool, each request counted once, with the median
    of its last ``REPEATS_KEPT`` latencies (at the reference speed)."""
    client = Client(plan)
    by_key: dict[str, deque] = {}
    scales: deque = deque(maxlen=1000)

    def record(req: dict, latency: float, scale: float) -> None:
        scales.append(scale)
        if latency == latency:  # the request returned
            by_key.setdefault(req["key"], deque(maxlen=REPEATS_KEPT)).append(latency * scale)

    # the first pass of the schedule sends the whole pool once
    sent = timed_loop(client.send, _stream(plan), plan["seconds"], len(plan["requests"]), record)
    per_request = [statistics.median(xs) for xs in by_key.values()]
    return {
        "attempted": sent,
        "failed": client.failed,
        "failures": client.failures,
        "metrics": {
            "throughput_rps": (len(per_request) / sum(per_request), "1/s"),
            "latency_p50_ms": (1000.0 * quantile(per_request, 0.5), "ms"),
            "latency_p90_ms": (1000.0 * quantile(per_request, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "samples": len(per_request),
        "speed_scale": statistics.median(scales),
    }


def traced(plan: dict) -> dict:
    """Run half the time untraced, then the same requests traced."""
    plain = Client(plan)
    sent: list[dict] = []
    totals = {"untraced": 0.0, "traced": 0.0, "traced_raw": 0.0}

    def record_plain(req: dict, latency: float, scale: float) -> None:
        sent.append(req)
        if latency == latency:
            totals["untraced"] += latency * scale

    timed_loop(plain.send, _stream(plan), plan["seconds"] / 2, 1, record_plain)

    tracer = spans.Tracer()
    installed = tracer.install(wtoll)
    client = Client(plan, installed["wrappers"])

    def send_traced(req: dict) -> float:
        tracer.begin_request()
        try:
            _, raw = client.call(req)
        except Exception:
            client.fail(f"{req['key']}: raised\n{traceback.format_exc(limit=4)}")
            raw = None
        duration = tracer.end_request()
        if raw is not None:
            client.check(req, raw)
        return duration

    def record_traced(req: dict, duration: float, scale: float) -> None:
        totals["traced_raw"] += duration
        totals["traced"] += duration * scale

    try:
        timed_loop(send_traced, list(sent), 0.0, len(sent), record_traced)
    finally:
        spans.Tracer.uninstall(installed)
    untraced_s, traced_s = totals["untraced"], totals["traced"]
    scale = traced_s / totals["traced_raw"]

    n = len(sent)
    metrics = tracer.layer_metrics(n, scale)
    metrics["trace.requests"] = (n, "count")
    metrics["trace.untraced_ms"] = (1000.0 * untraced_s / n, "ms")
    metrics["trace.traced_ms"] = (1000.0 * traced_s / n, "ms")
    metrics["trace.overhead_ms"] = (1000.0 * (traced_s - untraced_s) / n, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    metrics["trace.partition_error_ms"] = (1000.0 * tracer.partition_error_s, "ms")

    dump_path = plan["trace_dump"]
    with gzip.open(dump_path, "wt") as fh:
        fh.write(json.dumps({"fields": ["span", "parent", "request", "name", "start_s", "end_s"],
                             "spans_total": tracer.next_id, "spans_kept": len(tracer.dump)}) + "\n")
        for row in tracer.dump:
            fh.write(json.dumps(row) + "\n")
    return {
        "attempted": 2 * n,  # each request ran untraced, then traced
        "failed": plain.failed + client.failed,
        "failures": plain.failures + client.failures,
        "metrics": metrics,
        "samples": n,
        "speed_scale": scale,
    }


def main(argv: list[str]) -> int:
    with open(argv[1]) as fh:
        plan = json.load(fh)
    # keep the plan's objects out of the collector's way, as a real
    # `wtoll` process has no such objects
    gc.freeze()
    result = traced(plan) if plan["trace"] else end_to_end(plan)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
