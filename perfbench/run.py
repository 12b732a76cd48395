"""wtoll benchmark: one workload, one seed, one timed run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-prime --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (see ``BENCHMARK.json``); with
``--trace 1`` they are the per-layer ones from a traced run. The lines
before it are a human-readable summary. ``--tiny`` swaps in tiny inputs
(used by the smoke test).

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 6  # before the worker runs, and as many after it
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import wtoll, wtoll.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONHOME", None)
    return env


def import_times(root: Path) -> list[float]:
    """Cold ``import wtoll, wtoll.cli`` times, each in a fresh interpreter,
    at the reference speed (see ``speed.py``)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.probe()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root, env=_env(root), capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing wtoll failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip()) * speed.factor(before, speed.probe()))
    return samples


def load_refs(workload: str) -> dict:
    with open(HERE / "refs" / f"{workload}.json") as fh:
        return json.load(fh)


def build_plan(args, out: Path) -> dict:
    """Write the input graphs and describe every request for the worker."""
    scale = "tiny" if args.tiny else "full"
    refs = load_refs(args.workload)
    graph_dir = out / "graphs"
    graph_dir.mkdir(parents=True, exist_ok=True)
    requests = {}
    expected = {}
    inputs = {}
    for req in workloads.pool(args.workload, scale):
        g = req.graph
        entry = {"key": req.key, "command": req.command}
        if req.command == "sweep":
            entry["graph6"] = g.graph6()
            entry["pairs"] = answers.nonadjacent_pairs(g)
        else:
            path = graph_dir / (g.gid.replace("/", "_") + ".el")
            if g.gid not in inputs:
                path.write_text(g.edge_list_text())
                inputs[g.gid] = refs["inputs"][g.gid]
            entry.update(file=str(path), args=list(req.args), graph=g.gid)
        requests[req.key] = entry
        expected[req.key] = refs["answers"][req.key]["answer"]
    stem = f"{args.workload}-{scale}-seed{args.seed}-trace{args.trace}"
    return {
        "requests": requests,
        "expected": expected,
        "inputs": inputs,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "plan": str(out / f"{stem}.plan.json"),
        "result": str(out / f"{stem}.result.json"),
        "trace_dump": str(out / f"{stem}.spans.jsonl.gz"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "wtoll" / "__init__.py").is_file():
        print(f"error: no src/wtoll in {root}; run from the root of a wtoll checkout",
              file=sys.stderr)
        return 2
    out = HERE / "out"
    plan = build_plan(args, out)
    setup = [] if args.trace else import_times(root)

    Path(plan["plan"]).write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), plan["plan"]],
        cwd=root, env=_env(root), timeout=args.seconds + 110,  # a run ends within 180 s
    )
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(Path(plan["result"]).read_text())
    if not args.trace:
        # sampled on both sides of the timed loop, so that setup_s covers
        # the same stretch of time as the other metrics
        setup += import_times(root)

    metrics = result["metrics"]
    correct = result["failed"] == 0
    if args.trace:
        # self times must partition each traced request's time
        correct = correct and metrics["trace.partition_error_ms"][0] < 1e-3
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}

    for message in result["failures"]:
        print(f"FAIL {message}")
    print(f"workload {args.workload} seed {args.seed} pool requests {result['samples']} "
          f"speed scale {result['speed_scale']:.3f} "
          f"fail_ratio {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
