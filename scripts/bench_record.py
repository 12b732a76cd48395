"""Record perfbench runs of one or more checkouts in one BENCH_<k>.json.

Usage, from the root of a checkout (BENCHMARK.json is read from there):

    python3 scripts/bench_record.py BENCH_6.json parent=../parent change=../change

Each SIDE=DIR names a checkout in which ``perfbench/run.py`` was run. The
script reads every ``perfbench/out/<workload>-full-seed<N>-trace<T>.result.json``
there and writes, per workload and side:

- the checkout's commit (``git rev-parse HEAD``, null outside git), whether
  it had uncommitted changes, and a SHA-256 over ``src/wtoll/*.py``, which
  names the code that ran even when it was not committed;
- the seeds and the number of untraced runs, with their failed and
  attempted requests;
- the median, quartiles (inclusive method) and interquartile range of each
  end-to-end metric over the untraced runs, and its value per seed;
- for one traced run (the lowest seed), every per-layer ``*.self_ms``.

``run.py`` times ``setup_s`` itself and prints it, but the worker's result
file does not hold it; save ``run.py``'s standard output as
``<stem>.stdout`` beside the result file to have ``setup_s`` recorded.
With two sides, each metric also gets ``pairs_better``: over the seeds both
sides ran, how often the second side reads better than the first.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

STEM = re.compile(r"(?P<workload>.+)-full-seed(?P<seed>\d+)-trace(?P<trace>[01])$")


def _git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def identity(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "wtoll").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git(root, "status", "--porcelain")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def read_runs(root: Path) -> dict:
    """{workload: {trace: {seed: (result, setup_s or None)}}}"""
    runs: dict = {}
    for path in sorted((root / "perfbench" / "out").glob("*.result.json")):
        m = STEM.match(path.name[: -len(".result.json")])
        if not m:
            continue
        result = json.loads(path.read_text())
        setup = None
        stdout = path.with_name(path.name.replace(".result.json", ".stdout"))
        if stdout.is_file():
            last = json.loads(stdout.read_text().strip().splitlines()[-1])
            setup = last["metrics"].get("setup_s", {}).get("value")
        per_trace = runs.setdefault(m["workload"], {}).setdefault(int(m["trace"]), {})
        per_trace[int(m["seed"])] = (result, setup)
    return runs


def summarize(plain: dict) -> dict:
    metrics: dict = {}
    for seed, (result, setup) in sorted(plain.items()):
        values = {name: value for name, (value, _unit) in result["metrics"].items()}
        units = {name: unit for name, (_value, unit) in result["metrics"].items()}
        if setup is not None:
            values["setup_s"], units["setup_s"] = setup, "s"
        for name, value in values.items():
            entry = metrics.setdefault(name, {"unit": units[name], "values": {}})
            entry["values"][str(seed)] = value
    for entry in metrics.values():
        xs = list(entry["values"].values())
        if len(xs) > 1:
            q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        else:
            q1 = q2 = q3 = xs[0]
        entry.update(median=q2, q1=q1, q3=q3, iqr=q3 - q1)
    return {
        "seeds": sorted(plain),
        "runs": len(plain),
        "attempted": sum(r["attempted"] for r, _ in plain.values()),
        "failed": sum(r["failed"] for r, _ in plain.values()),
        "metrics": metrics,
    }


def trace_layers(traced: dict) -> dict:
    seed = min(traced)
    result, _ = traced[seed]
    return {
        "seed": seed,
        "failed": result["failed"],
        "requests": result["samples"],
        "self_ms": {name: value for name, (value, _unit) in result["metrics"].items()
                    if name.endswith(".self_ms")},
    }


def pairs_better(first: dict, second: dict, better: dict) -> dict:
    out = {}
    for name, entry in second["metrics"].items():
        base = first["metrics"].get(name)
        if base is None or name not in better:
            continue
        seeds = [s for s in entry["values"] if s in base["values"]]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (entry["values"][s] - base["values"][s]) > 0 for s in seeds)
        out[name] = f"{wins}/{len(seeds)}"
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or not all("=" in a for a in argv[2:]):
        print(__doc__, file=sys.stderr)
        return 2
    better = {m["name"]: m["better"]
              for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    sides = dict(a.split("=", 1) for a in argv[2:])
    report: dict = {"sides": {}, "workloads": {}}
    for side, directory in sides.items():
        root = Path(directory).resolve()
        report["sides"][side] = identity(root)
        for workload, by_trace in read_runs(root).items():
            entry: dict = {}
            if 0 in by_trace:
                entry.update(summarize(by_trace[0]))
            if 1 in by_trace:
                entry["trace"] = trace_layers(by_trace[1])
            report["workloads"].setdefault(workload, {})[side] = entry
    if len(sides) == 2:
        first, second = sides
        for per_side in report["workloads"].values():
            if "metrics" in per_side.get(first, {}) and "metrics" in per_side.get(second, {}):
                per_side["pairs_better"] = pairs_better(per_side[first], per_side[second], better)
    Path(argv[1]).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
