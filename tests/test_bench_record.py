"""scripts/bench_record.py on a synthetic pair of checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(root, seed, trace, rps, setup=None, layers=None):
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"sparse-chain-full-seed{seed}-trace{trace}"
    metrics = {"throughput_rps": [rps, "1/s"], "latency_p50_ms": [1000.0 / rps, "ms"]}
    metrics.update({name: [value, "ms"] for name, value in (layers or {}).items()})
    result = {"attempted": 10, "failed": 0, "failures": [], "metrics": metrics,
              "samples": 5, "speed_scale": 1.0}
    (out / f"{stem}.result.json").write_text(json.dumps(result))
    if setup is not None:
        line = {"correct": True, "metrics": {"setup_s": {"value": setup, "unit": "s"}}}
        (out / f"{stem}.stdout").write_text("summary\n" + json.dumps(line) + "\n")


def test_summary_pairs_and_trace(tmp_path, monkeypatch, bench_record):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (old, new) in enumerate([(20.0, 50.0), (22.0, 21.0), (24.0, 55.0)], start=1):
        _write_run(parent, seed, 0, old, setup=0.05)
        _write_run(change, seed, 0, new)
    _write_run(parent, 1, 1, 20.0, layers={"intervals.extreme_vertices.self_ms": 30.0})
    _write_run(parent, 2, 1, 20.0, layers={"intervals.extreme_vertices.self_ms": 99.0})
    for side in (parent, change):
        (side / "src" / "wtoll").mkdir(parents=True)
        (side / "src" / "wtoll" / "a.py").write_text(side.name)
    monkeypatch.chdir(ROOT)  # BENCHMARK.json says which way is better
    dest = tmp_path / "BENCH.json"
    assert bench_record.main(["bench_record", str(dest), f"parent={parent}", f"change={change}"]) == 0

    report = json.loads(dest.read_text())
    assert report["sides"]["parent"]["src_sha256"] != report["sides"]["change"]["src_sha256"]
    workload = report["workloads"]["sparse-chain"]
    rps = workload["parent"]["metrics"]["throughput_rps"]
    assert (rps["median"], rps["q1"], rps["q3"], rps["iqr"]) == (22.0, 21.0, 23.0, 2.0)
    assert workload["parent"]["seeds"] == [1, 2, 3] and workload["parent"]["runs"] == 3
    assert workload["parent"]["metrics"]["setup_s"]["median"] == 0.05
    assert "setup_s" not in workload["change"]["metrics"]  # no saved stdout
    assert workload["pairs_better"] == {"throughput_rps": "2/3", "latency_p50_ms": "2/3"}
    # the traced run of the lowest seed, self times only
    assert workload["parent"]["trace"]["seed"] == 1
    assert workload["parent"]["trace"]["self_ms"] == {"intervals.extreme_vertices.self_ms": 30.0}
    assert "trace" not in workload["change"]


def test_usage_error(bench_record, capsys):
    assert bench_record.main(["bench_record", "out.json"]) == 2
    assert "Usage" in capsys.readouterr().err
