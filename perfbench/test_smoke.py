"""Smoke test of the benchmark itself, on tiny inputs.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_command_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    assert "fail_ratio 0.0000" in proc.stdout


def test_wrong_witness_raises_fail_ratio(tmp_path, monkeypatch):
    import wtoll.cli
    import worker
    from wtoll.invariants import InvariantResult

    real_wtn = wtoll.cli.wtn

    def wrong_witness(g):
        res = real_wtn(g)
        outside = min(set(range(g.n)) - res.witness)
        return InvariantResult(res.value, res.witness - {min(res.witness)} | {outside},
                               res.case_tag)

    args = Namespace(workload="dense-prime", seed=5, seconds=0.5, trace=0, tiny=True)
    plan = run.build_plan(args, tmp_path)
    monkeypatch.setattr(wtoll.cli, "wtn", wrong_witness)
    result = worker.end_to_end(plan)
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert any("/wtn" in message for message in result["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "corpus-sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
