"""Smoke test of the benchmark itself, at a tiny size (about a minute):

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))


def _run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def _lines(proc: subprocess.CompletedProcess) -> list[dict]:
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    header, detail, result = _lines(_run(workload, trace))
    facts = header["header"]
    assert facts["traced"] is bool(trace) and facts["seed"] == 7
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads_env",
            "git_commit"} <= set(facts)
    assert detail["detail"]["ops"] >= 1

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_oracle_digest_repeats_per_seed():
    def digest(seed):
        return _lines(_run("oracle_grid", 0, seed=seed))[1]["detail"]["digest"]

    first = digest(3)
    assert digest(3) == first
    assert digest(4) != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_counts_as_failure(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    _, run = workloads.WORKLOADS[workload]
    result = run(5, 0.0, workloads.SIZES["tiny"], None, True, tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("calibration_batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_alternates_whole_blocks():
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer

    seen = []

    def blocks():
        for b in range(3):
            yield [lambda tr, ck, b=b, k=k: seen.append((b, k, isinstance(tr, Tracer))) or 1e-3
                   for k in range(4)]

    loop = workloads.closed_loop(blocks(), 0.0, 1, Tracer(), False)
    # Stops after two blocks, the least a traced run makes; the first is traced.
    assert seen == [(b, k, b == 0) for b in range(2) for k in range(4)]
    assert len(loop.traced) == len(loop.untraced) == 4
    assert loop.attempted == 8 and loop.failed == 0
