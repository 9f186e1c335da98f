"""The benchmark's own test: run it as BENCHMARK.json says and check its output.

    python3 -m pytest -q perfbench

Takes about a minute: every workload runs once untraced and twice traced,
each with the shortest run length (at least two passes per phase).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, cwd=ROOT, seed=7):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result["metrics"]


def _check_names(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = _result(_run(workload, 0))
    _check_names(metrics, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = _result(_run(workload, 1))
    second = _result(_run(workload, 1))
    _check_names(first, BENCH["per_layer"])
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    if workload != "disk-oracle":
        assert first["steps"]["value"] > 0 and first["PlanePoint.constructed"]["value"] > 0
    if workload != "theorem1-sweep":
        assert first["p_disk.integrand_evals"]["value"] > 0
        assert first["bessel_j0_y0.elements_series"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
