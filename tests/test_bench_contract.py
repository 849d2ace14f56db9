"""The benchmark in bench/ must keep reading this program: every traced
boundary resolves, and each workload ends in one well-formed result line,
traced and untraced.

bench/layers.py reports a metric as null when the function it wraps was
renamed or removed, and it nulls the baskakov.apply.* metrics when the
traced call count differs from the evaluations the configs request.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path in layers.SPANS + layers.COUNTERS]
)
def test_traced_boundary_resolves(module, path):
    assert layers._resolve(module, path) is not None


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_every_metric(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    for complaint in ("boundaries not found", "trace incomplete"):
        assert not [line for line in lines if complaint in line]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert {name for name, metric in result["metrics"].items() if metric["value"] is None} == set()


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_the_end_to_end_metrics(workload):
    # a run whose every repetition fails still prints a result line, but with
    # no metrics; that is the line this test must never see
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
