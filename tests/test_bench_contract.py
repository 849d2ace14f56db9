"""The benchmark in bench/ must keep reading this program: every traced
boundary resolves, and each workload ends in one well-formed result line.

bench/layers.py reports a metric as null when the function it wraps was
renamed or removed, and it nulls the baskakov.apply.* metrics when the
traced call count differs from the evaluations the configs request.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
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
