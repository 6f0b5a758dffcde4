"""The benchmark's result contract: the entry points its tracer wraps exist,
and a short run, traced or not, ends with a JSON result line that carries
every metric BENCHMARK.json names.  No timing is asserted."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported from the source tree."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    names = ("workloads", "tracing")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads")
    for name in names:
        sys.modules.pop(name, None)


def test_every_wrapped_entry_point_is_callable(workloads):
    for module, attr, span, _ in workloads.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr} ({span})"


def reject_non_finite(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload, trace, names", [
    ("dual-anneal", 1, "per_layer"),
    ("hqsvm-paper", 1, "per_layer"),
    ("qsvm-hard", 1, "per_layer"),
    ("predict-map", 1, "per_layer"),
    ("hqsvm-paper", 0, "end_to_end"),
])
def test_run_ends_with_its_result_line(tmp_path, workload, trace, names):
    # A copy of the benchmark and the sources, so that the run's work and
    # trace files stay out of the source tree.
    ignore = shutil.ignore_patterns("__pycache__", "_work", "_out")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache")}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace),
         "--seconds", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    assert not [line for line in lines if line.startswith("absent:")]
    result = json.loads(lines[-1], parse_constant=reject_non_finite)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in BENCHMARK[names]}
