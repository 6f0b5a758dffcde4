"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the benchmark's own entry
point, untraced and traced, and checks that every metric named in
BENCHMARK.json is printed and emitted with its unit.  Then it breaks one
output of the program at a time and checks that the operation counts as
failed and the exit status is nonzero.  Last, it checks that a missing
entry point leaves its metrics out, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys

import run

run.load_package()
# One timed import and two set-ups per run keep the self-test fast; the
# figures are not checked, and two set-ups still compare their files.
run.IMPORT_REPEATS = 1
run.SETUP_REPEATS = 2

import triqsvm.cli  # noqa: E402
import triqsvm.optimize  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from triqsvm.anneal import SampleResult  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def tiny(wl):
    if isinstance(wl, workloads.TrainWorkload):
        return dataclasses.replace(wl, n_train=8, n_test=4, holdout=4, splits=2, reads=4,
                                   sweeps=20, max_iterations=4)
    return dataclasses.replace(wl, n_train=8, n_test=4, holdout=10, resolution=8, sample=8,
                               models=2)


def invoke(name: str, trace: int) -> tuple[int, list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@contextlib.contextmanager
def patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def check_metrics(name: str, trace: int) -> None:
    code, lines, result = invoke(name, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0, (name, lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared), (name, set(result["metrics"]) ^ set(declared))
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) > 2}
    expected = dict(declared, error_rate="ratio")
    if not trace:
        expected.update(run.PRINTED_ONLY)
    for metric, unit in expected.items():
        assert printed.get(metric) == unit, (name, metric, printed.get(metric))
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == declared[metric], (name, metric)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] != 0 for entry in result["metrics"].values()), name


def expect_failure(name: str, module, attr, replacement) -> None:
    with patched(module, attr, replacement):
        code, lines, result = invoke(name, 0)
    assert code == 1 and not result["correct"] and result["failed"] >= 1, (name, attr, lines)
    assert any(line.startswith("FAILED") for line in lines), lines


def doubled_alpha(original):
    def solve(q, seed=0):
        result = original(q, seed=seed)
        return SampleResult(2 * result.best_assignment, result.best_energy, result.energies)
    return solve


def drifting_start(original):
    calls = iter(range(1, 10_000))

    def start(p, seed):
        return original(p, seed + next(calls))
    return start


def shifted_decisions(original):
    def decide(xs, model):
        return original(xs, model) + 1e-9
    return decide


def raising_accuracy(original):
    def score(model, ds):
        raise ArithmeticError("broken on purpose")
    return score


def check_missing_entry_point() -> None:
    """A wrapped name the package no longer has is reported as absent."""
    tracer = tracing.Tracer(enabled=True)
    tracer.wrap("triqsvm.optimize", "no_such_sampler", "anneal.solve")
    tracer.wrap("triqsvm.no_such_module", "gram", "qkernel.gram")
    metrics = tracing.layer_metrics(tracer)
    tracer.unwrap()
    assert tracer.missing == ["triqsvm.optimize.no_such_sampler", "triqsvm.no_such_module.gram"]
    assert not any(name.startswith(("anneal.solve", "anneal.flip", "qkernel."))
                   for name in metrics), metrics
    assert "qubo.build_s" in metrics


def check_bare_directory() -> None:
    """Without the package sources the benchmark exits nonzero and prints
    no result."""
    bare = run.HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hqsvm-paper", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    for name, wl in list(workloads.WORKLOADS.items()):
        workloads.WORKLOADS[name] = tiny(wl)
    for name in workloads.WORKLOADS:
        check_metrics(name, 0)
        check_metrics(name, 1)
        print(f"ok   {name}: every metric emitted with its unit, traced and untraced")
    expect_failure("qsvm-hard", triqsvm.optimize, "greedy_descent", doubled_alpha)
    expect_failure("hqsvm-paper", triqsvm.optimize, "initial_theta", drifting_start)
    expect_failure("predict-map", triqsvm.cli, "decision_values", shifted_decisions)
    expect_failure("predict-map", triqsvm.cli, "accuracy", raising_accuracy)
    print("ok   corrupted alpha, model drift, map cells and a raising call all count as failed")
    check_missing_entry_point()
    print("ok   a missing entry point leaves its metrics out instead of failing")
    check_bare_directory()
    print("ok   without package sources the benchmark exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
