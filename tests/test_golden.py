"""Golden training fixtures: a fixed small set of trainings, one CLI
``train --holdout`` run and one tiny CLI ``sweep``, compared with the
outputs stored in ``tests/golden/training.json``.

The set covers both QUBO builders with the anneal, greedy and exact
backends on the quantum kernel (two seeds) and on the rbf and linear
kernels (one seed).  The CLI report is compared without its timestamp,
its wall times, its paths and the package and numpy versions it records.

θ, β and the solver's best energy are compared to a relative tolerance
of 1e-12; every other value exactly, among them α, the accuracy
trajectory, the iteration and state counts, the failures and the sweep
CSV.  The tolerance comes from a measurement: OpenBLAS picks its kernels
per CPU, and with ``OPENBLAS_CORETYPE=Haswell`` on an AVX-512 machine β
moved by up to 4.4e-16 in 8 of the 26 model files, with
``OPENBLAS_CORETYPE=Sandybridge`` β by up to 1.4e-14 and the best energy
by up to 7.1e-15.  Nothing else moved.

The trainings above all end within 3 evaluations, the initial simplex of
COBYLA at p = 2, so ``tests/golden/full_budget.json`` adds four quantum
trainings on gap-0 data with the greedy backend that spend the whole
10-evaluation budget: their θ paths go through COBYLA's trust-region and
geometry steps.

After a change that moves output on purpose, rewrite both files with

    PYTHONPATH=src python tests/test_golden.py

which first prints, per case, the key paths that differ from the stored
fixture (or ``unchanged``), and say in CHANGES.md what moved and why.  A
file in which every case reads ``unchanged`` at the tolerance above is
kept as it is, so the rewrite does not churn bits within tolerance.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest

from triqsvm.anneal import AnnealSchedule
from triqsvm.cli import cli
from triqsvm.datagen import SplitSpec, adhoc_generate, split
from triqsvm.optimize import BACKENDS, BUILDERS, TrainConfig, train
from triqsvm.qubo import model_to_dict

GOLDEN = Path(__file__).resolve().parent / "golden" / "training.json"
FULL_BUDGET = GOLDEN.with_name("full_budget.json")
# Keys whose floats may move with the BLAS kernels, and their tolerance.
TOLERANT = {"beta", "best_energy", "best_theta", "theta"}
RTOL = 1e-12

M_TRAIN, M_VAL = 10, 4
CASES = [
    *[("quantum-zz", builder, backend, seed)
      for builder in BUILDERS for backend in BACKENDS for seed in (1, 2)],
    *[(kernel, builder, backend, 1)
      for kernel in ("rbf", "linear") for builder in BUILDERS for backend in BACKENDS],
]
FULL_BUDGET_CASES = [("quantum-zz", "paper", "greedy", 3), ("quantum-zz", "paper", "greedy", 10),
                     ("quantum-zz", "dual", "greedy", 2), ("quantum-zz", "dual", "greedy", 3)]
SWEEP_ARGS = ["--sizes", "10,15", "--seeds", "7,8", "--max-iters", "2",
              "--reads", "4", "--sweeps", "40"]


def case_id(case) -> str:
    return "-".join(map(str, case))


def training_outcome(kernel, builder, backend, seed, max_iterations=3) -> dict:
    """Train one case on gap-0 data and return what it produced."""
    ds = adhoc_generate(M_TRAIN + M_VAL, 0.0, seed=seed)
    train_set, val_set = split(ds, SplitSpec(M_TRAIN, M_VAL, seed=seed))
    cfg = TrainConfig(max_iterations=max_iterations, solver_backend=backend, qubo_builder=builder,
                      kernel_kind=kernel, seed=seed,
                      schedule=AnnealSchedule(num_reads=4, sweeps=50, seed=seed))
    report = train(train_set, val_set, cfg)
    return as_json({
        "model": model_to_dict(report.best_model),
        "best_theta": report.best_theta.tolist(),
        "best_accuracy": report.best_accuracy,
        "accuracy_per_iteration": report.accuracy_per_iteration,
        "iterations_used": report.iterations_used,
        "states_built": report.states_built,
        "failures": report.failures,
        "solver": report.solver,
    })


def as_json(value):
    """``value`` as it reads back from the fixture file."""
    return json.loads(json.dumps(value))


def run(*args) -> None:
    """Run one CLI command in process, with its ``click.echo`` lines
    captured, so that the rewrite below prints only its report."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(args=[str(a) for a in args], standalone_mode=False)


def cli_train_holdout(tmp: Path) -> dict:
    """``train --holdout`` on a dual anneal: model.json and report.json,
    the report without its timestamp, wall times, paths and versions."""
    data, out = tmp / "data.csv", tmp / "run"
    run("gen-data", "--m", 30, "--delta", 0.0, "--seed", 4, "--out", data)
    run("train", "--data", data, "--n-train", 12, "--n-test", 4, "--holdout",
        "--qubo", "dual", "--max-iters", 3, "--reads", 4, "--sweeps", 50,
        "--seed", 4, "--out", out)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for key in ("created_utc", "wall_time_s"):
        del report[key]
    del report["train_report"]["wall_time"]
    for key in ("triqsvm_version", "numpy_version"):
        del report["train_report"]["config"][key]
    del report["flags"]["data"]
    del report["dataset"]["path"]
    return {"model": json.loads((out / "model.json").read_text(encoding="utf-8")),
            "report": report}


def cli_sweep(tmp: Path) -> dict:
    """A tiny sweep over all three methods: its CSV lines, with their line
    ends, and its sidecar."""
    out = tmp / "sweep.csv"
    run("sweep", "--out", out, *SWEEP_ARGS)
    return {"csv": out.read_bytes().decode("utf-8").splitlines(keepends=True),
            "meta": json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))}


def all_outcomes() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "train").mkdir()
        (tmp / "sweep").mkdir()
        return {
            "trainings": {case_id(case): training_outcome(*case) for case in CASES},
            "cli_train_holdout": cli_train_holdout(tmp / "train"),
            "cli_sweep": cli_sweep(tmp / "sweep"),
        }


def full_budget_outcomes() -> dict:
    return {"trainings": {case_id(case): training_outcome(*case, max_iterations=10)
                          for case in FULL_BUDGET_CASES}}


def differences(got, want, path="", tolerant=False):
    """The key paths at which ``got`` and ``want`` differ; floats under a
    ``TOLERANT`` key may differ by ``RTOL``."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                yield f"{path}/{key}"
            else:
                yield from differences(got[key], want[key], f"{path}/{key}",
                                       tolerant or key in TOLERANT)
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, f"{path}/{i}", tolerant)
    elif tolerant and isinstance(want, float) and isinstance(got, float):
        if not abs(got - want) <= RTOL * max(1.0, abs(want)):
            yield path
    elif got != want:
        yield path


def assert_matches(got, want):
    changed = list(differences(got, want))
    assert not changed, changed


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden["trainings"]) == sorted(map(case_id, CASES))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_training_matches_fixture(golden, case):
    assert_matches(training_outcome(*case), golden["trainings"][case_id(case)])


@pytest.mark.parametrize("case", FULL_BUDGET_CASES, ids=case_id)
def test_full_budget_training_matches_fixture(case):
    want = json.loads(FULL_BUDGET.read_text(encoding="utf-8"))["trainings"][case_id(case)]
    got = training_outcome(*case, max_iterations=10)
    assert got["iterations_used"] == 10
    assert_matches(got, want)


def test_cli_train_holdout_matches_fixture(golden, tmp_path):
    assert_matches(cli_train_holdout(tmp_path), golden["cli_train_holdout"])


def test_cli_sweep_matches_fixture(golden, tmp_path):
    got = cli_sweep(tmp_path)
    assert_matches(got, golden["cli_sweep"])
    # The stored table is a well-formed sweep table.
    rows = list(csv.DictReader(got["csv"]))
    assert {r["method"] for r in rows} == {"classical", "qsvm", "hqsvm"}


def test_report_changes_flags_only_moves_beyond_the_tolerance(tmp_path, capsys):
    stored = {"trainings": {"a": {"beta": 1.0, "alpha": [1]}}, "cli": {"x": 1}}
    path = tmp_path / "fixture.json"
    assert report_changes(path, stored)
    path.write_text(json.dumps(stored), encoding="utf-8")
    assert not report_changes(path, {"trainings": {"a": {"beta": 1.0 + 1e-15, "alpha": [1]}},
                                     "cli": {"x": 1}})
    assert report_changes(path, {"trainings": {"a": {"beta": 1.0, "alpha": [0]}},
                                 "cli": {"x": 1}})
    assert report_changes(path, {"trainings": {}, "cli": {"x": 1}})
    assert "trainings/a: (gone)" in capsys.readouterr().out


def report_changes(path: Path, outcomes: dict) -> bool:
    """Print, per case, the key paths in which ``outcomes`` differ from the
    fixture stored at ``path``, or ``unchanged``, and return whether any
    case differs or the file is missing."""
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    cases = [(f"trainings/{name}", outcome, stored.get("trainings", {}).get(name))
             for name, outcome in outcomes["trainings"].items()]
    cases += [(name, outcome, stored.get(name)) for name, outcome in outcomes.items()
              if name != "trainings"]
    moved = not path.is_file()
    for name, outcome, want in cases:
        changed = ["(new)"] if want is None else [p[1:] for p in differences(outcome, want)]
        moved = moved or bool(changed)
        print(f"{path.name} {name}: {' '.join(changed) or 'unchanged'}")
    for name in sorted(stored.get("trainings", {}).keys() - outcomes["trainings"].keys()):
        moved = True
        print(f"{path.name} trainings/{name}: (gone)")
    return moved


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, outcomes in ((GOLDEN, all_outcomes()), (FULL_BUDGET, full_budget_outcomes())):
        if report_changes(path, outcomes):
            path.write_text(json.dumps(outcomes, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"wrote {path}")
        else:
            print(f"kept {path}")
