"""Benchmark workloads: inputs made from a seed, one timed operation, and
the checks every operation's output must pass.

Train workloads call the public ``train``.  A run cycles through
``splits`` datasets, each with its own labelling unitary, so its numbers
rest on several problem instances, and every repeat of a dataset must
give a byte-identical model file.  Dataset ``j`` is the same on every
seed; the seed picks its train, validation and holdout rows and the
training seed.
``predict-map`` scores fresh rows and a decision-surface grid with a
stored model through the ``triqsvm`` click group, in process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import triqsvm.cli
import triqsvm.datagen as datagen
import triqsvm.optimize as optimize
import triqsvm.qubo as qubo
from triqsvm.anneal import AnnealSchedule
from triqsvm.qkernel import FeatureMapSpec

from tracing import Tracer

# Largest distance allowed between a map cell and decision_values.
MAP_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def split_seed(seed: int, j: int) -> int:
    return 1000 * seed + j


def _anneal_counts(args, result):
    q, schedule = args["q"], args["schedule"]
    best = result.best_energy
    hits = np.abs(result.energies - best) <= 1e-9 * max(1.0, abs(best))
    return {"flips": schedule.num_reads * schedule.sweeps * q.n, "reads": len(result.energies),
            "best_hits": int(hits.sum()), "selected": int(result.best_assignment.sum()),
            "n": q.n}


def _gram_counts(args, result):
    return {"entries": result.m * result.m, "states": result.m}


def _cross_counts(args, result):
    rows, cols = result.shape
    quantum = isinstance(args["kernel"], FeatureMapSpec)
    return {"entries": rows * cols, "states": rows + cols if quantum else 0}


def _build_counts(args, result):
    return {"entries": result.n * result.n}


# (module that looks the name up, name, span, counts)
ENTRY_POINTS = (
    ("triqsvm.optimize", "kernel_gram", "kernels.gram", None),
    ("triqsvm.qkernel", "gram", "qkernel.gram", _gram_counts),
    ("triqsvm.optimize", "build_qubo_paper", "qubo.build", _build_counts),
    ("triqsvm.optimize", "build_qubo_dual", "qubo.build", _build_counts),
    ("triqsvm.optimize", "simulated_anneal", "anneal.solve", _anneal_counts),
    ("triqsvm.optimize", "greedy_descent", "anneal.greedy", None),
    ("triqsvm.optimize", "compute_beta", "qubo.offset", None),
    ("triqsvm.optimize", "accuracy", "qubo.score", None),
    ("triqsvm.cli", "accuracy", "qubo.score", None),
    ("triqsvm.qubo", "kernel_cross", "kernels.cross", _cross_counts),
    ("triqsvm.cli", "decision_values", "cli.decide", None),
)


def install(tracer: Tracer) -> None:
    for module, attr, name, count in ENTRY_POINTS:
        tracer.wrap(module, attr, name, count)


def check_model_file(blob: bytes, n_train: int) -> None:
    data = json.loads(blob)
    alpha = data["alpha"]
    if len(alpha) != n_train or any(a not in (0, 1) for a in alpha):
        raise CheckFailed(f"alpha is not a binary vector of length {n_train}")
    if not math.isfinite(float(data["beta"])):
        raise CheckFailed("beta is not finite")


def make_dataset(m: int, delta: float, seed: int, path: Path, tracer: Tracer):
    """Generate the workload's data, write it as CSV and read it back: the
    program only ever receives the file."""
    with tracer.span("datagen.generate") as span:
        ds = datagen.adhoc_generate(m, delta, seed=seed)
    span.counts = {"points": m}
    with tracer.span("datagen.csv"):
        datagen.write_dataset_csv(ds, path)
        return datagen.read_dataset_csv(path)


def make_split(wl, seed: int, j: int, work: Path, tracer: Tracer):
    """Dataset ``j`` of a run, generated from seed ``j`` and split by the
    run's seed: (the seed of the split and of its training, train,
    validation and holdout rows).

    The data does not depend on the run's seed because its cost does not
    either: at gap 0.6 the rejection loop's work depends on the labelling
    unitary, so set-up times would differ fivefold between seeds."""
    rows = wl.n_train + wl.n_test + wl.holdout
    ds = make_dataset(rows, wl.delta, j, work / f"data-{j}.csv", tracer)
    spec = datagen.SplitSpec(wl.n_train, wl.n_test, seed=split_seed(seed, j))
    return (spec.seed, *datagen.split(ds, spec), datagen.split_rest(ds, spec))


def timed_train(train_set, val_set, cfg, tracer: Tracer):
    with tracer.span("optimize.train") as span:
        start = time.perf_counter()
        report = optimize.train(train_set, val_set, cfg)
        seconds = time.perf_counter() - start
    span.counts = {"iterations": report.iterations_used, "failed": len(report.failures)}
    # An iteration that raised did no kernel or solver work (theta is
    # rejected before any), so it is left out of the per-iteration cost.
    completed = report.iterations_used - len(report.failures)
    return report, seconds, 1e3 * seconds / completed


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    delta: float
    n_train: int
    n_test: int
    holdout: int
    backend: str
    builder: str
    splits: int
    max_iterations: int = 10
    reads: int = 50
    sweeps: int = 1000

    def config(self, seed: int) -> optimize.TrainConfig:
        return optimize.TrainConfig(
            max_iterations=self.max_iterations,
            solver_backend=self.backend,
            qubo_builder=self.builder,
            seed=seed,
            schedule=AnnealSchedule(num_reads=self.reads, sweeps=self.sweeps, seed=seed),
        )

    def min_ops(self) -> int:
        # Every split once, plus one repeat for the determinism check.
        return self.splits + 1

    def setup(self, seed: int, work: Path, tracer: Tracer) -> dict:
        splits = [make_split(self, seed, j, work, tracer) for j in range(self.splits)]
        inputs = [(work / f"data-{j}.csv").read_bytes() for j in range(self.splits)]
        return {"work": work, "inputs": inputs, "splits": splits, "models": {},
                "holdout_acc": {}}

    def references(self, state: dict, seed: int, slowdown) -> None:
        """Train outputs are checked against the run's first model of each
        split, so there is nothing to compute ahead."""

    def operation(self, state: dict, key: int, tracer: Tracer) -> dict:
        j = key % self.splits
        seed, train_set, val_set, holdout = state["splits"][j]
        report, train_s, iter_ms = timed_train(train_set, val_set, self.config(seed), tracer)
        # Scoring the holdout is the benchmark's own work, not the
        # program's, so no layer metric counts it.
        with tracer.paused():
            start = time.perf_counter()
            acc = qubo.accuracy(report.best_model, holdout)
            score_s = time.perf_counter() - start
        path = state["work"] / f"model-{j}.json"
        qubo.save_model(report.best_model, path)
        blob = path.read_bytes()
        check_model_file(blob, self.n_train)
        first = state["models"].setdefault(j, blob)
        if blob != first:
            raise CheckFailed(f"split {j}: a repeat train gave a different model file")
        state["holdout_acc"].setdefault(j, acc)
        return {"op_s": train_s, "train_s": train_s, "iter_ms": iter_ms,
                "qps": holdout.m / score_s}

    def end_to_end(self, states: list[dict], samples: list[dict]) -> dict:
        accs = states[-1]["holdout_acc"]
        return {
            "train_s": [s["train_s"] for s in samples],
            "iter_ms": [s["iter_ms"] for s in samples],
            "predict_qps": [s["qps"] for s in samples],
            "holdout_acc": [float(np.mean(list(accs.values())))] if accs else [],
        }


def _invoke(args: list[str]) -> str:
    """Run one ``triqsvm`` subcommand in this process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        triqsvm.cli.cli.main(args=args, standalone_mode=False)
    return out.getvalue()


@dataclass(frozen=True)
class PredictWorkload:
    name: str
    delta: float
    n_train: int
    n_test: int
    holdout: int
    resolution: int
    sample: int
    models: int

    def min_ops(self) -> int:
        return 2

    def config(self, seed: int) -> optimize.TrainConfig:
        return optimize.TrainConfig(solver_backend="greedy", seed=seed)

    def setup(self, seed: int, work: Path, tracer: Tracer) -> dict:
        train_seed, train_set, val_set, fresh = make_split(self, seed, 0, work, tracer)
        fresh_path = work / "fresh.csv"
        with tracer.span("datagen.csv"):
            datagen.write_dataset_csv(fresh, fresh_path)
        cfg = self.config(train_seed)
        report, train_s, iter_ms = timed_train(train_set, val_set, cfg, tracer)
        model_path = work / "model.json"
        qubo.save_model(report.best_model, model_path)
        return {"work": work, "model": model_path, "fresh": fresh_path,
                "inputs": [(work / "data-0.csv").read_bytes(), fresh_path.read_bytes(),
                           model_path.read_bytes()],
                "train": (train_set, val_set, cfg), "train_s": [train_s], "iter_ms": [iter_ms]}

    def references(self, state: dict, seed: int, slowdown) -> None:
        """Expected outputs, computed once through the library API.  The
        stored model is trained again and must match its file byte for
        byte; ``models - 1`` more models are trained on datasets of their
        own and scored on their holdout rows for ``holdout_acc``.  Each
        ``train`` adds a timing, with the host ``slowdown()`` measured right
        before it."""
        check_model_file(state["model"].read_bytes(), self.n_train)
        model = qubo.load_model(state["model"])
        state["accuracy"] = qubo.accuracy(model, datagen.read_dataset_csv(state["fresh"]))
        state["holdout_acc"] = [state["accuracy"]]
        tracer = Tracer()
        for j in range(self.models):
            if j == 0:
                train_set, val_set, cfg = state["train"]
            else:
                train_seed, train_set, val_set, holdout = make_split(
                    self, seed, j, state["work"], tracer)
                cfg = self.config(train_seed)
            factor = slowdown()
            report, train_s, iter_ms = timed_train(train_set, val_set, cfg, tracer)
            path = state["work"] / f"model-{j}.json"
            qubo.save_model(report.best_model, path)
            check_model_file(path.read_bytes(), self.n_train)
            if j == 0 and path.read_bytes() != state["model"].read_bytes():
                raise CheckFailed("training the set-up model again gave a different file")
            if j > 0:
                state["holdout_acc"].append(qubo.accuracy(report.best_model, holdout))
            state["train_s"].append(train_s)
            state["iter_ms"].append(iter_ms)
            state["slowdown"].append(factor)
        cells = self.resolution ** 2
        picks = np.sort(np.random.default_rng(seed).choice(cells, self.sample, replace=False))
        axis = np.linspace(0.0, 2.0 * np.pi, self.resolution)
        grid = np.column_stack([axis[picks // self.resolution], axis[picks % self.resolution]])
        state["cells"] = picks, grid, qubo.decision_values(grid, model)

    def operation(self, state: dict, key: int, tracer: Tracer) -> dict:
        work = state["work"]
        start = time.perf_counter()
        with tracer.span("cli.evaluate"):
            printed = _invoke(["evaluate", str(state["model"]), str(state["fresh"]),
                               "--out", str(work / "evaluation.json")])
        with tracer.span("cli.map"):
            _invoke(["map", str(state["model"]), "--resolution", str(self.resolution),
                     "--out", str(work / "map.csv")])
        seconds = time.perf_counter() - start
        self.check_evaluation(state, printed, work / "evaluation.json")
        self.check_map(state, work / "map.csv")
        return {"op_s": seconds, "qps": (self.holdout + self.resolution ** 2) / seconds}

    def check_evaluation(self, state: dict, printed: str, path: Path) -> None:
        reported = json.loads(path.read_text(encoding="utf-8"))["accuracy"]
        if reported != state["accuracy"] or printed.strip() != f"{state['accuracy']:.4f}":
            raise CheckFailed(f"evaluate reported {reported!r}, expected {state['accuracy']!r}")

    def check_map(self, state: dict, path: Path) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "x1,x2,decision_value,label" or len(lines) != 1 + self.resolution ** 2:
            raise CheckFailed(f"map has {len(lines) - 1} rows, expected {self.resolution ** 2}")
        picks, grid, expected = state["cells"]
        for idx, point, want in zip(picks, grid, expected):
            x1, x2, value, label = lines[1 + idx].split(",")
            value = float(value)
            if (float(x1), float(x2)) != (point[0], point[1]):
                raise CheckFailed(f"map cell {idx} is at ({x1}, {x2}), expected {tuple(point)}")
            if abs(value - want) > MAP_TOLERANCE or int(label) != (1 if value >= 0.0 else -1):
                raise CheckFailed(f"map cell {idx}: {value!r} vs decision_values {want!r}")

    def end_to_end(self, states: list[dict], samples: list[dict]) -> dict:
        return {
            "train_s": [t for s in states for t in s["train_s"]],
            "iter_ms": [t for s in states for t in s["iter_ms"]],
            "predict_qps": [s["qps"] for s in samples],
            "holdout_acc": [float(np.mean(states[-1]["holdout_acc"]))],
        }


WORKLOADS = {
    wl.name: wl
    for wl in (
        TrainWorkload(
            name="hqsvm-paper",
            delta=0.6, n_train=50, n_test=10, holdout=100, backend="anneal",
            builder="paper", splits=3,
        ),
        TrainWorkload(
            name="qsvm-hard",
            delta=0.0, n_train=200, n_test=40, holdout=200, backend="greedy",
            builder="paper", splits=12,
        ),
        TrainWorkload(
            name="dual-anneal",
            delta=0.0, n_train=50, n_test=10, holdout=200, backend="anneal",
            builder="dual", splits=6, max_iterations=4,
        ),
        PredictWorkload(
            name="predict-map",
            delta=0.0, n_train=50, n_test=40, holdout=300, resolution=100, sample=64,
            models=16,
        ),
    )
}
