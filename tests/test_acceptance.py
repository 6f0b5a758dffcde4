"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line with the measured statistic (run pytest
with ``-s`` to see them) and asserts the criterion at its stated tolerance,
including the runtime budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from triqsvm.anneal import AnnealSchedule, brute_force, simulated_anneal
from triqsvm.datagen import SplitSpec, adhoc_generate, split, split_rest, write_dataset_csv
from triqsvm.optimize import OptimizerConfig, TrainConfig, cobyla_minimize, train
from triqsvm.qkernel import FeatureMapSpec, gram
from triqsvm.qubo import QuboMatrix, build_qubo_paper, compute_beta

from oracles import oracle_expectation_zz, oracle_feature_state, oracle_kernel

SEEDS = [300, 600, 1000, 1, 2]


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "triqsvm", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_criterion_1_kernel_matches_oracle():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(0, 2 * np.pi, 2)
        z = rng.uniform(0, 2 * np.pi, 2)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
        got = gram([x, z], FeatureMapSpec(n=2, theta=theta)).entries[0, 1]
        want = oracle_kernel(x, z, theta)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < budget
    report(1, "kernel vs dense oracle", ok, f"max |diff| {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < budget


def test_criterion_2_gram_psd():
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    min_eig = np.inf
    max_diag_err = 0.0
    for _ in range(50):
        points = rng.uniform(0, 2 * np.pi, (20, 2))
        theta = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
        g = gram(points, FeatureMapSpec(n=2, theta=theta)).entries
        assert np.array_equal(g, g.T)
        max_diag_err = max(max_diag_err, float(np.max(np.abs(np.diag(g) - 1.0))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(g).min()))
    elapsed = time.perf_counter() - start
    ok = min_eig >= -1e-8 and max_diag_err <= 1e-10 and elapsed < budget
    report(2, "Gram PSD/diagonal/symmetry", ok,
           f"min eig {min_eig:.2e}, diag err {max_diag_err:.2e}, {elapsed:.1f}s")
    assert min_eig >= -1e-8
    assert max_diag_err <= 1e-10
    assert elapsed < budget


def test_criterion_3_gap_guarantee():
    budget = 30.0
    start = time.perf_counter()
    ds = adhoc_generate(500, 0.6, seed=300)
    # Independent oracle path: rebuild V from the same seed stream, then a
    # dense matrix sandwich for every sample.
    rng = np.random.default_rng(300)
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    violations = 0
    for x, label in zip(ds.points, ds.labels):
        e = oracle_expectation_zz(oracle_feature_state(x, [1.0, 1.0]), v)
        if not (abs(e) > 0.6 and label == (1 if e > 0 else -1)):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < budget
    report(3, "gap 0.6 on 500 samples", ok, f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < budget


def test_criterion_4_annealer_vs_brute_force():
    budget = 60.0
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    hits = 0
    for inst in range(100):
        q = QuboMatrix(rng.uniform(-1, 1, (12, 12)))
        annealed = simulated_anneal(q, AnnealSchedule(num_reads=50, sweeps=1000, seed=inst))
        exact = brute_force(q)
        if abs(annealed.best_energy - exact.best_energy) < 1e-9:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and elapsed < budget
    report(4, "annealer finds optimum", ok, f"{hits}/100 instances, {elapsed:.1f}s")
    assert hits >= 95
    assert elapsed < budget


def test_criterion_5_pseudocode_transcription():
    k = np.array([[1.0, 0.5], [0.5, 1.0]])
    labels = np.array([1, -1])
    q = build_qubo_paper(k, labels).q
    beta = compute_beta(np.array([1, 0]), labels, k)
    ok = q[0, 1] == -0.25 and q[1, 0] == -0.25 and np.all(np.diag(q) == 0.0) and beta == -0.75
    report(5, "worked-example exactness", ok, f"q01 {q[0, 1]!r}, beta {beta!r}")
    assert q[0, 1] == -0.25
    assert q[1, 0] == -0.25
    assert np.all(np.diag(q) == 0.0)
    assert beta == -0.75


def test_criterion_6_small_training_pattern():
    budget = 300.0
    start = time.perf_counter()
    accuracies = []
    for seed in SEEDS:
        ds = adhoc_generate(60, 0.6, seed=seed)
        train_set, val_set = split(ds, SplitSpec(50, 10, seed=seed))
        result = train(train_set, val_set, TrainConfig(seed=seed))
        assert result.iterations_used <= 10
        accuracies.append(result.best_accuracy)
    median = float(np.median(accuracies))
    elapsed = time.perf_counter() - start
    ok = median >= 0.9 and elapsed < budget
    report(6, "50/10 validation accuracy", ok,
           f"median {median:.3f} over seeds {SEEDS}, accs {np.round(accuracies, 2).tolist()}, "
           f"{elapsed:.0f}s")
    assert median >= 0.9
    assert elapsed < budget


def test_criterion_7_extrapolation(tmp_path):
    budget = 300.0
    start = time.perf_counter()
    accuracies = []
    for seed in SEEDS:
        ds = adhoc_generate(360, 0.6, seed=seed)
        data_path = tmp_path / f"full{seed}.csv"
        write_dataset_csv(ds, data_path)
        out_dir = tmp_path / f"run{seed}"
        trained = run_cli("train", "--data", data_path, "--n-train", 50,
                          "--seed", seed, "--out", out_dir)
        assert trained.returncode == 0, trained.stderr
        fresh = split_rest(ds, SplitSpec(50, 10, seed=seed))
        assert fresh.m == 300
        fresh_path = tmp_path / f"fresh{seed}.csv"
        write_dataset_csv(fresh, fresh_path)
        evaluated = run_cli("evaluate", out_dir / "model.json", fresh_path,
                            "--out", tmp_path / f"eval{seed}.json")
        assert evaluated.returncode == 0, evaluated.stderr
        accuracies.append(float(evaluated.stdout.strip()))
    median = float(np.median(accuracies))
    elapsed = time.perf_counter() - start
    ok = median >= 0.85 and elapsed < budget
    report(7, "50-trained model on 300 fresh points", ok,
           f"median {median:.3f}, accs {np.round(accuracies, 3).tolist()}, {elapsed:.0f}s")
    assert median >= 0.85
    assert elapsed < budget


def test_criterion_8_optimizer_sanity():
    box = [(-2 * np.pi, 2 * np.pi)] * 2
    quad = cobyla_minimize(
        lambda x: (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2,
        np.zeros(2),
        box,
        OptimizerConfig(rho_begin=1.0, rho_end=1e-8, max_evals=1000),
    )
    quad_dist = float(np.linalg.norm(quad.x - np.array([1.0, 2.0])))
    rosen = cobyla_minimize(
        lambda x: (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2,
        np.array([-1.2, 1.0]),
        box,
        OptimizerConfig(rho_begin=0.5, rho_end=1e-10, max_evals=10_000),
    )
    ok = quad_dist < 1e-4 and rosen.fun < 1e-3
    report(8, "optimizer convergence", ok,
           f"quadratic dist {quad_dist:.2e}, rosenbrock f {rosen.fun:.2e}")
    assert quad_dist < 1e-4
    assert rosen.fun < 1e-3


def test_criterion_9_determinism(tmp_path):
    ds = adhoc_generate(24, 0.6, seed=42)
    data_path = tmp_path / "data.csv"
    write_dataset_csv(ds, data_path)
    models = []
    trajectories = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        result = run_cli("train", "--data", data_path, "--n-train", 15, "--n-test", 5,
                         "--seed", 42, "--max-iters", 4, "--reads", 10, "--sweeps", 100,
                         "--out", out_dir)
        assert result.returncode == 0, result.stderr
        models.append((out_dir / "model.json").read_bytes())
        payload = json.loads((out_dir / "report.json").read_text())
        trajectories.append(payload["train_report"]["accuracy_per_iteration"])
    ok = models[0] == models[1] and trajectories[0] == trajectories[1]
    report(9, "repeat runs identical", ok,
           f"model bytes equal: {models[0] == models[1]}, "
           f"trajectory {trajectories[0]}")
    assert models[0] == models[1]
    assert trajectories[0] == trajectories[1]
