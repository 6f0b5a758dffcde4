"""Derivative-free minimizer wrapper and the outer training cycle."""

import warnings

import numpy as np
import pytest

from triqsvm.anneal import AnnealSchedule, brute_force
import triqsvm.optimize as optimize
import triqsvm.qkernel as qkernel
import triqsvm.qubo as qubo
from triqsvm.datagen import Dataset, adhoc_generate, split, SplitSpec
from triqsvm.kernels import LinearKernel, kernel_gram
from triqsvm.optimize import (
    OptimizerConfig,
    TrainConfig,
    cobyla_minimize,
    initial_theta,
    train,
)
from triqsvm.qubo import build_qubo_paper, compute_beta

BOX = [(-2 * np.pi, 2 * np.pi)] * 2


def spy_on_requests(monkeypatch):
    """Count every call COBYLA makes to the function it is handed."""
    requests = [0]
    minimize = optimize._scipy_minimize

    def spy(fun, *args, **kwargs):
        def counted(x):
            requests[0] += 1
            return fun(x)

        return minimize(counted, *args, **kwargs)

    monkeypatch.setattr(optimize, "_scipy_minimize", spy)
    return requests


class TestCobylaMinimize:
    def test_shifted_quadratic(self):
        result = cobyla_minimize(
            lambda x: (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2,
            np.zeros(2),
            BOX,
            OptimizerConfig(rho_begin=1.0, rho_end=1e-8, max_evals=1000),
        )
        assert np.linalg.norm(result.x - np.array([1.0, 2.0])) < 1e-4
        assert result.converged

    def test_start_at_minimum(self):
        result = cobyla_minimize(
            lambda x: float(np.sum(x**2)),
            np.zeros(2),
            BOX,
            OptimizerConfig(rho_begin=1.0, rho_end=1e-6, max_evals=1000),
        )
        assert result.fun == 0.0
        assert np.array_equal(result.x, np.zeros(2))
        assert result.evaluations < 100

    def test_rosenbrock_with_generous_budget(self):
        result = cobyla_minimize(
            lambda x: (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2,
            np.array([-1.2, 1.0]),
            BOX,
            OptimizerConfig(rho_begin=0.5, rho_end=1e-10, max_evals=10_000),
        )
        assert result.fun < 1e-3

    def test_budget_exhaustion_returns_flagged_best(self):
        seen = []

        def objective(x):
            seen.append(x.copy())
            return float(np.sum(x**2))

        result = cobyla_minimize(
            objective,
            np.array([3.0, 3.0]),
            BOX,
            OptimizerConfig(rho_begin=0.5, rho_end=1e-12, max_evals=7),
        )
        assert not result.converged
        assert result.evaluations <= 7
        assert len(seen) <= 7
        assert result.fun <= float(np.sum(np.array([3.0, 3.0]) ** 2))

    @pytest.mark.parametrize("max_evals", [1, 2, 3])
    def test_budget_below_initial_simplex_is_hard(self, max_evals, monkeypatch):
        # PRIMA-based COBYLA needs p + 2 = 4 evaluations at p = 2 and raises
        # a smaller budget with a warning; the wrapper must still stop, and
        # the request after the last allowed evaluation ends the run.
        requests = spy_on_requests(monkeypatch)
        seen = []

        def objective(x):
            seen.append(x.copy())
            return float(np.sum((x - 1.0) ** 2))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cobyla_minimize(
                objective,
                np.zeros(2),
                BOX,
                OptimizerConfig(rho_begin=0.5, rho_end=1e-6, max_evals=max_evals),
            )
        assert len(seen) <= max_evals
        assert requests[0] <= max_evals + 1
        assert result.evaluations <= max_evals
        assert not result.converged
        assert result.fun == min(float(np.sum((x - 1.0) ** 2)) for x in seen)

    def test_never_evaluates_far_outside_bounds(self):
        rho = 0.8
        seen = []

        def objective(x):
            seen.append(x.copy())
            return float(np.sum((x - 5.0) ** 2))  # pulls toward the upper bound

        bounds = [(-1.0, 1.0)] * 2
        cobyla_minimize(
            objective,
            np.zeros(2),
            bounds,
            OptimizerConfig(rho_begin=rho, rho_end=1e-6, max_evals=200),
        )
        for x in seen:
            assert np.all(x >= -1.0 - rho - 1e-9)
            assert np.all(x <= 1.0 + rho + 1e-9)

    def test_evaluates_only_inside_bounds(self):
        seen = []

        def objective(x):
            seen.append(x.copy())
            return float(np.sum((x - 5.0) ** 2))  # pulls toward the upper bound

        result = cobyla_minimize(
            objective,
            np.zeros(2),
            [(-1.0, 1.0)] * 2,
            OptimizerConfig(rho_begin=0.8, rho_end=1e-6, max_evals=200),
        )
        assert np.all(np.abs(np.array(seen)) <= 1.0)
        assert any(np.array_equal(result.x, x) for x in seen)
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-4)

    def test_x0_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            cobyla_minimize(lambda x: 0.0, np.array([9.0, 0.0]), BOX, OptimizerConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(rho_begin=0.1, rho_end=0.5)
        with pytest.raises(ValueError):
            OptimizerConfig(max_evals=0)


class TestInitialTheta:
    def test_within_bounds(self):
        for seed in range(20):
            theta = initial_theta(2, seed)
            assert np.all(np.abs(theta) <= 2 * np.pi)

    def test_deterministic(self):
        assert np.array_equal(initial_theta(2, 5), initial_theta(2, 5))

    def test_shape(self):
        assert initial_theta(2, 0).shape == (2,)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            initial_theta(0, 0)


def two_blob_sets(m_train=16, m_val=8, seed=0):
    rng = np.random.default_rng(seed)
    half_tr, half_va = m_train // 2, m_val // 2
    pos = rng.normal(4.0, 0.4, (half_tr + half_va, 2))
    neg = rng.normal(1.0, 0.4, (half_tr + half_va, 2))
    # Separable by construction: a margin check against the midline.
    assert np.all(pos.sum(axis=1) > 5.0) and np.all(neg.sum(axis=1) < 5.0)
    train_pts = np.vstack([pos[:half_tr], neg[:half_tr]])
    train_lab = np.array([1] * half_tr + [-1] * half_tr)
    val_pts = np.vstack([pos[half_tr:], neg[half_tr:]])
    val_lab = np.array([1] * half_va + [-1] * half_va)
    return Dataset(train_pts, train_lab), Dataset(val_pts, val_lab)


def quick_sets(seed=300, n_train=12, n_test=4):
    ds = adhoc_generate(n_train + n_test, 0.6, seed=seed)
    return split(ds, SplitSpec(n_train, n_test, seed=seed))


class TestTrain:
    def test_zero_target_stops_after_first_iteration(self, monkeypatch):
        # Once the target is met COBYLA gets no further answers, so the
        # first request is also the last.
        requests = spy_on_requests(monkeypatch)
        train_set, val_set = quick_sets()
        cfg = TrainConfig(target_accuracy=0.0, solver_backend="exact", seed=300)
        report = train(train_set, val_set, cfg)
        assert requests[0] == 1
        assert report.iterations_used == 1
        assert report.best_model is not None

    def test_overshoot_is_evaluated_not_failed(self):
        # COBYLA steps past theta_2 = 2*pi on iteration 3 of this run; the
        # step is projected onto the box and evaluated, not logged as a
        # failure.
        ds = adhoc_generate(30, 0.0, seed=1)
        train_set, val_set = split(ds, SplitSpec(20, 10, seed=8))
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=8))
        assert report.failures == []
        assert np.all(np.abs(report.best_theta) <= 2 * np.pi)

    def test_linear_kernel_separates_blobs(self):
        train_set, val_set = two_blob_sets()
        cfg = TrainConfig(kernel_kind="linear", solver_backend="exact", seed=1)
        report = train(train_set, val_set, cfg)
        assert report.best_accuracy == 1.0
        assert report.iterations_used <= 10

    @pytest.mark.parametrize("target", [1.0, 0.0])
    def test_linear_kernel_trains_in_one_pass(self, monkeypatch, target):
        # θ does not reach the linear kernel, so the run is one pass and
        # COBYLA never starts; a pass that meets the target ends it the
        # same way.  Validation accuracy here is 0.75.
        requests = spy_on_requests(monkeypatch)
        train_set, val_set = quick_sets(seed=3)
        cfg = TrainConfig(kernel_kind="linear", solver_backend="exact",
                          target_accuracy=target, seed=3)
        report = train(train_set, val_set, cfg)
        assert requests[0] == 0
        assert report.iterations_used == 1
        assert report.accuracy_per_iteration == [0.75]
        assert report.best_theta.shape == (0,)
        assert report.config["parameter_count"] == 0
        assert report.config["initial_theta"] == []
        k = kernel_gram(LinearKernel(), train_set.points)
        alpha = brute_force(build_qubo_paper(k, train_set.labels)).best_assignment
        model = report.best_model
        assert np.array_equal(model.alpha, alpha)
        assert model.beta == compute_beta(alpha, train_set.labels, k)
        # Frozen α and β of this pass.
        assert model.alpha.tolist() == [1, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1]
        assert model.beta == pytest.approx(98.01434895800992, rel=1e-12)

    def test_exact_backend_uses_global_optimum(self):
        train_set, val_set = quick_sets(seed=7)
        cfg = TrainConfig(solver_backend="exact", target_accuracy=0.0, seed=7)
        report = train(train_set, val_set, cfg)
        model = report.best_model
        k = qkernel.gram_from_states(qkernel.feature_states(model.train_points, model.kernel))
        q = build_qubo_paper(k, model.train_labels)
        assert np.array_equal(model.alpha, brute_force(q).best_assignment)
        assert report.solver["backend"] == "exact"
        assert report.solver["global_optimum"] is True

    def test_reproducible_reports(self):
        train_set, val_set = quick_sets(seed=21)
        cfg = TrainConfig(
            seed=21,
            schedule=AnnealSchedule(num_reads=5, sweeps=50, seed=21),
            max_iterations=4,
        )
        a = train(train_set, val_set, cfg)
        b = train(train_set, val_set, cfg)
        assert a.accuracy_per_iteration == b.accuracy_per_iteration
        assert np.array_equal(a.best_theta, b.best_theta)
        assert np.array_equal(a.best_model.alpha, b.best_model.alpha)
        assert a.best_model.beta == b.best_model.beta

    def test_report_invariants(self):
        train_set, val_set = quick_sets(seed=9)
        cfg = TrainConfig(
            solver_backend="greedy", max_iterations=6, target_accuracy=1.0, seed=9
        )
        report = train(train_set, val_set, cfg)
        assert report.best_accuracy == max(report.accuracy_per_iteration)
        assert report.iterations_used <= 6
        assert report.iterations_used == len(report.accuracy_per_iteration)
        assert report.config["seed"] == 9
        assert report.config["parameter_count"] == 2

    def test_rbf_kernel_path(self):
        train_set, val_set = two_blob_sets(seed=3)
        cfg = TrainConfig(kernel_kind="rbf", solver_backend="greedy", max_iterations=4, seed=3)
        report = train(train_set, val_set, cfg)
        assert 0.0 <= report.best_accuracy <= 1.0
        assert report.config["parameter_count"] == 1

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_iteration_cap_is_hard_below_initial_simplex(self, max_iterations):
        # Random labels keep validation accuracy below the target of 1.0, so
        # only the cap can end the run; p = 2 needs 4 COBYLA evaluations.
        rng = np.random.default_rng(11)
        train_set = Dataset(rng.uniform(0, 2 * np.pi, (12, 2)),
                            np.where(rng.random(12) < 0.5, 1, -1))
        val_set = Dataset(rng.uniform(0, 2 * np.pi, (8, 2)),
                          np.where(rng.random(8) < 0.5, 1, -1))
        cfg = TrainConfig(solver_backend="greedy", max_iterations=max_iterations,
                          target_accuracy=1.0, seed=11)
        report = train(train_set, val_set, cfg)
        assert report.best_accuracy < 1.0
        assert report.iterations_used == max_iterations
        assert len(report.accuracy_per_iteration) == max_iterations

    def test_all_iterations_failing_raises(self):
        # 25 training points exceed the exact solver's cap, so every
        # iteration fails and no model can be produced.
        rng = np.random.default_rng(5)
        train_set = Dataset(rng.uniform(0, 2 * np.pi, (25, 2)),
                            np.where(rng.random(25) < 0.5, 1, -1))
        val_set = Dataset(rng.uniform(0, 2 * np.pi, (5, 2)),
                          np.where(rng.random(5) < 0.5, 1, -1))
        cfg = TrainConfig(solver_backend="exact", max_iterations=2, seed=5)
        with pytest.raises(RuntimeError, match="every training iteration failed"):
            train(train_set, val_set, cfg)

    def test_empty_sets_rejected(self):
        ds = Dataset(np.empty((0, 2)), np.empty(0, dtype=int))
        good = Dataset(np.ones((2, 2)), np.array([1, -1]))
        with pytest.raises(ValueError, match="nonempty"):
            train(ds, good, TrainConfig())
        with pytest.raises(ValueError, match="nonempty"):
            train(good, ds, TrainConfig())

    def test_best_model_keeps_the_states_it_was_trained_on(self):
        train_set, val_set = quick_sets(seed=9)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=9))
        model = report.best_model
        assert model.states.tobytes() == qkernel.feature_states(
            train_set.points, model.kernel).tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(target_accuracy=1.5)
        with pytest.raises(ValueError):
            TrainConfig(solver_backend="quantum")
        with pytest.raises(ValueError):
            TrainConfig(qubo_builder="primal")
        with pytest.raises(ValueError):
            TrainConfig(kernel_kind="poly")


def spy_on_feature_states(monkeypatch):
    """Rows of every ``feature_states`` call that training and scoring
    make, under each name they reach it by."""
    built = []
    original = qkernel.feature_states

    def counted(points, spec):
        states = original(points, spec)
        built.append(states.shape[0])
        return states

    for module in (optimize, qubo):
        monkeypatch.setattr(module, "feature_states", counted)
    return built


class TestStatesBuilt:
    """``states_built`` counts the feature states ``train`` simulates: the m
    training states once per iteration, then the v validation states."""

    def test_run_stopped_by_the_target(self, monkeypatch):
        built = spy_on_feature_states(monkeypatch)
        train_set, val_set = quick_sets(seed=320)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=320))
        assert report.accuracy_per_iteration == [0.75, 1.0]
        assert built == [12, 4] * 2
        assert report.states_built == 2 * (12 + 4)

    def test_full_ten_iteration_run(self, monkeypatch):
        # Random labels: no iteration reaches the target, and COBYLA is
        # still searching when the cap ends this run.
        built = spy_on_feature_states(monkeypatch)
        rng = np.random.default_rng(13)
        train_set = Dataset(rng.uniform(0, 2 * np.pi, (12, 2)),
                            np.where(rng.random(12) < 0.5, 1, -1))
        val_set = Dataset(rng.uniform(0, 2 * np.pi, (8, 2)),
                          np.where(rng.random(8) < 0.5, 1, -1))
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=13))
        assert report.iterations_used == 10 and report.failures == []
        assert built == [12, 8] * 10
        assert report.states_built == 10 * (12 + 8)

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_classical_kernels_build_none(self, monkeypatch, kind):
        built = spy_on_feature_states(monkeypatch)
        train_set, val_set = two_blob_sets(seed=3)
        cfg = TrainConfig(kernel_kind=kind, solver_backend="greedy", max_iterations=4, seed=3)
        report = train(train_set, val_set, cfg)
        assert built == []
        assert report.states_built == 0
        assert report.best_model.states is None
