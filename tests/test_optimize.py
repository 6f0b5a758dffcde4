"""Derivative-free minimizer and the outer training cycle."""

import dataclasses
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest

from triqsvm.anneal import AnnealSchedule, brute_force
import triqsvm
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
from triqsvm.qubo import build_qubo_paper, compute_beta, model_from_dict, model_to_dict

import oracles

BOX = [(-2 * np.pi, 2 * np.pi)] * 2


def spy_on_requests(monkeypatch):
    """Count every point the COBYLA iteration asks ``cobyla_minimize`` to
    evaluate."""
    requests = [0]
    points = optimize._cobyla_points

    def spy(*args, **kwargs):
        inner = points(*args, **kwargs)
        try:
            x = next(inner)
            while True:
                requests[0] += 1
                x = inner.send((yield x))
        except StopIteration as finished:
            return finished.value

    monkeypatch.setattr(optimize, "_cobyla_points", spy)
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
        # The budget is hard even below the p + 1 = 3 points of the initial
        # simplex: the request after the last allowed evaluation ends the
        # run unevaluated.
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

    def test_nan_and_inf_values_do_not_end_the_run(self):
        # The first simplex step lands where the objective is NaN, and a
        # band beyond it returns inf; the model reads both as a huge value.
        def objective(x):
            if x[0] > 0.25:
                return float("nan")
            if x[1] > 0.25:
                return float("inf")
            return (x[0] + 1.0) ** 2 + (x[1] + 2.0) ** 2

        result = cobyla_minimize(objective, np.zeros(2), BOX,
                                 OptimizerConfig(rho_begin=0.5, rho_end=1e-8, max_evals=1000))
        np.testing.assert_allclose(result.x, [-1.0, -2.0], atol=1e-4)
        assert result.converged

    @pytest.mark.parametrize("rho_end", [1e-2, 1e-4])
    def test_budget_spent_on_the_final_value_still_converges(self, rho_end):
        # The value that completes the descent to rho_end may be the last
        # one the budget allows: the run then converges on the budget.
        def objective(x):
            return (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 0.5) ** 2

        config = OptimizerConfig(rho_begin=0.5, rho_end=rho_end, max_evals=1000)
        free = cobyla_minimize(objective, np.zeros(2), BOX, config)
        assert free.converged and free.evaluations < 1000
        k = free.evaluations
        capped = cobyla_minimize(objective, np.zeros(2), BOX,
                                 dataclasses.replace(config, max_evals=k))
        assert capped.evaluations == k
        assert capped.converged
        assert capped.x.tobytes() == free.x.tobytes() and capped.fun == free.fun

    def test_x0_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            cobyla_minimize(lambda x: 0.0, np.array([9.0, 0.0]), BOX, OptimizerConfig())

    @pytest.mark.parametrize("x0", [[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]])
    def test_nan_in_x0_rejected(self, x0):
        # NaN compares False both ways, so it must fail the bounds check
        # rather than pass it: no point holding NaN lies in the box.
        seen = []
        with pytest.raises(ValueError, match="bounds"):
            cobyla_minimize(lambda x: seen.append(x.copy()) or 0.0, np.array(x0), BOX,
                            OptimizerConfig())
        assert seen == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(rho_begin=0.1, rho_end=0.5)
        with pytest.raises(ValueError):
            OptimizerConfig(max_evals=0)


def prima_initial_points(objective, x0, lows, highs, rho):
    """PRIMA's initial simplex, written out: f(x0), then x_best + rho * e_j
    clipped to the box, where x_best is the best point so far."""
    best = np.array(x0, dtype=float)
    points, best_f = [best.copy()], objective(best)
    for j in range(best.size):
        x = best.copy()
        x[j] += rho
        x = np.clip(x, lows, highs)
        points.append(x)
        if objective(x) < best_f:
            best, best_f = x, objective(x)
    return points


class TestCobylaIteration:
    """The owned iteration: PRIMA's initial simplex and the trust-region
    step over ball ∩ box."""

    @staticmethod
    def first_points(objective, x0, bounds, rho, count):
        seen = []

        def recorded(x):
            seen.append(x.copy())
            return objective(x)

        cobyla_minimize(recorded, np.array(x0, dtype=float), bounds,
                        OptimizerConfig(rho_begin=rho, rho_end=1e-6, max_evals=count))
        return seen

    def test_initial_simplex_follows_prima(self):
        # The step along x_0 improves and becomes the pole, the one along
        # x_1 does not, and the one along x_2 is clipped at its bound.
        def objective(x):
            return float(-x[0] + x[1] - 0.1 * x[2])

        x0, bounds = [0.1, -0.3, 0.8], [(-1.0, 1.0)] * 3
        seen = self.first_points(objective, x0, bounds, 0.5, 4)
        lows, highs = np.array(bounds).T
        want = prima_initial_points(objective, x0, lows, highs, 0.5)
        assert [x.tolist() for x in seen] == [x.tolist() for x in want]
        assert [x.tolist() for x in want] == [
            [0.1, -0.3, 0.8], [0.6, -0.3, 0.8], [0.6, 0.2, 0.8], [0.6, -0.3, 1.0]]

    def test_initial_simplex_steps_down_from_the_upper_bound(self):
        # A step up from the bound would repeat the pole.
        seen = self.first_points(lambda x: float(np.sum(x)), [1.0, 0.0],
                                 [(-1.0, 1.0)] * 2, 0.5, 3)
        assert [x.tolist() for x in seen] == [[1.0, 0.0], [0.5, 0.0], [0.5, 0.5]]

    @pytest.mark.parametrize("seed", range(8))
    def test_step_minimises_the_model_over_disk_and_box(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=2)
        if seed == 0:
            g[1] = 0.0
        radius = rng.uniform(0.2, 1.5)
        lower = -rng.uniform(0.0, 1.2, 2)
        upper = rng.uniform(0.0, 1.2, 2)
        d = optimize._box_ball_step(g, radius, lower, upper)
        assert np.linalg.norm(d) <= radius * (1 + 1e-12)
        assert np.all(d >= lower) and np.all(d <= upper)
        # Brute force over the boundary of disk ∩ box, where a linear
        # function has its minimum: a fine sweep of the circle, the box's
        # corners, and the points where the box's edges cross the circle.
        phi = np.linspace(0.0, 2 * np.pi, 200_000, endpoint=False)
        candidates = [radius * np.stack([np.cos(phi), np.sin(phi)], axis=1),
                      np.array([[a, b] for a in (lower[0], upper[0])
                                for b in (lower[1], upper[1])])]
        for axis in range(2):
            for edge in (lower[axis], upper[axis]):
                if abs(edge) <= radius:
                    other = np.sqrt(radius**2 - edge**2)
                    crossing = np.empty((2, 2))
                    crossing[:, axis] = edge
                    crossing[:, 1 - axis] = (other, -other)
                    candidates.append(crossing)
        points = np.concatenate(candidates)
        inside = points[(np.linalg.norm(points, axis=1) <= radius * (1 + 1e-12))
                        & np.all((points >= lower) & (points <= upper), axis=1)]
        brute = float(np.min(inside @ g))
        assert float(g @ d) <= brute + 1e-12
        assert brute - float(g @ d) <= 1e-9

    def test_step_is_the_box_corner_inside_the_ball(self):
        d = optimize._box_ball_step(np.array([1.0, -2.0]), 5.0,
                                    np.array([-0.5, -1.0]), np.array([1.0, 0.25]))
        assert d.tolist() == [-0.5, 0.25]

    def test_zero_gradient_takes_no_step(self):
        d = optimize._box_ball_step(np.zeros(2), 1.0, -np.ones(2), np.ones(2))
        assert d.tolist() == [0.0, 0.0]

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="low < high"):
            cobyla_minimize(lambda x: 0.0, np.zeros(2), [(0.0, 0.0), (-1.0, 1.0)],
                            OptimizerConfig())


class TestScipyOracle:
    """scipy's COBYLA (PRIMA) as a test-only oracle for the final values."""

    def oracle(self, objective, x0, config):
        optimize_scipy = pytest.importorskip("scipy.optimize")
        return optimize_scipy.minimize(
            objective, x0, method="COBYLA", bounds=BOX,
            options={"rhobeg": config.rho_begin, "tol": config.rho_end,
                     "maxiter": config.max_evals})

    def test_shifted_quadratic(self):
        def quadratic(x):
            return (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2

        config = OptimizerConfig(rho_begin=1.0, rho_end=1e-8, max_evals=1000)
        want = self.oracle(quadratic, np.zeros(2), config)
        got = cobyla_minimize(quadratic, np.zeros(2), BOX, config)
        np.testing.assert_allclose(got.x, want.x, atol=1e-6)
        assert got.fun <= max(want.fun, 1e-12) * 10
        assert got.converged and want.success

    def test_rosenbrock(self):
        def rosenbrock(x):
            return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        config = OptimizerConfig(rho_begin=0.5, rho_end=1e-10, max_evals=10_000)
        want = self.oracle(rosenbrock, np.array([-1.2, 1.0]), config)
        got = cobyla_minimize(rosenbrock, np.array([-1.2, 1.0]), BOX, config)
        np.testing.assert_allclose(got.x, want.x, atol=1e-3)
        assert got.fun < 1e-3 and want.fun < 1e-3

    def test_initial_simplex_matches(self):
        # The first p + 1 points are PRIMA's, so runs that end within them
        # match the scipy-based trainer bit for bit.
        def objective(x):
            return float(np.sin(3.0 * x[0]) + np.cos(2.0 * x[1]) - 0.1 * x[2])

        x0 = np.array([6.0, -1.0, 0.4])
        config = OptimizerConfig(rho_begin=0.5, rho_end=1e-4, max_evals=4)
        box = [(-2 * np.pi, 2 * np.pi)] * 3
        lows, highs = np.array(box).T
        oracle_seen = []

        def recorded(x):
            oracle_seen.append(np.clip(x, lows, highs))
            return objective(np.clip(x, lows, highs))

        optimize_scipy = pytest.importorskip("scipy.optimize")
        optimize_scipy.minimize(recorded, x0, method="COBYLA", bounds=box,
                                options={"rhobeg": 0.5, "tol": 1e-4, "maxiter": 5})
        seen = TestCobylaIteration.first_points(objective, x0, box, 0.5, 4)
        assert [x.tolist() for x in seen] == [x.tolist() for x in oracle_seen[:4]]


ORACLE_KINDS = ("smooth", "step", "nonfinite")
ORACLE_SEEDS = range(25)


def oracle_case(p: int, kind: str, seed: int):
    """One seeded COBYLA case: (objective, x0, lows, highs, config).

    Budgets run through 1-60 over the 300 cases; every third x0 has a
    coordinate on its upper bound; ``rho_end`` is ``rho_begin`` over
    10-1000, so that a third of the runs or more reduce ρ to it and
    converge within their budget.
    ``step`` is 1 - accuracy on 40 fixed points, as in training, and
    ``nonfinite`` returns NaN and inf beyond thresholds near x0."""
    k = ORACLE_KINDS.index(kind)
    rng = np.random.default_rng([p, k, seed])
    lows = -rng.uniform(0.5, 2 * np.pi, p)
    highs = rng.uniform(0.5, 2 * np.pi, p)
    x0 = rng.uniform(lows, highs)
    if seed % 3 == 0:
        x0[seed % p] = highs[seed % p]
    rho_begin = rng.uniform(0.2, 1.0)
    rho_end = rho_begin * 10.0 ** -int(rng.integers(1, 4))
    max_evals = 1 + ((p - 1) * 75 + k * 25 + seed) % 60
    center = rng.uniform(lows, highs)
    weight = rng.uniform(0.5, 2.0, p)
    directions = rng.normal(size=(40, p))
    offsets = rng.uniform(0, 2 * np.pi, 40)
    labels = rng.choice([-1.0, 1.0], 40)
    nan_above = x0[0] + rng.uniform(0.1, 1.0) * rho_begin
    inf_below = x0[-1] - rng.uniform(0.1, 1.0) * rho_begin

    def smooth(x):
        return float(weight @ (x - center) ** 2 + 0.3 * np.prod(x - center))

    def step(x):
        return float(np.mean(np.sign(np.cos(directions @ x + offsets)) != labels))

    def nonfinite(x):
        if x[0] > nan_above:
            return float("nan")
        if x[-1] < inf_below:
            return float("inf")
        return smooth(x)

    objective = {"smooth": smooth, "step": step, "nonfinite": nonfinite}[kind]
    config = OptimizerConfig(rho_begin=rho_begin, rho_end=rho_end, max_evals=max_evals)
    return objective, x0, lows, highs, config


def oracle_run(p: int, kind: str, seed: int):
    """The case run through ``cobyla_minimize`` and through the reference
    iteration in ``tests/oracles.py``: (points, result) for each."""
    objective, x0, lows, highs, config = oracle_case(p, kind, seed)
    seen = []

    def recorded(x):
        seen.append(x.copy())
        return objective(x)

    got = cobyla_minimize(recorded, x0, list(zip(lows, highs)), config)
    want_seen, *want = oracles.oracle_cobyla_minimize(
        objective, x0, lows, highs, config.rho_begin, config.rho_end, config.max_evals)
    return (seen, got), (want_seen, want)


class TestBitwiseOracle:
    """The iteration evaluates the reference iteration's points and returns
    its result, compared by bytes: the 1e-12 tolerance of the golden
    fixtures would let a moved rounding pass."""

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_points_and_result_match_bytes(self, p, kind):
        for seed in ORACLE_SEEDS:
            (seen, got), (want_seen, want) = oracle_run(p, kind, seed)
            assert [x.tobytes() for x in seen] == [x.tobytes() for x in want_seen], seed
            want_x, want_fun, want_evaluations, want_converged = want
            assert got.x.tobytes() == want_x.tobytes(), seed
            assert np.float64(got.fun).tobytes() == np.float64(want_fun).tobytes(), seed
            assert (got.evaluations, got.converged) == (want_evaluations, want_converged), seed

    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_step_matches_bytes_on_tied_breakpoints(self, p):
        # Coordinates that reach their bounds at the same t come in
        # np.argsort's order, which need not be a stable sort's (with
        # AVX-512 it is not from p = 4 on), and that order sets how |d|²
        # adds up.
        rng = np.random.default_rng(p)
        for _ in range(500):
            g = rng.choice([-0.7, -0.3, -0.1, 0.0, 0.1, 0.3, 0.7], p)
            lower = -np.abs(g) * rng.choice([0.5, 1.0], p)
            upper = np.abs(g) * rng.choice([0.5, 1.0], p) + 0.01 * (g == 0)
            radius = rng.uniform(0.05, 1.5)
            got = optimize._box_ball_step(g, radius, lower, upper)
            want = oracles._box_ball_step(g, radius, lower, upper)
            assert got.tobytes() == want.tobytes()

    def test_clipped_equals_np_clip_in_bytes(self):
        # Signed zeros included: maximum(lower, x) would keep the other
        # zero on ties.
        rng = np.random.default_rng(0)
        values = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        for size in range(1, 10):
            for _ in range(300):
                x, lower, upper = rng.choice(values, (3, size))
                lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
                want = np.clip(x, lower, upper)
                assert optimize._clipped(x.copy(), lower, upper).tobytes() == want.tobytes()

    def test_cases_cover_the_contract(self):
        budgets, converged, nonfinite, on_upper = set(), 0, 0, 0
        for p in range(1, 5):
            for kind in ORACLE_KINDS:
                for seed in ORACLE_SEEDS:
                    objective, x0, _, highs, config = oracle_case(p, kind, seed)
                    (seen, got), _ = oracle_run(p, kind, seed)
                    budgets.add(config.max_evals)
                    converged += got.converged
                    nonfinite += any(not np.isfinite(objective(x)) for x in seen)
                    on_upper += bool(np.any(x0 == highs))
        assert budgets == set(range(1, 61))
        assert converged >= 20
        assert nonfinite >= 20
        assert on_upper >= 100


class TestRuntimeFootprint:
    """What importing the package costs a fresh interpreter."""

    @staticmethod
    def run_fresh(script: str) -> str:
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, check=True, timeout=120)
        return result.stdout.strip()

    def test_import_loads_no_scipy(self):
        script = ("import sys, triqsvm, triqsvm.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert self.run_fresh(script) == "[]"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_freed_temporaries_fault_in_no_pages(self):
        # Three 320 KB arrays are above glibc's default mmap threshold and,
        # freed together, above its default trim threshold: unpinned, each
        # pass faults in about 200 pages.
        script = """
import resource
import numpy as np
import triqsvm

def passes(count):
    for _ in range(count):
        a, b, c = np.ones(40_000), np.ones(40_000), np.ones(40_000)
        del a, b, c

passes(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
passes(200)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        assert int(self.run_fresh(script)) < 100


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
        # theta_2 starts 0.16 below 2*pi: the initial simplex reaches the
        # bound on iteration 3 and a trust-region step lands on it on
        # iteration 5.  Both are evaluated, not logged as failures.
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
        assert report.config["triqsvm_version"] == triqsvm.__version__
        assert report.config["numpy_version"] == np.__version__
        assert all(type(a) is float for a in report.accuracy_per_iteration)
        assert type(report.best_accuracy) is float

    def test_rbf_kernel_path(self):
        train_set, val_set = two_blob_sets(seed=3)
        cfg = TrainConfig(kernel_kind="rbf", solver_backend="greedy", max_iterations=4, seed=3)
        report = train(train_set, val_set, cfg)
        assert 0.0 <= report.best_accuracy <= 1.0
        assert report.config["parameter_count"] == 1

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_iteration_cap_is_hard_below_initial_simplex(self, max_iterations):
        # Random labels keep validation accuracy below the target of 1.0, so
        # only the cap can end the run; the initial simplex at p = 2 has 3
        # points.
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
        # Presolve fixes none of these 25 dual variables, so brute force
        # gets more than its cap in every iteration and no model can be
        # produced.
        rng = np.random.default_rng(5)
        train_set = Dataset(rng.uniform(0, 2 * np.pi, (25, 2)),
                            np.where(rng.random(25) < 0.5, 1, -1))
        val_set = Dataset(rng.uniform(0, 2 * np.pi, (5, 2)),
                          np.where(rng.random(5) < 0.5, 1, -1))
        cfg = TrainConfig(solver_backend="exact", qubo_builder="dual", max_iterations=2, seed=5)
        with pytest.raises(RuntimeError, match="every training iteration failed.*got 25"):
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
        states = qkernel.feature_states(train_set.points, model.kernel)
        operator = qkernel.weighted_operator(states, model.alpha * model.train_labels)
        rebuilt = dataclasses.replace(model, built_operator=operator)
        assert model.operator.tobytes() == rebuilt.operator.tobytes()

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


def spy_on_states(monkeypatch):
    """Rows of every call of ``qkernel.states_from_phases``, the one
    statevector routine that training and scoring (through
    ``feature_states``) reach, under each name they reach it by."""
    built = []
    original = qkernel.states_from_phases

    def counted(phases, spec):
        states = original(phases, spec)
        built.append(states.shape[0])
        return states

    for module in (qkernel, optimize):
        monkeypatch.setattr(module, "states_from_phases", counted)
    return built


class TestStatesBuilt:
    """``states_built`` counts the feature states ``train`` simulates: the m
    training states once per iteration, then the v validation states."""

    def test_run_stopped_by_the_target(self, monkeypatch):
        # Generating the data simulates circuits too, so the spy starts after.
        train_set, val_set = quick_sets(seed=320)
        built = spy_on_states(monkeypatch)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=320))
        assert report.accuracy_per_iteration == [0.75, 1.0]
        assert built == [12, 4] * 2
        assert report.states_built == 2 * (12 + 4)

    def test_full_ten_iteration_run(self, monkeypatch):
        # Random labels: no iteration reaches the target, and COBYLA is
        # still searching when the cap ends this run.
        built = spy_on_states(monkeypatch)
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
        train_set, val_set = two_blob_sets(seed=3)
        built = spy_on_states(monkeypatch)
        cfg = TrainConfig(kernel_kind=kind, solver_backend="greedy", max_iterations=4, seed=3)
        report = train(train_set, val_set, cfg)
        assert built == []
        assert report.states_built == 0
        assert report.best_model.operator is None


def trained_quantum_model(d, builder):
    """The best model of a 4-pass quantum run on d qubits.  Random labels:
    no iteration reaches the target."""
    rng = np.random.default_rng(70 + d)
    train_set = Dataset(rng.uniform(0, 2 * np.pi, (12, d)),
                        np.where(rng.random(12) < 0.5, 1, -1))
    val_set = Dataset(rng.uniform(0, 2 * np.pi, (8, d)),
                      np.where(rng.random(8) < 0.5, 1, -1))
    cfg = TrainConfig(solver_backend="greedy", qubo_builder=builder, max_iterations=4, seed=d)
    report = train(train_set, val_set, cfg)
    assert report.failures == []
    return report.best_model


class TestOneStatevectorPath:
    """A model trained from the run's kept phases has the operator that a
    model rebuilt through ``feature_states`` builds, bit for bit, and the
    β of the values that operator scores."""

    @pytest.mark.parametrize("builder", ["paper", "dual"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trained_operator_equals_rebuilt_ones(self, d, builder):
        model = trained_quantum_model(d, builder)
        assert model.operator.shape == (2**d, 2**d)
        for rebuilt in (dataclasses.replace(model), model_from_dict(model_to_dict(model))):
            assert rebuilt.operator.tobytes() == model.operator.tobytes()

    @pytest.mark.parametrize("builder", ["paper", "dual"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_beta_is_the_offset_of_the_scored_values(self, d, builder):
        # f at the training points is what the model's operator scores
        # there, on both builders; the Gram's K^T (α ⊙ y) rounds otherwise.
        model = trained_quantum_model(d, builder)
        f = qkernel.expectations(qkernel.feature_states(model.train_points, model.kernel),
                                 model.operator)
        assert model.beta == qubo.offset(model.train_labels, f)


def spy_on_operators(monkeypatch):
    """Rows of the states behind every operator M that training builds,
    under each name it reaches ``weighted_operator`` by."""
    built = []
    original = qkernel.weighted_operator

    def counted(states, weights):
        built.append(states.shape[0])
        return original(states, weights)

    for module in (optimize, qubo):
        monkeypatch.setattr(module, "weighted_operator", counted)
    return built


class TestOperatorsBuilt:
    """Each quantum pass builds its model's operator M once and hands it
    to the model; classical kernels build none."""

    @pytest.mark.parametrize("builder", ["paper", "dual"])
    def test_one_operator_per_quantum_pass(self, monkeypatch, builder):
        built = spy_on_operators(monkeypatch)
        # Random labels: no iteration reaches the target.
        rng = np.random.default_rng(13)
        train_set = Dataset(rng.uniform(0, 2 * np.pi, (12, 2)),
                            np.where(rng.random(12) < 0.5, 1, -1))
        val_set = Dataset(rng.uniform(0, 2 * np.pi, (8, 2)),
                          np.where(rng.random(8) < 0.5, 1, -1))
        cfg = TrainConfig(solver_backend="greedy", qubo_builder=builder, max_iterations=5,
                          seed=13)
        report = train(train_set, val_set, cfg)
        assert report.iterations_used == 5 and report.failures == []
        assert built == [12] * 5

    @pytest.mark.parametrize("builder", ["paper", "dual"])
    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    def test_classical_kernels_build_none(self, monkeypatch, kind, builder):
        built = spy_on_operators(monkeypatch)
        train_set, val_set = two_blob_sets(seed=3)
        cfg = TrainConfig(kernel_kind=kind, solver_backend="greedy", qubo_builder=builder,
                          max_iterations=4, seed=3)
        report = train(train_set, val_set, cfg)
        assert report.failures == []
        assert built == []
        assert report.best_model.operator is None


def spy_on_models_and_passes(monkeypatch):
    """Events in call order: "model" for each ``_linear_model`` call of the
    COBYLA iteration, "pass" for each pass of ``train`` that scores its
    validation set."""
    events = []
    linear_model, score = optimize._linear_model, optimize.accuracy

    def model(*args):
        events.append("model")
        return linear_model(*args)

    def scored(*args):
        events.append("pass")
        return score(*args)

    monkeypatch.setattr(optimize, "_linear_model", model)
    monkeypatch.setattr(optimize, "accuracy", scored)
    return events


def after_last(events, name):
    return events[len(events) - events[::-1].index(name):]


def random_label_sets(seed):
    rng = np.random.default_rng(seed)
    train_set = Dataset(rng.uniform(0, 2 * np.pi, (12, 2)),
                        np.where(rng.random(12) < 0.5, 1, -1))
    val_set = Dataset(rng.uniform(0, 2 * np.pi, (8, 2)),
                      np.where(rng.random(8) < 0.5, 1, -1))
    return train_set, val_set


class TestLastPass:
    """The pass that spends ``train``'s budget ends the run, so COBYLA
    builds no linear model for a point it could not evaluate;
    ``cobyla_minimize`` itself still sends every value it gets."""

    def test_full_budget_train_builds_no_model_after_its_last_pass(self, monkeypatch):
        # Random labels: no pass reaches the target, and COBYLA is still
        # searching when the budget runs out.  Before the budget's pass
        # ended the run, COBYLA built an 8th model after it.
        events = spy_on_models_and_passes(monkeypatch)
        train_set, val_set = random_label_sets(13)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=13))
        assert report.iterations_used == 10 and report.failures == []
        assert events.count("pass") == 10
        assert after_last(events, "pass") == []
        assert events.count("model") == 7

    def test_train_stopped_by_the_target_is_unchanged(self, monkeypatch):
        events = spy_on_models_and_passes(monkeypatch)
        train_set, val_set = random_label_sets(15)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=15))
        assert report.iterations_used == 5 and report.best_accuracy == 1.0
        assert report.accuracy_per_iteration[-1] == 1.0
        assert after_last(events, "pass") == []
        assert events.count("model") == 2

    def test_failed_last_pass_ends_the_run_too(self, monkeypatch):
        # Every pass after the first fails: the budget's pass still ends the
        # run before COBYLA models its value.
        events = spy_on_models_and_passes(monkeypatch)

        def first_only(model, ds):
            events.append("pass")
            if events.count("pass") > 1:
                raise RuntimeError("scoring failed")
            return qubo.accuracy(model, ds)

        monkeypatch.setattr(optimize, "accuracy", first_only)
        train_set, val_set = random_label_sets(13)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=13))
        assert report.iterations_used == 10 and len(report.failures) == 9
        assert after_last(events, "pass") == []

    def test_direct_minimize_still_models_the_last_value(self, monkeypatch):
        # Outside train the budget's last value is still sent, since it can
        # complete the descent that sets ``converged``.
        events = spy_on_models_and_passes(monkeypatch)

        def objective(x):
            events.append("pass")
            return (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 0.5) ** 2

        result = cobyla_minimize(objective, np.zeros(2), BOX, OptimizerConfig(max_evals=10))
        assert result.evaluations == events.count("pass") == 10
        assert after_last(events, "pass") == ["model"]


class TestPassLoop:
    """``train`` drives COBYLA's point generator in its own pass loop."""

    def test_train_never_calls_cobyla_minimize(self, monkeypatch):
        def refused(*args):
            raise AssertionError("train called cobyla_minimize")

        monkeypatch.setattr(optimize, "cobyla_minimize", refused)
        train_set, val_set = random_label_sets(13)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=13))
        assert report.iterations_used == 10 and report.failures == []

    def test_theta_path_is_cobyla_minimize_path_on_the_same_losses(self, monkeypatch):
        # The full-budget run of ``TestLastPass``: cobyla_minimize, fed the
        # losses train saw, asks for the same θ in the same order.
        seen = []
        score = optimize.accuracy

        def recorded(model, ds):
            seen.append(model.kernel.theta.tobytes())
            return score(model, ds)

        monkeypatch.setattr(optimize, "accuracy", recorded)
        train_set, val_set = random_label_sets(13)
        report = train(train_set, val_set, TrainConfig(solver_backend="greedy", seed=13))
        losses = iter([1.0 - a for a in report.accuracy_per_iteration])
        replayed = []

        def objective(x):
            replayed.append(x.tobytes())
            return next(losses)

        cobyla_minimize(objective, initial_theta(2, 13), BOX, OptimizerConfig(max_evals=10))
        assert len(seen) == 10
        assert replayed == seen

    def test_failed_first_pass_does_not_meet_a_zero_target(self, monkeypatch):
        # A failed pass scores 0 with loss 1 but is no score at all, so
        # even a target of 0 waits for the next pass.
        score = optimize.accuracy
        calls = []

        def first_fails(model, ds):
            calls.append(model)
            if len(calls) == 1:
                raise RuntimeError("scoring failed")
            return score(model, ds)

        monkeypatch.setattr(optimize, "accuracy", first_fails)
        train_set, val_set = quick_sets()
        cfg = TrainConfig(target_accuracy=0.0, solver_backend="greedy", seed=300)
        report = train(train_set, val_set, cfg)
        assert report.accuracy_per_iteration == [0.0, 1.0]
        assert report.failures == ["iteration 1: scoring failed"]
        assert report.best_model is calls[1]


class TestIntegerCounts:
    """Counts are integers, numpy's too, stored as Python ints, so the
    iteration cap and the evaluation budget are hard."""

    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_max_iterations(self, value):
        with pytest.raises(ValueError, match="max_iterations must be a positive integer"):
            TrainConfig(max_iterations=value)

    @pytest.mark.parametrize("value", [2.5, 3.0])
    def test_max_evals(self, value):
        with pytest.raises(ValueError, match="max_evals must be a positive integer"):
            OptimizerConfig(max_evals=value)

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", -1])
    def test_seeds(self, value):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TrainConfig(seed=value)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SplitSpec(10, 2, seed=value)

    @pytest.mark.parametrize("make, name", [
        (lambda v: TrainConfig(max_iterations=v), "max_iterations"),
        (lambda v: TrainConfig(seed=v), "seed"),
        (lambda v: OptimizerConfig(max_evals=v), "max_evals"),
        (lambda v: SplitSpec(10, 2, seed=v), "seed"),
    ], ids=["max_iterations", "train-seed", "max_evals", "split-seed"])
    def test_bools_are_not_counts(self, make, name):
        with pytest.raises(ValueError, match=f"{name} must be a .* integer, got True"):
            make(True)

    def test_numpy_integers_are_stored_as_python_ints(self):
        cfg = TrainConfig(max_iterations=np.int64(3), seed=np.int64(5))
        opt = OptimizerConfig(max_evals=np.int32(4))
        assert type(cfg.max_iterations) is int and cfg.max_iterations == 3
        assert type(cfg.seed) is int and cfg.seed == 5
        assert type(opt.max_evals) is int and opt.max_evals == 4
        spec = SplitSpec(np.int64(10), seed=np.int32(0))
        assert type(spec.n_train) is int and type(spec.n_test) is int and type(spec.seed) is int
        assert spec.n_test == 2

    @pytest.mark.parametrize("sizes, name", [((2.5,), "n_train"), ((10, 1.5), "n_test"),
                                             ((0,), "n_train"), ((10, -1), "n_test")])
    def test_split_sizes(self, sizes, name):
        with pytest.raises(ValueError, match=f"{name} must be a"):
            SplitSpec(*sizes)
