"""First-order persistency presolve and its use in the training loop."""

from dataclasses import asdict

import numpy as np
import pytest

import triqsvm.anneal as anneal
import triqsvm.optimize as optimize
from triqsvm.anneal import (
    AnnealSchedule,
    Presolved,
    brute_force,
    energy,
    presolve,
    simulated_anneal,
)
from triqsvm.datagen import SplitSpec, adhoc_generate, split
from triqsvm.kernels import RbfKernel, default_rbf_gamma, kernel_gram
from triqsvm.optimize import TrainConfig, _solve_qubo, train
from triqsvm.qkernel import FeatureMapSpec, feature_states, gram_from_states
from triqsvm.qubo import (
    QuboMatrix,
    build_qubo_dual,
    build_qubo_paper,
    compute_beta,
    model_to_dict,
    offset,
)


def all_energies(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = q.shape[0]
    codes = np.arange(2**n)
    bits = ((codes[:, None] >> (n - 1 - np.arange(n))) & 1).astype(float)
    return bits, ((bits @ q) * bits).sum(axis=1)


def partly_fixable(rng: np.random.Generator, n: int) -> QuboMatrix:
    """Random couplings plus a few variables whose diagonal outweighs them,
    so that persistency fixes some variables and leaves the rest."""
    q = rng.uniform(-1, 1, (n, n))
    strong = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False)
    sign = rng.choice([-1.0, 1.0], size=strong.size)
    q[strong, strong] = sign * rng.uniform(2 * n, 3 * n, strong.size)
    return QuboMatrix(q)


def tied(rng: np.random.Generator, n: int) -> QuboMatrix:
    """Coefficients on a coarse grid with many zeros, so that the rules'
    sums often land exactly on 0."""
    return QuboMatrix(rng.choice([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0], size=(n, n)))


def chain(n: int) -> QuboMatrix:
    """x_0 is fixed to 1 on its own; x_i becomes fixable only once x_{i-1}
    is fixed to 1, so the fixpoint takes n rounds."""
    q = np.zeros((n, n))
    q[0, 0] = -1.0
    for i in range(1, n):
        q[i, i] = 1.0
        q[i - 1, i] = -2.0
    return QuboMatrix(q)


def gap_sets(seed: int, delta: float = 0.6, n_train: int = 50, n_test: int = 10):
    ds = adhoc_generate(n_train + n_test, delta, seed=seed)
    return split(ds, SplitSpec(n_train, n_test, seed=seed))


def backend_fields(cfg: TrainConfig) -> dict:
    """The fields a backend opens each pass's solver record with."""
    schedule = cfg.schedule if cfg.schedule is not None else AnnealSchedule(seed=cfg.seed)
    return {"anneal": {"backend": "anneal", **asdict(schedule)},
            "greedy": {"backend": "greedy", "seed": cfg.seed},
            "exact": {"backend": "exact", "global_optimum": True}}[cfg.solver_backend]


def solve_qubo(q, cfg: TrainConfig):
    """``_solve_qubo`` of ``q`` with the backend ``train`` settles for ``cfg``."""
    solve, fields = optimize._backend(cfg)
    assert fields == backend_fields(cfg)
    return _solve_qubo(q, solve)


def assert_all_ones(pre: Presolved, q: QuboMatrix) -> None:
    assert pre.fixed.all()
    assert pre.values.tolist() == [1] * q.n
    assert pre.residual.n == 0
    assert pre.offset == energy(q, np.ones(q.n))


class TestPaperInstances:
    def test_quantum_kernel_fixes_every_variable_to_one(self):
        train_set, _ = gap_sets(300)
        spec = FeatureMapSpec(n=2, theta=np.array([0.7, -1.9]))
        k = gram_from_states(feature_states(train_set.points, spec))
        q = build_qubo_paper(k, train_set.labels)
        assert_all_ones(presolve(q), q)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_unit_interval_kernel_fixes_every_variable_to_one(self, m):
        # q_mn = -1/2 (1 + y_m y_n K_mn) < 0 for K in [0, 1), so every bit
        # set lowers the energy: the first round fixes all of them and all
        # ones is the unique optimum.  (At m = 1 the instance is all zero
        # and brute force's tie rule picks 0.)
        rng = np.random.default_rng(m)
        for _ in range(20):
            k = rng.random((m, m))
            k = np.triu(k) + np.triu(k, 1).T
            q = build_qubo_paper(k, rng.choice([-1, 1], size=m))
            assert np.all(q.q[~np.eye(m, dtype=bool)] < 0.0)
            pre = presolve(q)
            assert_all_ones(pre, q)
            best = brute_force(q)
            assert best.best_assignment.tolist() == [1] * m
            assert best.best_energy == pre.offset

    def test_rbf_kernel_fixes_every_variable_to_one(self):
        train_set, _ = gap_sets(600, delta=0.0)
        kernel = RbfKernel(gamma=default_rbf_gamma(train_set.points))
        q = build_qubo_paper(kernel_gram(kernel, train_set.points), train_set.labels)
        assert_all_ones(presolve(q), q)

    def test_kernel_one_ulp_above_one_takes_the_rounds(self, monkeypatch):
        # K = 1 + ulp for one opposite-label pair makes q_ab = q_ba =
        # +1.1e-16.  The first round fixes every other bit to 1 and the
        # second fixes a and b, whose couplings to the rest now outweigh
        # the ulp.
        rng = np.random.default_rng(8)
        m = 8
        y = np.array([1, -1] * (m // 2))
        k = rng.random((m, m))
        k = np.triu(k) + np.triu(k, 1).T
        k[0, 1] = k[1, 0] = np.nextafter(1.0, 2.0)
        q = build_qubo_paper(k, y)
        assert q.q[0, 1] == q.q[1, 0] > 0.0
        assert np.count_nonzero(q.q > 0.0) == 2
        calls = []
        coupling = anneal._coupling

        def spy(qm):
            calls.append(qm.shape)
            return coupling(qm)

        monkeypatch.setattr(anneal, "_coupling", spy)
        pre = presolve(q)
        assert calls == [(m, m)]
        assert_all_ones(pre, q)
        best = brute_force(q)
        assert best.best_assignment.tolist() == [1] * m
        assert pre.offset == best.best_energy

    def test_solver_skips_sampling_and_reports_full_energy(self, monkeypatch):
        # Item 9's property at solver level: on a paper instance whose
        # kernel lies in [0, 1], every backend returns all ones without
        # running, even past brute force's 20-variable cap.
        train_set, _ = gap_sets(300)
        spec = FeatureMapSpec(n=2, theta=np.array([0.3, 2.2]))
        k = gram_from_states(feature_states(train_set.points, spec))
        instances = [build_qubo_paper(k, train_set.labels)]
        for m in (21, 40):
            rng = np.random.default_rng(m)
            k = rng.random((m, m))
            k = np.triu(k, 1) + np.triu(k, 1).T + np.eye(m)
            instances.append(build_qubo_paper(k, rng.choice([-1, 1], size=m)))

        def refuse(*args, **kwargs):
            raise AssertionError("solver called on a fully presolved instance")

        for name in ("simulated_anneal", "greedy_descent", "brute_force"):
            monkeypatch.setattr(optimize, name, refuse)
        for q in instances:
            for backend in optimize.BACKENDS:
                cfg = TrainConfig(solver_backend=backend, seed=1)
                result, fixed, residual_n = solve_qubo(q, cfg)
                assert result.best_assignment.tolist() == [1] * q.n
                assert result.best_energy == energy(q, np.ones(q.n))
                assert fixed == q.n
                assert residual_n == 0


class TestDualInstances:
    def test_quantum_dual_fixes_nothing_and_anneals_unchanged(self):
        train_set, _ = gap_sets(1000, delta=0.0, n_train=30)
        spec = FeatureMapSpec(n=2, theta=np.array([1.1, -0.4]))
        k = gram_from_states(feature_states(train_set.points, spec))
        q = build_qubo_dual(k, train_set.labels)
        pre = presolve(q)
        assert not pre.fixed.any()
        assert pre.residual is q

        schedule = AnnealSchedule(num_reads=8, sweeps=100, seed=5)
        cfg = TrainConfig(seed=5, qubo_builder="dual", schedule=schedule)
        result, fixed, residual_n = solve_qubo(q, cfg)
        direct = simulated_anneal(q, schedule)
        assert np.array_equal(result.best_assignment, direct.best_assignment)
        assert result.best_energy == direct.best_energy
        assert np.array_equal(result.energies, direct.energies)
        assert fixed == 0
        assert residual_n == 30


class TestPersistency:
    def test_random_instances_against_brute_force(self):
        rng = np.random.default_rng(2002)
        partial = 0
        for inst in range(240):
            n = int(rng.integers(1, 13))
            kind = inst % 3
            if kind == 0:
                q = QuboMatrix(rng.uniform(-1, 1, (n, n)))
            elif kind == 1:
                q = partly_fixable(rng, max(n, 4))
            else:
                q = tied(rng, n)
            pre = presolve(q)
            exact = brute_force(q)
            bits, energies = all_energies(q.q)
            optimal = np.abs(energies - exact.best_energy) <= 1e-12
            agrees = np.all(bits[:, pre.fixed] == pre.values[pre.fixed], axis=1)
            assert np.any(optimal & agrees), f"instance {inst}: fixing excludes every optimum"
            assert np.all(pre.values[~pre.fixed] == 0)

            sub = brute_force(pre.residual) if pre.residual.n else None
            full = pre.complete(q, sub)
            assert abs(full.best_energy - exact.best_energy) <= 1e-12
            assert full.best_energy == energy(q, full.best_assignment)
            partial += 0 < pre.fixed.sum() < n
        assert partial >= 50

    def test_residual_energy_plus_offset_is_full_energy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            q = partly_fixable(rng, 10)
            pre = presolve(q)
            free = ~pre.fixed
            for _ in range(5):
                r = rng.integers(0, 2, int(free.sum()))
                alpha = pre.values.copy()
                alpha[free] = r
                assert energy(pre.residual, r) + pre.offset == pytest.approx(
                    energy(q, alpha), abs=1e-12
                )

    def test_fixpoint_follows_a_chain(self):
        pre = presolve(chain(6))
        assert pre.fixed.all()
        assert pre.values.tolist() == [1] * 6

    def test_ties_fix_to_one(self):
        q = QuboMatrix(np.zeros((3, 3)))
        assert_all_ones(presolve(q), q)

    def test_empty_instance_is_returned_as_is(self):
        q = QuboMatrix(np.zeros((0, 0)))
        pre = presolve(q)
        assert pre.residual is q
        assert pre.offset == 0.0
        assert pre.fixed.shape == pre.values.shape == (0,)

    def test_partial_fix_rebuilds_full_assignment(self):
        q = np.array([[-5.0, 0.3, -0.2], [0.3, 0.0, -1.0], [-0.2, -1.0, 0.4]])
        q[1, 1], q[2, 2] = 0.5, 0.6
        pre = presolve(QuboMatrix(q))
        assert pre.fixed.tolist() == [True, False, False]
        assert pre.residual.n == 2
        cfg = TrainConfig(solver_backend="greedy", seed=3)
        result, fixed, residual_n = solve_qubo(QuboMatrix(q), cfg)
        exact = brute_force(QuboMatrix(q))
        assert result.best_energy == pytest.approx(exact.best_energy, abs=1e-12)
        assert result.best_assignment[0] == 1
        assert fixed == 1
        assert residual_n == 2


def qubo_path(passes, seed):
    """A stand-in for ``optimize._paper_closed_form`` that solves each
    ``paper`` pass as it ran before its closed form: Gram, QUBO, annealer
    seeded with ``seed`` on the whole instance (no presolve), and
    ``compute_beta``.  It gives the pass the annealer's energy, and
    appends to ``passes`` the annealer's α, its β and the β the pass
    takes from f."""

    def solve(labels, f, k, states):
        if states is not None:
            k = gram_from_states(states)
        sample = simulated_anneal(build_qubo_paper(k, labels), AnnealSchedule(seed=seed))
        alpha = sample.best_assignment
        passes.append((alpha, compute_beta(alpha, labels, k), offset(labels, f)))
        return float(sample.best_energy)

    return solve


def refuse(*args, **kwargs):
    raise AssertionError("called on the closed-form paper path")


def paper_path_builds_no_qubo(monkeypatch, kernel, backend):
    """α = 1 is known in advance, so no QUBO, presolve, offset over K or
    sampler runs, and no Gram from states; the solver record reads as a
    fully presolved instance's, with its keys in the same order.  rbf
    still builds its Gram."""
    train_set, val_set = gap_sets(600, delta=0.0)
    cfg = TrainConfig(seed=600, max_iterations=4, solver_backend=backend, kernel_kind=kernel)
    for name in ("gram_from_states", "build_qubo_paper", "presolve", "compute_beta",
                 "simulated_anneal", "greedy_descent", "brute_force"):
        monkeypatch.setattr(optimize, name, refuse)
    report = train(train_set, val_set, cfg)
    assert report.failures == []
    assert report.iterations_used == 4
    assert report.best_model.alpha.tolist() == [1] * 50
    kernel = report.best_model.kernel
    if isinstance(kernel, FeatureMapSpec):
        k = gram_from_states(feature_states(train_set.points, kernel))
    else:
        k = kernel_gram(kernel, train_set.points)
    want = energy(build_qubo_paper(k, train_set.labels), np.ones(50))
    expected = {**backend_fields(cfg), "presolve_fixed": 50, "residual_n": 0,
                "best_energy": pytest.approx(want, rel=1e-12), "selected": 50}
    assert report.solver == expected
    assert list(report.solver) == list(expected)


class TestTrainSkipsAnnealer:
    def test_paper_training_matches_annealed_run(self, monkeypatch):
        train_set, val_set = gap_sets(300)
        monkeypatch.setattr(optimize, "simulated_anneal", refuse)
        for kernel in ("quantum-zz", "rbf"):
            cfg = TrainConfig(seed=300, max_iterations=2, kernel_kind=kernel)
            passes = []
            with monkeypatch.context() as patch:
                patch.setattr(optimize, "_paper_closed_form", qubo_path(passes, cfg.seed))
                annealed = train(train_set, val_set, cfg)
            direct = train(train_set, val_set, cfg)
            assert direct.failures == annealed.failures == []
            # The stand-in solved every pass, and the annealer found α = 1.
            assert len(passes) == annealed.iterations_used >= 1
            for alpha, oracle_beta, beta in passes:
                assert alpha.tolist() == [1] * 50
                if kernel == "quantum-zz":
                    # The Gram and the states' operator round differently;
                    # on rbf both paths take K^T y from the same Gram.
                    assert beta == pytest.approx(oracle_beta, rel=1e-12, abs=1e-12)
                else:
                    assert beta == oracle_beta
            assert model_to_dict(direct.best_model) == model_to_dict(annealed.best_model)
            assert direct.accuracy_per_iteration == annealed.accuracy_per_iteration
            assert direct.solver["best_energy"] == pytest.approx(
                annealed.solver["best_energy"], rel=1e-12)
            assert direct.solver["presolve_fixed"] == 50
            assert direct.solver["residual_n"] == 0

    @pytest.mark.parametrize("backend", optimize.BACKENDS)
    def test_quantum_paper_path_builds_no_qubo(self, monkeypatch, backend):
        paper_path_builds_no_qubo(monkeypatch, "quantum-zz", backend)

    @pytest.mark.parametrize("backend", optimize.BACKENDS)
    def test_rbf_paper_path_builds_no_qubo(self, monkeypatch, backend):
        paper_path_builds_no_qubo(monkeypatch, "rbf", backend)

    @pytest.mark.parametrize("kernel, builder", [
        ("linear", "paper"), ("rbf", "dual"), ("quantum-zz", "dual")])
    def test_other_paths_still_presolve(self, monkeypatch, kernel, builder):
        train_set, val_set = gap_sets(600, delta=0.0, n_train=20, n_test=5)
        calls = []

        def counted(q):
            calls.append(q.n)
            return presolve(q)

        monkeypatch.setattr(optimize, "presolve", counted)
        cfg = TrainConfig(seed=600, max_iterations=3, solver_backend="greedy",
                          qubo_builder=builder, kernel_kind=kernel)
        report = train(train_set, val_set, cfg)
        assert report.failures == []
        assert calls == [20] * report.iterations_used


class TestRunBackend:
    def test_default_schedule_is_built_once_per_run(self, monkeypatch):
        train_set, val_set = gap_sets(1000, delta=0.0, n_train=30)
        built = []

        def counted(**kwargs):
            built.append(kwargs)
            return AnnealSchedule(**kwargs)

        monkeypatch.setattr(optimize, "AnnealSchedule", counted)
        cfg = TrainConfig(seed=7, max_iterations=3, qubo_builder="dual")
        report = train(train_set, val_set, cfg)
        assert report.failures == []
        assert report.iterations_used == 3
        assert built == [{"seed": 7}]
        fields = backend_fields(cfg)
        assert list(report.solver) == [*fields, "presolve_fixed", "residual_n", "best_energy",
                                       "selected"]
        assert report.solver.items() >= fields.items()
        assert report.config["schedule"] is None
