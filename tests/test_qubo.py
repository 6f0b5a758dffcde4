"""QUBO builders, offset and classifier, with hand-derived expected values."""

import dataclasses
import json

import numpy as np
import pytest

from triqsvm.anneal import energy
from triqsvm.kernels import LinearKernel, RbfKernel, default_rbf_gamma, kernel_cross, kernel_gram
from triqsvm.optimize import TrainConfig, _paper_closed_form, train
from triqsvm.qkernel import (FeatureMapSpec, expectations, feature_states, gram_from_states,
                             weighted_operator)
from triqsvm.qubo import (
    QuboMatrix,
    TrainedModel,
    accuracy,
    build_qubo_dual,
    build_qubo_paper,
    compute_beta,
    decision_values,
    load_model,
    model_from_dict,
    model_to_dict,
    offset,
    paper_energy,
    save_model,
)
from triqsvm.datagen import Dataset

from oracles import oracle_kernel


def enumerate_energies(q: np.ndarray):
    n = q.shape[0]
    for code in range(2**n):
        bits = np.array([(code >> (n - 1 - i)) & 1 for i in range(n)], dtype=float)
        yield bits, float(bits @ q @ bits)


class TestBuildQuboPaper:
    def test_hand_traced_opposite_labels(self):
        # kernel_tot = y1*y0 + K = -1 + 0.5 = -0.5; entry = -1/2 * -0.5 * -1.
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        q = build_qubo_paper(k, np.array([1, -1])).q
        assert q[0, 1] == -0.25
        assert q[1, 0] == -0.25
        assert q[0, 0] == 0.0 and q[1, 1] == 0.0

    def test_hand_traced_same_labels(self):
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = build_qubo_paper(k, np.array([1, 1])).q
        assert q[0, 1] == -0.5
        assert q[1, 0] == -0.5

    def test_single_point_is_zero_matrix(self):
        q = build_qubo_paper(np.array([[1.0]]), np.array([1])).q
        assert np.array_equal(q, np.zeros((1, 1)))

    def test_symmetric_zero_diagonal_bounded(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 2 * np.pi, (8, 2))
        labels = np.where(rng.random(8) < 0.5, 1, -1)
        spec = FeatureMapSpec(n=2, theta=np.array([0.7, -0.2]))
        k = gram_from_states(feature_states(points, spec))
        q = build_qubo_paper(k, labels).q
        assert np.array_equal(q, q.T)
        assert np.all(np.diag(q) == 0.0)
        assert np.all(np.abs(q) <= 1.0 + 1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            build_qubo_paper(np.eye(3), np.array([1, -1]))

    @pytest.mark.parametrize("m", [1, 2, 7, 50, 200])
    def test_bytes_equal_the_contract_expression(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            k = rng.uniform(-1.0, 2.0, (m, m))
            k[rng.random((m, m)) < 0.2] = 0.0
            k[rng.random((m, m)) < 0.2] = -0.0
            labels = np.where(rng.random(m) < 0.5, 1, -1)
            y_m = labels.astype(float)[:, None]
            y_n = labels.astype(float)[None, :]
            expected = ((-0.5 * (y_n * y_m + k)) * y_m) * y_n
            np.fill_diagonal(expected, 0.0)
            assert build_qubo_paper(k, labels).q.tobytes() == expected.tobytes()


class TestBuildQuboDual:
    def test_single_point_prefers_selection(self):
        q = build_qubo_dual(np.array([[1.0]]), np.array([1])).q
        assert q[0, 0] == -0.5
        best = min(enumerate_energies(q), key=lambda be: be[1])
        assert best[0].tolist() == [1.0]

    def test_two_point_identity_kernel(self):
        q = build_qubo_dual(np.eye(2), np.array([1, -1])).q
        energies = {tuple(int(b) for b in bits): e for bits, e in enumerate_energies(q)}
        assert energies[(1, 1)] == -1.0
        assert min(energies.values()) == -1.0

    def test_empty_selection_has_zero_energy(self):
        rng = np.random.default_rng(1)
        k = rng.uniform(0, 1, (5, 5))
        q = build_qubo_dual((k + k.T) / 2, np.ones(5, dtype=int)).q
        assert next(e for bits, e in enumerate_energies(q) if not bits.any()) == 0.0

    def test_matches_algebraic_dual_for_all_assignments(self):
        rng = np.random.default_rng(2)
        for n in (3, 6, 10):
            points = rng.uniform(0, 2 * np.pi, (n, 2))
            labels = np.where(rng.random(n) < 0.5, 1, -1)
            spec = FeatureMapSpec(n=2, theta=np.array([1.1, 0.4]))
            k = gram_from_states(feature_states(points, spec))
            q = build_qubo_dual(k, labels).q
            for bits, energy in enumerate_energies(q):
                ay = bits * labels
                dual = bits.sum() - 0.5 * ay @ k @ ay
                assert energy == pytest.approx(-dual, abs=1e-9)


class TestComputeBeta:
    def test_empty_alpha_gives_label_mean(self):
        k = np.array([[1.0, 0.3], [0.3, 1.0]])
        labels = np.array([1, -1])
        assert compute_beta(np.zeros(2), labels, k) == pytest.approx(np.mean(labels))

    def test_single_point_cancels(self):
        assert compute_beta(np.array([1]), np.array([1]), np.array([[1.0]])) == 0.0

    def test_hand_substituted_value(self):
        # n=0 term: 1 - (1*1*1 + 0) = 0; n=1 term: -1 - (1*1*0.5 + 0) = -1.5.
        k = np.array([[1.0, 0.5], [0.5, 1.0]])
        beta = compute_beta(np.array([1, 0]), np.array([1, -1]), k)
        assert beta == -0.75

    def test_linear_in_labels_for_fixed_alpha(self):
        rng = np.random.default_rng(3)
        spec = FeatureMapSpec(n=2, theta=np.array([1.0, 1.0]))
        k = gram_from_states(feature_states(rng.uniform(0, 2 * np.pi, (6, 2)), spec))
        alpha = rng.integers(0, 2, 6)
        labels = np.where(rng.random(6) < 0.5, 1, -1)
        direct = compute_beta(alpha, labels, k)
        flipped = compute_beta(alpha, -labels, k)
        assert flipped == pytest.approx(-direct, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compute_beta(np.array([1, 0]), np.array([1, -1, 1]), np.eye(3))


def closed_form(kernel, points, labels):
    """β and best energy of a ``paper`` pass in closed form, as ``train``
    takes them: α = 1, f = K y from the model's operator on the quantum
    kernel and from the Gram on rbf, β = ``offset(y, f)``."""
    model = TrainedModel(alpha=np.ones(len(labels), dtype=int), beta=0.0, train_points=points,
                         train_labels=labels, kernel=kernel)
    if model.operator is None:
        states, k = None, kernel_gram(kernel, points)
        f = k.T @ labels.astype(float)
    else:
        states, k = feature_states(points, kernel), None
        f = expectations(states, model.operator)
    return offset(labels, f), _paper_closed_form(labels.astype(float), f, k, states)


def qubo_oracle(k, labels):
    """β and the energy of all ones through the Gram, the ``paper`` QUBO
    and ``compute_beta``."""
    ones = np.ones(len(labels))
    return compute_beta(ones, labels, k), energy(build_qubo_paper(k, labels), ones)


class TestPaperOffsetAndEnergy:
    """The closed form against the QUBO path it replaces: the Gram, the
    ``paper`` QUBO's energy at all ones, and ``compute_beta``."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 21, 50, 200])
    def test_matches_gram_qubo_and_compute_beta(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        spec = FeatureMapSpec(n=n, theta=rng.uniform(-2 * np.pi, 2 * np.pi, n))
        points = rng.uniform(0, 2 * np.pi, (m, n))
        labels = rng.choice([-1, 1], size=m)
        beta, best_energy = closed_form(spec, points, labels)
        k = gram_from_states(feature_states(points, spec))
        want_beta, want_energy = qubo_oracle(k, labels)
        assert abs(beta - want_beta) <= 1e-12 * max(1.0, abs(want_beta))
        assert abs(best_energy - want_energy) <= 1e-12 * max(1.0, abs(want_energy))
        if m == 1:
            # One point: the QUBO has no off-diagonal entry.
            assert abs(best_energy) <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 21, 50, 200])
    def test_rbf_matches_gram_qubo_and_compute_beta(self, m):
        # Both paths take K^T y from the same Gram, so β keeps its bits.
        rng = np.random.default_rng(m)
        points = rng.uniform(0, 2 * np.pi, (m, 2))
        labels = rng.choice([-1, 1], size=m)
        gamma = default_rbf_gamma(points) * np.exp(rng.uniform(-2 * np.pi, 2 * np.pi))
        kernel = RbfKernel(gamma=gamma)
        beta, best_energy = closed_form(kernel, points, labels)
        want_beta, want_energy = qubo_oracle(kernel_gram(kernel, points), labels)
        assert beta == want_beta
        assert abs(best_energy - want_energy) <= 1e-12 * max(1.0, abs(want_energy))

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3, 1e8])
    def test_rbf_kernel_never_exceeds_one(self, gamma):
        # The closed form needs K in [0, 1].  exp of a non-positive
        # argument never exceeds 1, also between points an ulp apart.
        base = np.random.default_rng(5).uniform(0, 2 * np.pi, (40, 2))
        points = np.concatenate([base, np.nextafter(base, 7.0), np.nextafter(base, -1.0)])
        kernel = RbfKernel(gamma=gamma)
        cross = kernel_cross(kernel, points, points)
        assert np.array_equal(cross, cross.T)
        k = kernel_gram(kernel, points)
        assert k.max() == 1.0
        assert k.min() >= 0.0
        assert np.all(np.diag(k) == 1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            paper_energy(np.array([1, -1]), np.zeros(3), 3.0)

    @pytest.mark.parametrize("m", [1, 7, 200])
    def test_returns_python_floats(self, m):
        rng = np.random.default_rng(m)
        labels = rng.choice([-1, 1], size=m)
        f = rng.uniform(-m, m, m)
        values = offset(labels, f), paper_energy(labels, f, float(m))
        assert [type(v) for v in values] == [float, float]


def quantum_model(points, labels, theta=(1.0, 1.0), alpha=None, beta=0.0):
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if alpha is None:
        alpha = np.ones(len(labels), dtype=int)
    return TrainedModel(
        alpha=alpha,
        beta=beta,
        train_points=points,
        train_labels=labels,
        kernel=FeatureMapSpec(n=2, theta=np.asarray(theta, dtype=float)),
    )


def four_point_model():
    rng = np.random.default_rng(8)
    return quantum_model(
        rng.uniform(0, 2 * np.pi, (4, 2)),
        np.array([1, -1, 1, -1]),
        theta=(0.25, -0.75),
        alpha=np.array([1, 0, 1, 1]),
        beta=-0.125,
    )


class TestDecisionAndClassify:
    def test_zero_alpha_leaves_only_offset(self):
        model = quantum_model([[1.0, 2.0]], [1], alpha=np.array([0]), beta=0.3)
        assert decision_values([[0.5, 0.5]], model)[0] == pytest.approx(0.3, abs=1e-12)

    def test_self_kernel_single_support(self):
        model = quantum_model([[1.0, 2.0]], [1], alpha=np.array([1]), beta=0.0)
        assert decision_values([[1.0, 2.0]], model)[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_recompute(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 2 * np.pi, (5, 2))
        labels = np.where(rng.random(5) < 0.5, 1, -1)
        alpha = rng.integers(0, 2, 5)
        theta = (0.8, -1.4)
        model = quantum_model(points, labels, theta=theta, alpha=alpha, beta=0.17)
        xs = rng.uniform(0, 2 * np.pi, (3, 2))
        expected = [
            sum(a * y * oracle_kernel(p, x, theta) for a, y, p in zip(alpha, labels, points))
            + 0.17
            for x in xs
        ]
        np.testing.assert_allclose(decision_values(xs, model), expected, rtol=0, atol=1e-10)

    def test_classify_signs_and_tie(self):
        # A decision value of exactly 0 is labelled +1, by ``accuracy``
        # and by the ``map`` command alike.
        for beta, expected in [(0.3, 1), (-0.01, -1), (0.0, 1)]:
            model = quantum_model([[1.0, 2.0]], [1], alpha=np.array([0]), beta=beta)
            value = decision_values([[0.1, 0.1]], model)[0]
            assert value == beta
            assert accuracy(model, Dataset(np.array([[0.1, 0.1]]), np.array([expected]))) == 1.0

    def test_dimension_mismatch(self):
        model = quantum_model([[1.0, 2.0]], [1])
        with pytest.raises(ValueError, match="dimension"):
            decision_values([[1.0, 2.0, 3.0]], model)


def trained_model(n, builder="paper"):
    """A greedy-trained n-qubit model, with 65 query points."""
    rng = np.random.default_rng(40 + n)
    train_set = Dataset(rng.uniform(0, 2 * np.pi, (23, n)),
                        np.where(rng.random(23) < 0.5, 1, -1))
    val_set = Dataset(rng.uniform(0, 2 * np.pi, (7, n)),
                      np.where(rng.random(7) < 0.5, 1, -1))
    cfg = TrainConfig(solver_backend="greedy", qubo_builder=builder, max_iterations=3, seed=n)
    return train(train_set, val_set, cfg).best_model, rng.uniform(0, 2 * np.pi, (65, n))


class TestModelStates:
    """A quantum model holds the operator M = sum_m w_m |s_m><s_m| of its
    training points' feature states: the M its caller built, or one built
    from the points at construction.  Scoring reads only M."""

    def test_states_equal_feature_states_of_the_points(self):
        # The operator built from the points' states and supplied, built
        # from the points and built from a model file is the same, and it
        # is the sum of the weighted projectors onto the points' states.
        model = four_point_model()
        states = feature_states(model.train_points, model.kernel)
        weights = model.alpha * model.train_labels
        supplied = dataclasses.replace(
            model, built_operator=weighted_operator(states, weights))
        assert model.operator.tobytes() == supplied.operator.tobytes()
        assert model_from_dict(model_to_dict(model)).operator.tobytes() == (
            model.operator.tobytes())
        expected = sum(w * np.outer(s, s.conj()) for w, s in zip(weights, states))
        np.testing.assert_allclose(model.operator, expected, rtol=0, atol=1e-12)

    def test_replace_builds_the_operator_of_the_new_fields(self):
        # ``built_operator`` reads None on a model, so ``replace`` does not
        # carry the old M into a model with other weights.
        model = four_point_model()
        other = np.array([0, 1, 1, 0])
        fresh = quantum_model(model.train_points, model.train_labels,
                              theta=model.kernel.theta, alpha=other, beta=model.beta)
        replaced = dataclasses.replace(model, alpha=other)
        assert replaced.operator.tobytes() == fresh.operator.tobytes()
        assert replaced.operator.tobytes() != model.operator.tobytes()

    def test_operator_replaces_the_states(self):
        # One (2**n, 2**n) complex128 array, whatever m; no (m, 2**n) array.
        for n, m in [(1, 5), (2, 5), (3, 2)]:
            rng = np.random.default_rng(n)
            model = TrainedModel(alpha=np.ones(m, dtype=int), beta=0.0,
                                 train_points=rng.uniform(0, 2 * np.pi, (m, n)),
                                 train_labels=np.ones(m, dtype=int),
                                 kernel=FeatureMapSpec(n=n, theta=np.ones(n)))
            assert model.operator.dtype == np.complex128
            assert model.operator.shape == (2**n, 2**n)
            assert all(np.shape(value) != (m, 2**n) for value in vars(model).values())

    def test_model_owns_its_points(self):
        # Writing to the caller's array later leaves the model, and the
        # operator built from it, unchanged.
        points = np.random.default_rng(9).uniform(0, 2 * np.pi, (3, 2))
        model = quantum_model(points, [1, -1, 1])
        points[0, 0] += 1.0
        assert not np.array_equal(model.train_points, points)
        assert model.operator.tobytes() == dataclasses.replace(model).operator.tobytes()

    def test_states_are_not_written_to_model_files(self):
        model = four_point_model()
        for name in ("states", "operator", "built_operator"):
            assert name not in model_to_dict(model)
            assert name not in repr(model)

    @pytest.mark.parametrize("rows, dim, dtype", [
        (3, 4, complex), (5, 4, complex), (4, 8, complex), (4, 4, np.complex64),
        (4, 4, float),
    ], ids=["too-few-rows", "too-many-rows", "wrong-dimension", "complex64", "real"])
    def test_supplied_states_of_the_wrong_shape_or_dtype_rejected(self, rows, dim, dtype):
        # A supplied operator must be a complex128 (2**n, 2**n) array.
        model = four_point_model()
        with pytest.raises(ValueError, match="operator must be"):
            dataclasses.replace(model, built_operator=np.ones((rows, dim), dtype=dtype))

    def test_classical_kernels_have_no_states(self):
        for kernel in (RbfKernel(gamma=0.5), LinearKernel()):
            model = TrainedModel(alpha=np.array([1]), beta=0.0,
                                 train_points=np.array([[1.0, 2.0]]),
                                 train_labels=np.array([1]), kernel=kernel)
            assert model.operator is None
            with pytest.raises(ValueError, match="only a quantum kernel"):
                dataclasses.replace(model, built_operator=np.ones((4, 4), dtype=complex))

    @pytest.mark.parametrize("attr", ["alpha", "beta", "train_points", "operator"])
    def test_assigning_an_attribute_raises(self, attr):
        model = four_point_model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, attr, getattr(model, attr))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decision_values_equal_the_kernel_cross_path(self, n):
        # sum_m alpha_m y_m K(x_m, x) + beta with the oracle's K, for a
        # model from train, whose operator comes from the trainer's states.
        model, xs = trained_model(n)
        theta = model.kernel.theta
        weights = model.alpha * model.train_labels
        expected = [
            sum(w * oracle_kernel(p, x, theta) for w, p in zip(weights, model.train_points) if w)
            + model.beta
            for x in xs
        ]
        np.testing.assert_allclose(decision_values(xs, model), expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_real_view_equals_the_complex_sandwich(self, n):
        # Re <phi|M phi> from the float views of the states, against the
        # complex product phi^H M phi it stands for.
        model, xs = trained_model(n)
        phi = feature_states(xs, model.kernel)
        sandwich = np.einsum("qi,ij,qj->q", phi.conj(), model.operator, phi)
        np.testing.assert_allclose(decision_values(xs, model), sandwich.real + model.beta,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lone_query_equals_its_row_in_a_batch(self, n):
        # A lone query's product goes through the same matrix kernel as a
        # batch's, so its value does not depend on the batch.
        model, xs = trained_model(n)
        batch = decision_values(xs, model)
        for i in range(len(xs)):
            assert decision_values(xs[i:i + 1], model).tobytes() == batch[i:i + 1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trained_and_reloaded_models_give_the_same_bytes(self, tmp_path, n):
        # The trainer supplies the operator it built, on the closed-form
        # paper path and on the dual path; the loaded model rebuilds it
        # from the stored points.
        for builder in ("paper", "dual"):
            model, xs = trained_model(n, builder)
            path = tmp_path / "model.json"
            save_model(model, path)
            assert decision_values(xs, load_model(path)).tobytes() == (
                decision_values(xs, model).tobytes())


class TestAccuracy:
    def _constant_positive_model(self):
        return quantum_model([[1.0, 1.0]], [1], alpha=np.array([0]), beta=1.0)

    def test_all_correct(self):
        ds = Dataset(np.random.default_rng(5).uniform(0, 1, (10, 2)), np.ones(10, dtype=int))
        assert accuracy(self._constant_positive_model(), ds) == 1.0

    def test_all_wrong(self):
        ds = Dataset(np.random.default_rng(6).uniform(0, 1, (10, 2)), -np.ones(10, dtype=int))
        assert accuracy(self._constant_positive_model(), ds) == 0.0

    def test_counting(self):
        labels = np.array([1] * 9 + [-1])
        ds = Dataset(np.random.default_rng(7).uniform(0, 1, (10, 2)), labels)
        score = accuracy(self._constant_positive_model(), ds)
        assert score == 0.9
        assert type(score) is float

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            accuracy(self._constant_positive_model(), ds)

    def test_zero_decision_value_counts_as_positive(self):
        # No selected point and no offset: every decision value is exactly
        # 0.0, which classifies as +1.
        model = quantum_model([[1.0, 1.0]], [1], alpha=np.array([0]), beta=0.0)
        points = np.random.default_rng(8).uniform(0, 1, (10, 2))
        assert np.all(decision_values(points, model) == 0.0)
        labels = np.array([1] * 7 + [-1] * 3)
        assert accuracy(model, Dataset(points, labels)) == 0.7
        assert accuracy(model, Dataset(points, -labels)) == 0.3


class TestQuboMatrixType:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            QuboMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            QuboMatrix(np.array([[np.inf]]))

    def test_rejects_finite_entries_whose_sums_overflow(self):
        # Every entry is finite, but fields and energies would sum past the
        # largest double; the kernel and the numpy loop then disagreed.
        q = np.random.default_rng(3).normal(size=(9, 9))
        q[2, 5] = q[5, 2] = 1e308
        q[0, 7], q[7, 0] = 1.5e308, 1e308
        assert np.isfinite(q).all()
        for bad in (q, np.array([[np.nan]])):
            with pytest.raises(ValueError, match="finite"):
                QuboMatrix(bad)

    def test_absolute_sum_bound_is_inclusive(self):
        bound = np.finfo(float).max / 16
        assert QuboMatrix(np.array([[0.5 * bound, -0.5 * bound], [0.0, 0.0]])).n == 2
        with pytest.raises(ValueError, match="finite"):
            QuboMatrix(np.array([[np.nextafter(bound, np.inf)]]))


class TestModelEquality:
    def test_equal_fields_compare_equal(self):
        assert four_point_model() == four_point_model()

    @pytest.mark.parametrize("change", [
        {"kernel": FeatureMapSpec(n=2, theta=np.array([0.25, 0.75]))},
        {"alpha": np.array([1, 1, 1, 1])},
        {"beta": 0.125},
    ], ids=["theta", "alpha", "beta"])
    def test_one_unequal_field_compares_unequal(self, change):
        model = four_point_model()
        assert dataclasses.replace(model, **change) != model

    def test_two_loads_of_one_file_compare_equal(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(four_point_model(), path)
        assert load_model(path) == load_model(path)

    def test_operator_is_not_compared(self):
        model = four_point_model()
        other = dataclasses.replace(model, built_operator=np.zeros((4, 4), dtype=complex))
        assert not np.array_equal(other.operator, model.operator)
        assert other == model

    def test_hash_raises(self):
        with pytest.raises(TypeError):
            hash(four_point_model())


class TestModelSerialization:
    def _model(self):
        return four_point_model()

    def test_round_trip(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.alpha, model.alpha)
        assert back.beta == model.beta
        assert np.array_equal(back.train_points, model.train_points)
        assert np.array_equal(back.train_labels, model.train_labels)
        assert isinstance(back.kernel, FeatureMapSpec)
        assert np.array_equal(back.kernel.theta, model.kernel.theta)

    def test_schema_version_present(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        assert json.loads(path.read_text())["schema_version"] == "1"

    def test_classical_kernel_round_trip(self):
        for kernel in (RbfKernel(gamma=0.5), LinearKernel()):
            model = TrainedModel(
                alpha=np.array([1]),
                beta=0.0,
                train_points=np.array([[1.0, 2.0]]),
                train_labels=np.array([1]),
                kernel=kernel,
            )
            back = model_from_dict(model_to_dict(model))
            assert type(back.kernel) is type(kernel)

    @pytest.mark.parametrize("gamma", [float("inf"), float("nan"), 0.0, -1.0])
    def test_rbf_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            RbfKernel(gamma)

    def test_infinite_rbf_gamma_in_a_model_file_rejected(self):
        # JSON's Infinity parses to float("inf"); such a model would score
        # NaN at its own training points.
        model = TrainedModel(alpha=np.array([1]), beta=0.0,
                             train_points=np.array([[1.0, 2.0]]),
                             train_labels=np.array([1]), kernel=RbfKernel(gamma=0.5))
        text = json.dumps(model_to_dict(model)).replace("0.5", "Infinity")
        with pytest.raises(ValueError, match="invalid model data: gamma"):
            model_from_dict(json.loads(text))

    @pytest.mark.parametrize("name, value", [("n", 2.5), ("n", "2"), ("n", 2.0), ("n", True),
                                             ("reps", 2.7), ("reps", "2"), ("reps", 2.0)])
    def test_non_integer_kernel_counts_rejected(self, name, value):
        data = model_to_dict(self._model())
        data["kernel"][name] = value
        with pytest.raises(ValueError, match=f"invalid model data: {name} must be"):
            model_from_dict(data)

    @pytest.mark.parametrize("kernel", ["rbf", None, 5, ["quantum-zz"]])
    def test_kernel_that_is_not_an_object_rejected(self, kernel):
        data = model_to_dict(self._model())
        data["kernel"] = kernel
        with pytest.raises(ValueError, match="invalid model data: kernel must be a JSON object"):
            model_from_dict(data)

    @pytest.mark.parametrize("version", ["9", 1, ""])
    def test_other_schema_versions_rejected(self, version):
        data = model_to_dict(self._model())
        data["schema_version"] = version
        with pytest.raises(ValueError, match="invalid model data: schema_version must be '1'"):
            model_from_dict(data)

    def test_missing_schema_version_rejected(self):
        data = model_to_dict(self._model())
        del data["schema_version"]
        with pytest.raises(ValueError, match="schema_version must be '1', got None"):
            model_from_dict(data)

    @pytest.mark.parametrize("builder", ["banana", 5, "Paper", None])
    def test_unknown_builders_rejected(self, builder):
        data = model_to_dict(self._model())
        data["builder"] = builder
        with pytest.raises(ValueError, match="invalid model data: builder must be one of"):
            model_from_dict(data)
        with pytest.raises(ValueError, match="builder must be one of"):
            dataclasses.replace(self._model(), builder=builder)

    def test_quantum_model_of_the_wrong_dimension_rejected(self):
        data = model_to_dict(self._model())
        data["kernel"]["n"] = 3
        data["kernel"]["theta"] = [0.25, -0.75, 1.0]
        with pytest.raises(ValueError, match="invalid model data: .*dimension 3"):
            model_from_dict(data)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            load_model(path)

    def test_nan_theta_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        data = json.loads(path.read_text())
        data["kernel"]["theta"][0] = float("nan")
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="theta"):
            load_model(path)

    @pytest.mark.parametrize("field, value, match", [
        ("alpha", [1, 0, 2, 1], "alpha"),
        ("alpha", [1, 0, 0.5, 1], "alpha"),
        ("train_labels", [1, -1, 0, -1], "train_labels"),
        ("train_labels", [1, -1, 1], "train_labels"),
        ("train_points", [[0.0, 1.0], [1.0, float("inf")], [2.0, 2.0], [3.0, 0.5]],
         "finite"),
        ("train_points", [[0.0, 1.0], [float("nan"), 1.0], [2.0, 2.0], [3.0, 0.5]],
         "finite"),
    ], ids=["alpha-two", "alpha-half", "label-zero", "labels-short", "points-inf", "points-nan"])
    def test_out_of_range_fields_rejected(self, tmp_path, field, value, match):
        data = model_to_dict(self._model())
        data[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_model(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alpha": [1]}), encoding="utf-8")
        with pytest.raises(ValueError, match="invalid model"):
            load_model(path)
