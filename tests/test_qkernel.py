"""Feature map, batched statevector and kernel tests against dense-matrix oracles."""

from itertools import combinations

import numpy as np
import pytest

from triqsvm.kernels import (RbfKernel, default_rbf_gamma, kernel_cross, kernel_from_dict,
                             kernel_gram)
from triqsvm.qkernel import (
    DETUNE_AMPLITUDE,
    FeatureMapSpec,
    _hadamard,
    _pair_index,
    _z_table,
    data_phases,
    expectation_zz,
    feature_states,
    gram,
    gram_from_states,
    states_from_phases,
)

from oracles import (
    bit,
    detune_angles,
    oracle_expectation_zz,
    oracle_feature_state,
    oracle_kernel,
    oracle_rbf_cross,
    hadamard_all,
    phase_matrix,
    random_state,
    random_unitary,
)

# Reference point computed with the dense oracle and frozen.
FROZEN_X = (np.pi / 2, np.pi / 2)
FROZEN_Z = (np.pi, np.pi)
FROZEN_THETA = (1.0, 1.0)
FROZEN_STATE = np.array(
    [
        -0.389707979625151 - 0.48768398604181545j,
        0.0 + 0.0j,
        0.0 + 0.0j,
        0.6102920203748486 - 0.4876839860418155j,
    ]
)
FROZEN_KERNEL = 0.38970797962515047

QUANTUM_KERNEL = {"kind": "quantum-zz", "n": 2, "reps": 2, "theta": [0.0, 0.0],
                  "data_map": "zz-detune"}


def spec2(theta=(1.0, 1.0)):
    return FeatureMapSpec(n=2, theta=np.asarray(theta, dtype=float))


def kernel_value(x, z, spec):
    """K(x, z) as the trainer sees it: an entry of the Gram matrix."""
    return float(gram_from_states(feature_states([x, z], spec))[0, 1])


def basis(dim, k):
    """Batch of one computational basis state |k>."""
    return np.eye(dim, dtype=complex)[[k]]


def tensordot_hadamard_layer(state):
    """The Hadamard layer as first written, one ``np.tensordot`` and
    ``np.moveaxis`` per qubit: the oracle for the dense layer W."""
    m, dim = state.shape
    n = dim.bit_length() - 1
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    t = state.view(float).reshape((m,) + (2,) * n + (2,))
    for ax in range(1, n + 1):
        t = np.moveaxis(np.tensordot(h, t, axes=([1], [ax])), 0, ax)
    return np.ascontiguousarray(t).view(complex).reshape(m, dim)


def oracle_diagonal(points, theta):
    """The phase diagonal D(x) of each row, from the oracle's detuned
    angles (``detune_angles``) and its own sign table."""
    m, n = points.shape
    z = np.array([[1 - 2 * bit(b, i, n) for b in range(2**n)] for i in range(n)], dtype=float)
    zz = np.array([z[i] * z[j] for i, j in combinations(range(n), 2)]).reshape(-1, 2**n)
    angles = [detune_angles(x, theta) for x in points]
    one = np.array([a[0] for a in angles])
    two = np.array([a[1] for a in angles]).reshape(m, -1)
    return np.exp(1j * (one @ z + two @ zz))


# Batch sizes for the comparisons with the tensordot layer: one row, small
# and odd sizes, and a large batch.
BYTE_BATCH_SIZES = (1, 2, 7, 257, 10_000)


class TestFeatureMapSpec:
    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="qubit count"):
            FeatureMapSpec(n=0, theta=np.zeros(0))

    @pytest.mark.parametrize("n", [2.0, 2.5, "2"])
    def test_qubit_count_is_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            FeatureMapSpec(n=n, theta=np.zeros(2))

    def test_reps_is_fixed_to_two(self):
        # Model files name the repetition count; only 2 is simulated.
        assert isinstance(kernel_from_dict(QUANTUM_KERNEL), FeatureMapSpec)
        with pytest.raises(ValueError, match="reps"):
            kernel_from_dict(dict(QUANTUM_KERNEL, reps=3))

    def test_theta_bound(self):
        for bad in (7.0, -7.0, np.inf, -np.inf, np.nextafter(2 * np.pi, np.inf),
                    np.nextafter(-2 * np.pi, -np.inf)):
            with pytest.raises(ValueError, match="theta"):
                FeatureMapSpec(n=2, theta=np.array([0.0, bad]))

    def test_theta_on_the_bound_accepted(self):
        spec = FeatureMapSpec(n=2, theta=np.array([2 * np.pi, -2 * np.pi]))
        assert spec.theta.tolist() == [2 * np.pi, -2 * np.pi]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_detuning_row_is_the_complex_exp_bit_for_bit(self, n):
        # The row is built as exp(0 + i c.z) in place; the reference is the
        # plain expression with its complex temporary.
        rng = np.random.default_rng(n)
        thetas = [rng.uniform(-2 * np.pi, 2 * np.pi, n) for _ in range(300)]
        thetas += [np.full(n, 2 * np.pi), np.full(n, -2 * np.pi), np.ones(n), np.zeros(n)]
        for theta in thetas:
            c = DETUNE_AMPLITUDE * np.sin(np.pi * (theta - 1.0))
            want = np.exp(1j * (c @ _z_table(n)))
            assert FeatureMapSpec(n=n, theta=theta).detuning_row.tobytes() == want.tobytes()

    def test_theta_nan_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            FeatureMapSpec(n=2, theta=np.array([np.nan, 1.0]))

    def test_theta_length(self):
        with pytest.raises(ValueError):
            FeatureMapSpec(n=2, theta=np.zeros(3))

    def test_theta_is_a_read_only_copy_with_its_row(self):
        # The spec builds exp(i c . z) from theta once, so it owns theta.
        theta = np.array([0.3, -1.2])
        spec = FeatureMapSpec(n=2, theta=theta)
        theta[0] = 5.0
        assert spec.theta.tolist() == [0.3, -1.2]
        for array in (spec.theta, spec.detuning_row):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        one, _ = detune_angles(np.zeros(2), (0.3, -1.2))
        want = np.diag(phase_matrix(2, one, [0.0]))
        np.testing.assert_allclose(spec.detuning_row, want, rtol=0, atol=1e-15)

    def test_unknown_data_map(self):
        with pytest.raises(ValueError, match="data map"):
            kernel_from_dict(dict(QUANTUM_KERNEL, data_map="nope"))

    def test_value_equality(self):
        spec = FeatureMapSpec(n=2, theta=np.ones(2))
        assert spec == FeatureMapSpec(n=2, theta=np.ones(2))
        assert spec != FeatureMapSpec(n=2, theta=np.array([1.0, 0.5]))
        assert spec != FeatureMapSpec(n=3, theta=np.ones(3))
        assert spec != RbfKernel()
        with pytest.raises(TypeError):
            hash(spec)


class TestHadamardLayer:
    """W = 2**-n H+- stands for both Hadamard layers: 2**(n/2) W is the
    layer H, and a further 2**(-n/2) is the |+...+> amplitude."""

    def test_zero_state_becomes_uniform(self):
        # H|00> is 1/2 in every entry; W carries the second 1/2 too.
        np.testing.assert_array_equal(basis(4, 0) @ _hadamard(2), np.full((1, 4), 0.25))

    def test_involution(self):
        # (H+-)**2 = 2**n I, and every sum of +-2**-2n terms is exact.
        np.testing.assert_array_equal(_hadamard(3) @ _hadamard(3), np.eye(8) / 8)

    def test_basis_ten(self):
        # |10> is basis index 2: qubit 0 is the MSB.
        out = 2.0 * (basis(4, 2) @ _hadamard(2))
        np.testing.assert_array_equal(out, [[0.5, 0.5, -0.5, -0.5]])

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(6)
        h = hadamard_all(3)
        amp = np.stack([random_state(8, rng) for _ in range(10)])
        np.testing.assert_allclose(2.0**1.5 * (amp @ _hadamard(3)), amp @ h.T, atol=1e-12)

    # W rounds differently from the tensordot form, so the comparison is
    # to 1e-12; the name is kept so that the test ids stay stable.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", BYTE_BATCH_SIZES)
    def test_bytes_match_tensordot_layer(self, n, m):
        rng = np.random.default_rng(50 + n)
        amp = rng.normal(size=(m, 2**n)) + 1j * rng.normal(size=(m, 2**n))
        layer = 2.0 ** (n / 2) * (amp @ _hadamard(n))
        np.testing.assert_allclose(layer, tensordot_hadamard_layer(amp), rtol=0, atol=1e-12)


class TestPhaseEvolution:
    def test_zero_angles_are_identity(self):
        # One qubit has no pair angle, so x = 0 gives E = 1 and theta = 1 a
        # zero detuning, exactly: D = 1, and D H D H|0> is |0>.
        phases = data_phases(np.zeros((1, 1)))
        np.testing.assert_array_equal(phases, np.ones((1, 2)))
        state = states_from_phases(phases, FeatureMapSpec(n=1, theta=np.ones(1)))
        np.testing.assert_array_equal(state, [[1.0, 0.0]])

    def test_pair_angle_pi_is_global_phase(self):
        # At x = (0, pi - 1) the pair angle is pi * 1 = pi, exactly.
        # (1-2b1)(1-2b2) is +-1, and exp(+-i pi) = -1 either way, so against
        # the one-body phases alone it is a global phase, and the kernel
        # value against that image is unchanged.
        x = np.array([[0.0, np.pi - 1.0]])
        one, two = detune_angles(x[0], (1.0, 1.0))
        assert two == [np.pi]
        one_body = np.diag(phase_matrix(2, one, [0.0]))[None]
        state = np.full((1, 4), 0.5 + 0j)
        out = state * data_phases(x)
        np.testing.assert_allclose(out, -state * one_body, atol=1e-12)
        overlap = abs(np.vdot(state * one_body, out)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_on_uniform(self):
        # x = (pi/2, pi): the pair angle is (pi/2) * 0 = 0, and the pi on
        # qubit 1 is exp(+-i pi) = -1 on every basis state.
        state = np.full((1, 4), 0.5 + 0j)
        out = state * data_phases(np.array([[np.pi / 2, np.pi]]))
        np.testing.assert_allclose(out, [[-0.5j, -0.5j, 0.5j, 0.5j]], atol=1e-12)

    def test_magnitudes_never_change(self):
        rng = np.random.default_rng(7)
        phases = data_phases(rng.uniform(-10, 10, (50, 3)))
        np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_phases_kept_across_theta_give_feature_states(self, n):
        # One E per point set, as ``train`` keeps it for a run: the states
        # it gives at each theta are those of ``feature_states``, bit for
        # bit, and E itself is left as it was.
        rng = np.random.default_rng(60 + n)
        points = rng.uniform(0, 2 * np.pi, (40, n))
        phases = data_phases(points)
        kept = phases.tobytes()
        thetas = [np.ones(n), np.full(n, 2 * np.pi), np.full(n, -2 * np.pi),
                  *rng.uniform(-2 * np.pi, 2 * np.pi, (4, n))]
        for theta in thetas:
            spec = FeatureMapSpec(n=n, theta=theta)
            want = feature_states(points, spec).tobytes()
            assert states_from_phases(phases, spec).tobytes() == want
        assert phases.tobytes() == kept


class TestFeatureState:
    def test_all_angles_cancel_to_zero_state(self):
        # At theta=(0,0), x=(pi,pi) the angles are (pi, pi, 0); two one-body
        # pi rotations compose to the identity, leaving |00> exactly.
        out = feature_states([np.pi, np.pi], spec2((0.0, 0.0)))
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0, 0.0]], atol=1e-12)

    def test_frozen_reference_point(self):
        out = feature_states(FROZEN_X, spec2(FROZEN_THETA))[0]
        np.testing.assert_allclose(out, FROZEN_STATE, atol=1e-12)
        np.testing.assert_allclose(out, oracle_feature_state(FROZEN_X, FROZEN_THETA), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(5):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, n)
            points = rng.uniform(0, 2 * np.pi, (40, n))
            got = feature_states(points, FeatureMapSpec(n=n, theta=theta))
            want = np.stack([oracle_feature_state(x, theta) for x in points])
            assert got.shape == (40, 2**n)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_rows_equal_batches_of_one(self, n):
        rng = np.random.default_rng(30 + n)
        spec = FeatureMapSpec(n=n, theta=rng.uniform(-2 * np.pi, 2 * np.pi, n))
        points = rng.uniform(0, 2 * np.pi, (257, n))
        batch = feature_states(points, spec)
        for k in (0, 1, 128, 256):
            assert feature_states(points[k], spec).tobytes() == batch[k : k + 1].tobytes()

    @pytest.mark.parametrize("n", [4, 5])
    def test_batch_rows_equal_batches_of_one_wider(self, n):
        # The same check at 16 and 32 amplitudes.  A lone row is still a
        # two-row product there; a (1, k) operand would go to gemv, whose
        # bits differ from gemm's.
        self.test_batch_rows_equal_batches_of_one(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", BYTE_BATCH_SIZES)
    def test_shared_first_layer_matches_per_row_layers(self, n, m):
        # The two layers applied to a batch of |0...0> rows, as they were
        # before W folded in the |+...+> amplitude, with the layer as first
        # written.
        rng = np.random.default_rng(40 + n)
        spec = FeatureMapSpec(n=n, theta=rng.uniform(-2 * np.pi, 2 * np.pi, n))
        points = rng.uniform(-3.0, 7.0, (m, n))
        diag = oracle_diagonal(points, spec.theta)
        state = np.zeros((m, 2**n), dtype=complex)
        state[:, 0] = 1.0
        for _ in range(2):
            state = tensordot_hadamard_layer(state) * diag
        np.testing.assert_allclose(feature_states(points, spec), state, rtol=0, atol=1e-12)

    def test_returns_a_fresh_writeable_array(self):
        points = [[0.7, 5.1], [2.9, 0.4]]
        spec = spec2((1.7, -0.6))
        first = feature_states(points, spec)
        want = first.tobytes()
        assert first.flags.writeable
        assert not np.shares_memory(first, _hadamard(2))
        first[:] = 0.0
        second = feature_states(points, spec)
        assert second.tobytes() == want
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize(
        "cached",
        [lambda: _z_table(3), lambda: _pair_index(3)[0], lambda: _pair_index(3)[1],
         lambda: _hadamard(3)],
        ids=["z-table", "pair-first", "pair-second", "hadamard"],
    )
    def test_cached_arrays_are_read_only(self, cached):
        array = cached()
        before = array.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
        assert cached() is array
        assert array.tobytes() == before

    def test_unit_norm_for_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            points = rng.uniform(0, 2 * np.pi, (10, 2))
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            norms = np.sum(np.abs(feature_states(points, spec2(theta))) ** 2, axis=1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            feature_states([1.0, 2.0, 3.0], spec2())


class TestKernelEntry:
    def test_self_kernel_is_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.uniform(0, 2 * np.pi, 2)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            assert kernel_value(x, x, spec2(theta)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        spec = spec2((0.3, -1.2))
        states = feature_states(rng.uniform(0, 2 * np.pi, (100, 2)), spec)
        # Reversed rows compute each pair's overlap in the other order.
        swapped = gram_from_states(states[::-1])[::-1, ::-1]
        assert np.max(np.abs(gram_from_states(states) - swapped)) <= 1e-12

    def test_classical_helpers_reject_the_quantum_kernel(self):
        # Quantum matrices come from feature states only.
        points = [[0.7, 5.1], [2.9, 0.4]]
        with pytest.raises(TypeError, match="unsupported kernel"):
            kernel_cross(spec2(), points, points)
        with pytest.raises(TypeError, match="unsupported kernel"):
            kernel_gram(spec2(), points)

    def test_frozen_cross_value(self):
        value = kernel_value(FROZEN_X, FROZEN_Z, spec2(FROZEN_THETA))
        assert value == pytest.approx(FROZEN_KERNEL, abs=1e-10)
        assert value == pytest.approx(oracle_kernel(FROZEN_X, FROZEN_Z, FROZEN_THETA), abs=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            points = rng.uniform(0, 2 * np.pi, (10, 2))
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            values = gram_from_states(feature_states(points, spec2(theta)))
            assert np.all(values >= -1e-12) and np.all(values <= 1.0 + 1e-12)

    def test_repeat_calls_bit_identical(self):
        points = [[0.7, 5.1], [2.9, 0.4]]
        spec = spec2((1.7, -0.6))
        entries = gram_from_states(feature_states(points, spec))
        assert entries.tobytes() == gram_from_states(feature_states(points, spec)).tobytes()
        assert feature_states(points, spec).tobytes() == feature_states(points, spec).tobytes()


def rbf_case(m, d):
    """Points, a fifth as many queries and an rbf kernel at the data-driven
    gamma, for the comparisons with the (m, q, d) expression."""
    rng = np.random.default_rng(10 * m + d)
    points = rng.uniform(0, 2 * np.pi, (m, d))
    queries = rng.uniform(0, 2 * np.pi, (m // 5, d))
    return points, queries, RbfKernel(gamma=default_rbf_gamma(points))


def mirrored(k):
    return np.triu(k) + np.triu(k, 1).T


class TestRbfKernelMatrix:
    """``kernel_cross`` adds the squared differences one coordinate at a
    time into one (m, q) array; ``oracle_rbf_cross`` is the (m, q, d)
    expression it replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("m", [50, 200, 500])
    def test_bytes_match_the_3d_expression(self, m, d):
        # Below 8 coordinates ``sum(axis=2)`` adds in coordinate order.
        points, queries, kernel = rbf_case(m, d)
        want = oracle_rbf_cross(points, queries, kernel.gamma)
        assert kernel_cross(kernel, points, queries).tobytes() == want.tobytes()
        want = mirrored(oracle_rbf_cross(points, points, kernel.gamma))
        assert kernel_gram(kernel, points).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [8, 9, 10, 11, 12])
    @pytest.mark.parametrize("m", [50, 200, 500])
    def test_wide_points_match_the_3d_expression(self, m, d):
        # From 8 coordinates on, ``sum(axis=2)`` adds pairwise.
        points, queries, kernel = rbf_case(m, d)
        want = oracle_rbf_cross(points, queries, kernel.gamma)
        np.testing.assert_allclose(kernel_cross(kernel, points, queries), want,
                                   rtol=0, atol=1e-12)
        k = kernel_gram(kernel, points)
        assert np.array_equal(k, k.T)
        np.testing.assert_allclose(k, mirrored(oracle_rbf_cross(points, points, kernel.gamma)),
                                   rtol=0, atol=1e-12)


class TestGram:
    def test_single_point(self):
        g = gram_from_states(feature_states([[1.0, 2.0]], spec2()))
        assert g.shape == (1, 1)
        np.testing.assert_allclose(g, [[1.0]], atol=1e-12)

    def test_small_matrix_invariants(self):
        rng = np.random.default_rng(12)
        points = rng.uniform(0, 2 * np.pi, (3, 2))
        g = gram_from_states(feature_states(points, spec2((0.5, 1.5))))
        assert np.array_equal(g, g.T)
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-10)
        assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_entries_match_kernel_entry(self):
        rng = np.random.default_rng(13)
        points = rng.uniform(0, 2 * np.pi, (4, 2))
        theta = (2.0, -0.3)
        states = feature_states(points, spec2(theta))
        g = gram_from_states(states)
        for i in range(4):
            for j in range(4):
                assert g[i, j] == pytest.approx(
                    oracle_kernel(points[i], points[j], theta), abs=1e-12
                )

    def test_psd_for_many_points(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            points = rng.uniform(0, 2 * np.pi, (30, 2))
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            g = gram_from_states(feature_states(points, spec2(theta)))
            assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_wrapper_matches_the_states_path(self):
        # ``gram`` and ``GramMatrix`` stay only for the benchmark's tracer.
        points = np.random.default_rng(17).uniform(0, 2 * np.pi, (5, 2))
        spec = spec2((0.4, -2.5))
        g = gram(points, spec)
        assert g.m == 5
        assert g.entries.tobytes() == gram_from_states(feature_states(points, spec)).tobytes()
        with pytest.raises(ValueError, match="at least one data point"):
            gram(np.empty((0, 2)), spec2())


def row_loop_gram(points, spec):
    """The Gram as it was once built: one matrix-vector product per row."""
    states = feature_states(points, spec)
    m = len(states)
    k = np.empty((m, m))
    for i in range(m):
        row = np.abs(states[i:].conj() @ states[i]) ** 2
        k[i, i:] = row
        k[i:, i] = row
    return k


# Sizes on both sides of the edges of the 64-row blocks that the Gram was
# once built in.
BLOCK_EDGE_SIZES = (1, 2, 63, 64, 65, 129, 200, 500)


class TestBlockedGram:
    """The Gram over all rows at once, at sizes around the edges of the
    64-row blocks it was once built in."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", BLOCK_EDGE_SIZES)
    def test_matches_row_loop(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        points = rng.uniform(0, 2 * np.pi, (m, n))
        spec = FeatureMapSpec(n=n, theta=rng.uniform(-2 * np.pi, 2 * np.pi, n))
        entries = gram_from_states(feature_states(points, spec))
        assert entries.shape == (m, m)
        # Both sides round a 2**(n+1)-term dot product and square it; at
        # n = 4 diagonal entries just below 1 differ by up to 5 ulp.
        assert np.max(np.abs(entries - row_loop_gram(points, spec))) <= 2e-15

    @pytest.mark.parametrize("m", BLOCK_EDGE_SIZES)
    def test_exactly_symmetric_and_repeatable(self, m):
        rng = np.random.default_rng(m)
        points = rng.uniform(0, 2 * np.pi, (m, 2))
        spec = spec2((0.3, -1.2))
        entries = gram_from_states(feature_states(points, spec))
        assert np.array_equal(entries, entries.T)
        assert entries.tobytes() == gram_from_states(feature_states(points, spec)).tobytes()

    @pytest.mark.parametrize("m", [65, 200])
    def test_rows_follow_a_permutation_of_the_points(self, m):
        # Permuting the points moves every entry to another row and
        # column of both products.
        rng = np.random.default_rng(m + 1)
        points = rng.uniform(0, 2 * np.pi, (m, 2))
        spec = spec2((1.7, -0.6))
        perm = rng.permutation(m)
        entries = gram_from_states(feature_states(points, spec))
        permuted = gram_from_states(feature_states(points[perm], spec))
        assert np.max(np.abs(permuted - entries[np.ix_(perm, perm)])) <= 1e-15


class TestExpectationZZ:
    def test_identity_on_zero_state(self):
        assert expectation_zz(basis(4, 0), np.eye(4)) == pytest.approx([1.0], abs=1e-12)

    def test_identity_on_basis_01(self):
        assert expectation_zz(basis(4, 1), np.eye(4)) == pytest.approx([-1.0], abs=1e-12)

    def test_matches_dense_sandwich(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            v = random_unitary(4, rng)
            amp = np.stack([random_state(4, rng) for _ in range(5)])
            got = expectation_zz(amp, v)
            want = [oracle_expectation_zz(a, v) for a in amp]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            assert np.all(np.abs(got) <= 1.0 + 1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            expectation_zz(basis(4, 0), np.eye(4) * 1.5)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="matrix"):
            expectation_zz(basis(4, 0), np.eye(8))


class TestNormPreservation:
    def test_all_operations_preserve_norm(self):
        rng = np.random.default_rng(16)
        points = rng.uniform(0, 2 * np.pi, (20, 2))
        state = feature_states(points, spec2((1.3, -2.1)))
        state = state @ (2.0 * _hadamard(2))
        state = state * data_phases(rng.uniform(-3, 3, (20, 2)))
        norms = np.sum(np.abs(state) ** 2, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)
