"""Feature map, batched statevector and kernel tests against dense-matrix oracles."""

import numpy as np
import pytest

from triqsvm.kernels import kernel_cross, kernel_from_dict, kernel_gram
from triqsvm.qkernel import (
    FeatureMapSpec,
    _angles,
    _hadamard_layer,
    _pair_index,
    _phase_diagonal,
    _plus_row,
    _z_table,
    cross_from_states,
    expectation_zz,
    feature_states,
    gram,
    gram_from_states,
)

from oracles import (
    oracle_expectation_zz,
    oracle_feature_state,
    oracle_kernel,
    hadamard_all,
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
    ``np.moveaxis`` per qubit: the byte oracle for ``_hadamard_layer``."""
    m, dim = state.shape
    n = dim.bit_length() - 1
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    t = state.view(float).reshape((m,) + (2,) * n + (2,))
    for ax in range(1, n + 1):
        t = np.moveaxis(np.tensordot(h, t, axes=([1], [ax])), 0, ax)
    return np.ascontiguousarray(t).view(complex).reshape(m, dim)


# Batch sizes for byte comparisons: one row (the first qubit's operand is
# then a view, not a copy), small and odd sizes, and a large batch.
BYTE_BATCH_SIZES = (1, 2, 7, 257, 10_000)


class TestFeatureMapSpec:
    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="qubit count"):
            FeatureMapSpec(n=0, theta=np.zeros(0))

    def test_reps_is_fixed_to_two(self):
        # Model files name the repetition count; only 2 is simulated.
        assert isinstance(kernel_from_dict(QUANTUM_KERNEL), FeatureMapSpec)
        with pytest.raises(ValueError, match="reps"):
            kernel_from_dict(dict(QUANTUM_KERNEL, reps=3))

    def test_theta_bound(self):
        with pytest.raises(ValueError, match="theta"):
            FeatureMapSpec(n=2, theta=np.array([0.0, 7.0]))

    def test_theta_nan_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            FeatureMapSpec(n=2, theta=np.array([np.nan, 1.0]))

    def test_theta_length(self):
        with pytest.raises(ValueError):
            FeatureMapSpec(n=2, theta=np.zeros(3))

    def test_unknown_data_map(self):
        with pytest.raises(ValueError, match="data map"):
            kernel_from_dict(dict(QUANTUM_KERNEL, data_map="nope"))


class TestHadamardLayer:
    def test_zero_state_becomes_uniform(self):
        out = _hadamard_layer(basis(4, 0))
        np.testing.assert_allclose(out, np.full((1, 4), 0.5), atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(5)
        amp = np.stack([random_state(8, rng) for _ in range(20)])
        back = _hadamard_layer(_hadamard_layer(amp))
        np.testing.assert_allclose(back, amp, atol=1e-12)

    def test_basis_ten(self):
        # |10> is basis index 2: qubit 0 is the MSB.
        out = _hadamard_layer(basis(4, 2))
        np.testing.assert_allclose(out, [[0.5, 0.5, -0.5, -0.5]], atol=1e-14)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(6)
        h = hadamard_all(3)
        amp = np.stack([random_state(8, rng) for _ in range(10)])
        np.testing.assert_allclose(_hadamard_layer(amp), amp @ h.T, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", BYTE_BATCH_SIZES)
    def test_bytes_match_tensordot_layer(self, n, m):
        rng = np.random.default_rng(50 + n)
        amp = rng.normal(size=(m, 2**n)) + 1j * rng.normal(size=(m, 2**n))
        before = amp.tobytes()
        assert _hadamard_layer(amp).tobytes() == tensordot_hadamard_layer(amp).tobytes()
        assert amp.tobytes() == before


class TestPhaseEvolution:
    def test_zero_angles_are_identity(self):
        diag = _phase_diagonal(np.zeros((1, 2)), np.zeros((1, 1)))
        np.testing.assert_array_equal(diag, np.ones((1, 4)))

    def test_pair_angle_pi_is_global_phase(self):
        # (1-2b1)(1-2b2) is +-1, and exp(+-i pi) = -1 either way, so the
        # kernel value against the pre-image is unchanged.
        state = _hadamard_layer(basis(4, 0))
        out = state * _phase_diagonal(np.zeros((1, 2)), np.array([[np.pi]]))
        np.testing.assert_allclose(out, -state, atol=1e-12)
        overlap = abs(np.vdot(state, out)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_on_uniform(self):
        state = _hadamard_layer(basis(4, 0))
        out = state * _phase_diagonal(np.array([[np.pi / 2, 0.0]]), np.zeros((1, 1)))
        np.testing.assert_allclose(out, [[0.5j, 0.5j, -0.5j, -0.5j]], atol=1e-12)

    def test_magnitudes_never_change(self):
        rng = np.random.default_rng(7)
        angles = rng.uniform(-10, 10, (50, 3))
        diag = _phase_diagonal(angles[:, :2], angles[:, 2:])
        np.testing.assert_allclose(np.abs(diag), 1.0, atol=1e-12)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", BYTE_BATCH_SIZES)
    def test_shared_first_layer_matches_per_row_layers(self, n, m):
        # The two layers applied to a batch of |0...0> rows, as they were
        # before H|0...0> was computed once and broadcast, and with the
        # layer as first written.
        rng = np.random.default_rng(40 + n)
        spec = FeatureMapSpec(n=n, theta=rng.uniform(-2 * np.pi, 2 * np.pi, n))
        points = rng.uniform(-3.0, 7.0, (m, n))
        diag = _phase_diagonal(*_angles(points, spec.theta))
        state = np.zeros((m, 2**n), dtype=complex)
        state[:, 0] = 1.0
        for _ in range(2):
            state = tensordot_hadamard_layer(state) * diag
        assert feature_states(points, spec).tobytes() == state.tobytes()

    def test_returns_a_fresh_writeable_array(self):
        points = [[0.7, 5.1], [2.9, 0.4]]
        spec = spec2((1.7, -0.6))
        first = feature_states(points, spec)
        want = first.tobytes()
        assert first.flags.writeable
        assert not np.shares_memory(first, _plus_row(2))
        first[:] = 0.0
        second = feature_states(points, spec)
        assert second.tobytes() == want
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize(
        "cached",
        [lambda: _z_table(3), lambda: _pair_index(3)[0], lambda: _pair_index(3)[1],
         lambda: _plus_row(3)],
        ids=["z-table", "pair-first", "pair-second", "plus-row"],
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
        cross = cross_from_states(states, states)
        assert np.max(np.abs(cross - cross.T)) <= 1e-12

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
        np.testing.assert_allclose(g, cross_from_states(states, states), rtol=0, atol=1e-12)
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


# Sizes on both sides of every 64-row block edge.
BLOCK_EDGE_SIZES = (1, 2, 63, 64, 65, 129, 200, 500)


class TestBlockedGram:
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
        # Permuting the points moves every entry to another block, so
        # another product computes it.
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
        state = _hadamard_layer(state)
        state = state * _phase_diagonal(rng.uniform(-3, 3, (20, 2)), rng.uniform(-3, 3, (20, 1)))
        norms = np.sum(np.abs(state) ** 2, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-10)
