"""Dense statevector simulation of the two-repetition Pauli-Z feature map.

The feature state of a data point x is

    |Phi(x)> = D(x) H D(x) H |0...0>,

with H a Hadamard on every qubit and D(x) the diagonal phase evolution
whose angles come from the data map (the ZZ feature map of Havlicek et al.,
Nature 567, 209, 2019).  States are stored as full complex amplitude
vectors of length 2**n, a batch of points at a time.  Qubit 0 is the most
significant bit of the basis index, so for n=2 the basis order is |00>,
|01>, |10>, |11>.

A basis state |b> picks up the phase

    exp(i * [sum_i phi_i (1 - 2 b_i) + sum_{i<j} phi_ij (1 - 2 b_i)(1 - 2 b_j)])

under the phase evolution, which is the action of exp(i sum phi_S prod_S Z).
Kernels are exact squared overlaps of statevectors; there is no shot
sampling anywhere in this module.  ``gram_from_states`` and
``cross_from_states`` take states, not points, so a caller that keeps a
batch's states does not simulate its circuits again.

What depends only on the qubit count is built once per count and cached
read-only: the |+...+> row H|0...0>, the table of (1 - 2 b_i) signs, the
pair indices of the two-body angles and the axis orders of the Hadamard
layer.  A batch of states then costs two phase diagonals, two Hadamard
layers of n BLAS products each, and no per-call set-up beyond them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

# Amplitude of the bounded one-body detuning of the data map.  The
# detuning is periodic in theta and vanishes at every integer theta, so
# theta=(1,...,1) reproduces the plain angles phi_i(x) = x_i used to label
# generated data.
DETUNE_AMPLITUDE = np.pi / 8

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The caches below hand one array to every caller, so each is read-only.


@lru_cache(maxsize=None)
def _z_table(n: int) -> np.ndarray:
    """Rows of (1 - 2 b_i) over all basis indices, one row per qubit."""
    idx = np.arange(2**n)
    return _read_only(np.stack([1.0 - 2.0 * ((idx >> (n - 1 - i)) & 1) for i in range(n)]))


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second qubits of the pairs i < j, in two-body angle order."""
    i, j = np.array(list(combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
    return _read_only(i), _read_only(j)


@dataclass(frozen=True)
class FeatureMapSpec:
    """Configuration of the feature circuit: qubit count and training
    parameters theta (one per qubit)."""

    n: int = 2
    theta: np.ndarray = field(default_factory=lambda: np.ones(2))

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")
        if theta.shape != (self.n,):
            raise ValueError(f"theta must have one entry per qubit, got shape {theta.shape}")
        # Written so that a NaN entry fails the check too.
        if not np.all(np.abs(theta) <= 2 * np.pi):
            raise ValueError("all |theta_k| must be <= 2*pi")


def _angles(points: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-body and two-body angles of the data map, one row per point.

    One-body: the data coordinate plus a bounded periodic detuning
    controlled by theta (exactly zero at integer theta).  Two-body:
    (pi - x_i)(pi - x_j) per pair in :func:`_pair_index`, independent of theta.
    """
    i, j = _pair_index(points.shape[1])
    one = points + DETUNE_AMPLITUDE * np.sin(np.pi * (theta - 1.0))
    return one, (np.pi - points[:, i]) * (np.pi - points[:, j])


def _phase_diagonal(one: np.ndarray, two: np.ndarray) -> np.ndarray:
    """Diagonal of the phase evolution D for each row of angles."""
    z = _z_table(one.shape[1])
    phase = one @ z
    for k, (i, j) in enumerate(zip(*_pair_index(one.shape[1]))):
        phase = phase + two[:, k : k + 1] * z[i] * z[j]
    return np.exp(1j * phase)


@lru_cache(maxsize=None)
def _qubit_axes(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each qubit axis of a (batch, qubit..., re/im) tensor, the
    transpose that moves it to the front with the other axes in order, and
    the transpose that puts it back."""
    return tuple(
        ((ax, *range(ax), *range(ax + 1, n + 2)), (*range(1, ax + 1), 0, *range(ax + 1, n + 2)))
        for ax in range(1, n + 1)
    )


def _hadamard_layer(state: np.ndarray) -> np.ndarray:
    """A Hadamard on every qubit of a batch of states, shape (m, 2**n).

    The real matrix acts on the float view of the amplitudes, so every
    qubit axis is one (2, 2) @ (2, N >= 2) BLAS product whatever the batch
    size, and row k of a batch equals a batch of one bit for bit.  The
    (2, N) operand is the C-ordered copy with that qubit's axis first and
    the others in order, the one ``np.tensordot`` would build.
    """
    m, dim = state.shape
    n = dim.bit_length() - 1
    # Axes: batch, one per qubit, then (real, imag).
    t = state.view(float).reshape((m,) + (2,) * n + (2,))
    for front, back in _qubit_axes(n):
        t = t.transpose(front)
        t = np.dot(_HADAMARD, t.reshape(2, -1)).reshape(t.shape).transpose(back)
    return np.ascontiguousarray(t).view(complex).reshape(m, dim)


@lru_cache(maxsize=None)
def _plus_row(n: int) -> np.ndarray:
    """H|0...0>, the uniform superposition, as one (1, 2**n) row."""
    zero = np.zeros((1, 2**n), dtype=complex)
    zero[0, 0] = 1.0
    return _read_only(_hadamard_layer(zero))


def feature_states(points, spec: FeatureMapSpec) -> np.ndarray:
    """Feature states D H D H|0...0> of a batch of points, shape (m, 2**n).

    H|0...0> is the same for every point, so it is computed once per qubit
    count as a single row, and the first phase layer broadcasts it over
    the batch.  The result is a new array the caller may write to.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != spec.n:
        raise ValueError(
            f"data points must have dimension {spec.n}, got shape {points.shape}"
        )
    diag = _phase_diagonal(*_angles(points, spec.theta))
    return _hadamard_layer(_plus_row(spec.n) * diag) * diag


# No package path uses ``GramMatrix`` or ``gram``.  They stay only because the
# benchmark's tracer wraps ``triqsvm.qkernel.gram`` and reads ``.m`` from its result.
@dataclass(frozen=True)
class GramMatrix:
    """Exactly symmetric matrix of pairwise kernel values.  Its diagonal
    holds each state's squared norm, which is 1 up to rounding."""

    entries: np.ndarray
    m: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (self.m, self.m):
            raise ValueError(f"expected a {self.m}x{self.m} matrix, got {entries.shape}")


# Rows per block of the Gram.  A (64, 2**(n+1)) x (2**(n+1), m) product
# stays under OpenBLAS's threading threshold at n = 2 and m <= 500, so
# small Grams do not pay for waking a second thread.
_GRAM_BLOCK = 64
# Strict lower triangle of a diagonal block; a smaller block takes its
# top-left corner.
_BELOW_DIAGONAL = np.tri(_GRAM_BLOCK, k=-1, dtype=bool)


def gram_from_states(states: np.ndarray) -> np.ndarray:
    """Gram matrix |<s_i|s_j>|**2 over a batch of feature states, shape (m, m).

    With S = A + iB the states, <s_i|s_j> has real part [A B]_i . [A B]_j
    and imaginary part [A B]_i . [B -A]_j, so the upper triangle is
    computed from two real matrix products per block of rows and
    K = re**2 + im**2.  Each block is mirrored into the lower triangle, so
    the result is exactly symmetric.  Entries agree with
    :func:`cross_from_states` to rounding (a few ulp), not bit for bit.
    """
    m = states.shape[0]
    real = np.concatenate([states.real, states.imag], axis=1)
    turned = np.concatenate([states.imag, -states.real], axis=1)
    k = np.empty((m, m))
    for start in range(0, m, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, m)
        re = real[start:stop] @ real[start:].T
        im = real[start:stop] @ turned[start:].T
        re *= re
        im *= im
        re += im
        k[start:stop, start:] = re
        # Lower triangle of the diagonal block from its upper triangle,
        # then the rest of the block row mirrored below it.
        block = k[start:stop, start:stop]
        size = stop - start
        np.copyto(block, block.T, where=_BELOW_DIAGONAL[:size, :size])
        k[stop:, start:stop] = k[start:stop, stop:].T
    return k


def cross_from_states(sp: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Kernel values |<p|q>|**2 between two batches of feature states,
    shape (len(sp), len(sq))."""
    return np.abs(sp.conj() @ sq.T) ** 2


def gram(points, spec: FeatureMapSpec) -> GramMatrix:
    """Gram matrix of the quantum kernel over a list of data points: the
    feature states of the points, then :func:`gram_from_states`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = points.shape[0]
    if m < 1 or points.size == 0:
        raise ValueError("at least one data point is required")
    return GramMatrix(gram_from_states(feature_states(points, spec)), m)


def expectation_zz(states, v: np.ndarray) -> np.ndarray:
    """Expectations <psi| V^dag (Z x ... x Z) V |psi> of a batch of states.

    ``states`` has shape (m, 2**n); the result holds m reals in [-1, 1].
    V's unitarity is checked once per call.
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    v = np.asarray(v, dtype=complex)
    dim = states.shape[1]
    n = dim.bit_length() - 1
    if v.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {v.shape}")
    residual = np.max(np.abs(v.conj().T @ v - np.eye(dim)))
    if residual > 1e-10:
        raise ValueError(f"matrix is not unitary (max |V^dag V - I| = {residual:.2e})")
    w = states @ v.T
    signs = np.prod(_z_table(n), axis=0)
    value = np.sum(w.conj() * (signs * w), axis=1)
    if np.any(np.abs(value.imag) >= 1e-10):
        raise ArithmeticError(f"expectation has imaginary residue {value.imag!r}")
    return value.real
