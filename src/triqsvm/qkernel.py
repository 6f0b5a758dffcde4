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
sampling anywhere in this module.  ``gram_from_states`` takes states, not
points, so a caller that keeps a batch's states does not simulate its
circuits again; it is the one place that computes |<s|t>|**2.  The
operator algebra lives here too: ``weighted_operator`` builds
M = sum_m w_m |s_m><s_m| and ``expectations`` takes Re <s|M|s> over a
batch, so generated data's labels (``expectation_zz``) and a quantum
model's decision values go through the same two routines.

theta moves only the one-body angles, by a detuning c(theta) that is the
same for every point, so D(x) = E(x) * exp(i c(theta) . z) with
E(x) = exp(i P(x)) free of theta.  ``data_phases`` builds E for a batch
of points, each ``FeatureMapSpec`` builds its single 2**n-entry row
exp(i c . z) once, and ``states_from_phases`` is the one statevector
routine: it multiplies E by that row and returns D * (D @ W).
``feature_states`` is that routine on its points' own E; a trainer keeps
the training points' E for a whole run and calls the routine once per
value of theta, with the same bits.

What depends only on the qubit count is built once per count and cached
read-only: the table of (1 - 2 b_i) signs, the pair indices of the
two-body angles and the dense real matrix W = 2**-n H+- of the Hadamard
layers (8 * 4**n bytes).  From E and a spec's row, a batch of states
costs one complex multiply giving the phase diagonal D, which is applied
twice, and one real (2m, 2**n) x (2**n, 2**n) product of D's stacked
real and imaginary planes with W, with no per-call set-up beyond them;
building E itself takes m * 2**n complex ``exp`` calls.  Like the
operator M of a quantum model and ``expectation_zz``, W is 4**n wide, so
there is one path for every n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import combinations

import numpy as np

# Amplitude of the bounded one-body detuning of the data map.  The
# detuning is periodic in theta and vanishes at every integer theta, so
# theta=(1,...,1) reproduces the plain angles phi_i(x) = x_i used to label
# generated data.
DETUNE_AMPLITUDE = np.pi / 8
# Every |theta_k| of a feature map lies within this bound.
THETA_BOUND = 2.0 * np.pi


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def fields_equal(a, b):
    """Value equality of two instances of one dataclass over the fields it
    compares, with arrays compared by ``np.array_equal``; the generated
    ``__eq__`` raises on array fields instead.  NotImplemented for an
    instance of another class."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    for f in fields(a):
        if f.compare:
            x, y = getattr(a, f.name), getattr(b, f.name)
            if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
                return False
    return True


def integer_field(instance, name: str, least: int) -> None:
    """Check that field ``name`` of a frozen dataclass instance is an
    integer (numpy's too, but not a bool) of at least ``least`` (0 or 1),
    and store it as a Python int; a ValueError names the field otherwise."""
    value = getattr(instance, name)
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None or index < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    object.__setattr__(instance, name, index)


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
    parameters theta (one per qubit), kept as a read-only copy.

    theta reaches the states only through ``detuning_row``, exp(i c . z)
    with the one-body detuning c_i = (pi/8) sin(pi (theta_i - 1)): one
    read-only row of 2**n entries, the same for every point, built once
    per spec so that scoring with a model's spec does not build it again.
    """

    n: int = 2
    theta: np.ndarray = field(default_factory=lambda: np.ones(2))
    detuning_row: np.ndarray = field(init=False, repr=False, compare=False)

    # Equal specs have equal n and theta; hashing still raises TypeError.
    __eq__ = fields_equal

    def __post_init__(self):
        theta = _read_only(np.array(self.theta, dtype=float))
        object.__setattr__(self, "theta", theta)
        integer_field(self, "n", 0)
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")
        if theta.shape != (self.n,):
            raise ValueError(f"theta must have one entry per qubit, got shape {theta.shape}")
        # On Python floats, since theta has one entry per qubit; written so
        # that a NaN entry fails the check too.
        if not all(abs(t) <= THETA_BOUND for t in theta.tolist()):
            raise ValueError("all |theta_k| must be <= 2*pi")
        detuning = DETUNE_AMPLITUDE * np.sin(np.pi * (theta - 1.0))
        row = _exp_i(detuning @ _z_table(self.n))
        object.__setattr__(self, "detuning_row", _read_only(row))


def data_phases(points: np.ndarray) -> np.ndarray:
    """E(x) = exp(i P(x)), the part of the phase diagonal that theta does
    not reach, one row of 2**n entries per point.

    P(x) = x . z + sum over the pairs i < j of :func:`_pair_index` of
    (pi - x_i)(pi - x_j) z_i z_j, with z the rows of :func:`_z_table`.
    """
    n = points.shape[1]
    z = _z_table(n)
    phase = points @ z
    shifted = np.pi - points
    for i, j in zip(*_pair_index(n)):
        phase += shifted[:, i : i + 1] * shifted[:, j : j + 1] * (z[i] * z[j])
    return _exp_i(phase)


def _exp_i(phase: np.ndarray) -> np.ndarray:
    """exp(i P) as the exp of 0 + i P in place: the bits of
    np.exp(1j * P), without the complex temporary that 1j * P allocates."""
    out = np.zeros(phase.shape, dtype=complex)
    out.imag = phase
    return np.exp(out, out=out)


@lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """W = 2**-n H+-, shape (2**n, 2**n), with H+- the unnormalised +-1
    Hadamard on every qubit: entry (a, b) is 2**-n (-1)**popcount(a & b).

    Each Hadamard layer carries a factor 2**(-n/2), and the first acts on
    |0...0>, whose image is 2**(-n/2) in every entry, so W folds both
    factors into one: D H D H|0...0> = D * (D @ W).  Its entries are
    +-2**-n, exact in binary, and it is symmetric.
    """
    signs = np.ones((1, 1))
    for _ in range(n):
        signs = np.block([[signs, signs], [signs, -signs]])
    return _read_only(signs * 2.0**-n)


def states_from_phases(phases: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """Feature states D H D H|0...0> from the rows of :func:`data_phases`,
    shape (m, 2**n); ``phases`` is left as it is.

    Each row's phase diagonal is D = E * ``spec.detuning_row``, the one
    2**n-entry row through which theta enters, and a state is
    D * (D @ W), W from :func:`_hadamard`.  W is real, so it acts on the
    real and imaginary planes of D stacked into one (2m, 2**n) operand:
    one real gemm per batch.  A batch of one is still a two-row product,
    not a matrix-vector one, so at n <= 5 row k of a batch equals the
    batch of row k alone bit for bit (tested).  At n >= 6 OpenBLAS 0.3.31
    on AVX-512 rounds a two-row product differently from wider ones, by up
    to 3e-15 in an amplitude; batches of two or more rows still agree.
    The result is a new array the caller may write to.
    """
    diag = phases * spec.detuning_row
    m = diag.shape[0]
    planes = np.concatenate([diag.real, diag.imag]) @ _hadamard(spec.n)
    state = np.empty_like(diag)
    state.real = planes[:m]
    state.imag = planes[m:]
    state *= diag
    return state


def feature_states(points, spec: FeatureMapSpec) -> np.ndarray:
    """Feature states of a batch of points, shape (m, 2**n): the points'
    own :func:`data_phases` through :func:`states_from_phases`, the one
    statevector routine.  A trainer that keeps a point set's phases across
    values of theta gets these states bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != spec.n:
        raise ValueError(
            f"data points must have dimension {spec.n}, got shape {points.shape}"
        )
    return states_from_phases(data_phases(points), spec)


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


def gram_from_states(states: np.ndarray) -> np.ndarray:
    """Gram matrix |<s_i|s_j>|**2 over a batch of feature states, shape (m, m).

    With S = A + iB the states, <s_i|s_j> has real part [A B]_i . [A B]_j
    and imaginary part [A B]_i . [B -A]_j, so K = re**2 + im**2 comes from
    two real matrix products over all rows at once.  ``real @ real.T`` is
    written so that numpy sends it to syrk.  The upper triangle is then
    copied into the lower, so the result is exactly symmetric.
    """
    real = np.concatenate([states.real, states.imag], axis=1)
    turned = np.concatenate([states.imag, -states.real], axis=1)
    k = real @ real.T
    im = real @ turned.T
    k *= k
    im *= im
    k += im
    np.copyto(k, k.T, where=np.tri(len(k), k=-1, dtype=bool))
    return k


def gram(points, spec: FeatureMapSpec) -> GramMatrix:
    """Gram matrix of the quantum kernel over a list of data points: the
    feature states of the points, then :func:`gram_from_states`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = points.shape[0]
    if m < 1 or points.size == 0:
        raise ValueError("at least one data point is required")
    return GramMatrix(gram_from_states(feature_states(points, spec)), m)


def weighted_operator(states: np.ndarray, weights) -> np.ndarray:
    """M = sum_m w_m |s_m><s_m| over the rows s_m of ``states``, shape
    (2**n, 2**n): a quantum model's operator, with w = alpha * y."""
    return (states.T * weights) @ states.conj()


def expectations(states: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """Re <s|M|s> for each row s of C-contiguous complex128 ``states``, as
    the real dot product of the float views of s and M s.  A lone row goes
    through M as a pair: numpy would send a (1, 2**n) complex product to a
    matrix-vector kernel, which rounds differently from the matrix one.
    """
    rows = np.concatenate([states, states]) if len(states) == 1 else states
    product = (rows @ operator.T)[:len(states)]
    return np.einsum("qi,qi->q", states.view(float), product.view(float))


def expectation_zz(states, v: np.ndarray) -> np.ndarray:
    """Expectations <psi| V^dag (Z x ... x Z) V |psi> of a batch of states.

    ``states`` has shape (m, 2**n); the result holds m reals in [-1, 1].
    V's unitarity is checked once per call.  V^dag Z...Z V is built and
    scored as a quantum model's M is, with w the signs of Z...Z.
    """
    states = np.atleast_2d(np.ascontiguousarray(states, dtype=complex))
    v = np.asarray(v, dtype=complex)
    dim = states.shape[1]
    if v.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {v.shape}")
    residual = np.max(np.abs(v.conj().T @ v - np.eye(dim)))
    if residual > 1e-10:
        raise ValueError(f"matrix is not unitary (max |V^dag V - I| = {residual:.2e})")
    signs = np.prod(_z_table(dim.bit_length() - 1), axis=0)
    return expectations(states, weighted_operator(v.conj(), signs))
