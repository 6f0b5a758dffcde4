"""Independent reference implementations.

The quantum references are built from explicit matrix products (kron
chains and diagonal matrices assembled entry by entry) so they share no
code path with the package internals they check.  Qubit 0 is the most
significant bit of the basis index, matching the package convention.

The COBYLA reference at the end is the package's earlier iteration,
kept verbatim: it rebuilds the linear model and the pole distances on
every pass and goes through numpy's Python-level wrappers on tiny arrays.
``triqsvm.optimize`` must evaluate the same points, bit for bit.
"""

import math
from itertools import combinations

import numpy as np

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

DETUNE_AMPLITUDE = np.pi / 8


def hadamard_all(n: int) -> np.ndarray:
    m = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        m = np.kron(m, HADAMARD)
    return m


def bit(b: int, i: int, n: int) -> int:
    return (b >> (n - 1 - i)) & 1


def phase_matrix(n: int, one_body, two_body) -> np.ndarray:
    pairs = list(combinations(range(n), 2))
    diag = []
    for b in range(2**n):
        z = [1 - 2 * bit(b, i, n) for i in range(n)]
        phase = sum(one_body[i] * z[i] for i in range(n))
        phase += sum(two_body[k] * z[i] * z[j] for k, (i, j) in enumerate(pairs))
        diag.append(np.exp(1j * phase))
    return np.diag(diag)


def detune_angles(x, theta):
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    n = len(x)
    one = [x[i] + DETUNE_AMPLITUDE * np.sin(np.pi * (theta[i] - 1.0)) for i in range(n)]
    two = [(np.pi - x[i]) * (np.pi - x[j]) for i, j in combinations(range(n), 2)]
    return one, two


def oracle_feature_state(x, theta, reps: int = 2) -> np.ndarray:
    n = len(x)
    one, two = detune_angles(x, theta)
    u = phase_matrix(n, one, two)
    h = hadamard_all(n)
    block = u @ h
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    for _ in range(reps):
        vec = block @ vec
    return vec


def oracle_kernel(x, z, theta) -> float:
    a = oracle_feature_state(x, theta)
    b = oracle_feature_state(z, theta)
    return float(np.abs(np.vdot(a, b)) ** 2)


def oracle_rbf_cross(points, queries, gamma) -> np.ndarray:
    """The rbf kernel matrix as ``kernels.kernel_cross`` first built it: an
    (m, q, d) array of differences, squared and summed over its last axis."""
    d2 = ((points[:, None, :] - queries[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-gamma * d2)


def zz_observable(n: int) -> np.ndarray:
    z1 = np.diag([1.0, -1.0]).astype(complex)
    m = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        m = np.kron(m, z1)
    return m


def oracle_expectation_zz(state: np.ndarray, v: np.ndarray) -> float:
    n = int(np.log2(len(state)))
    sandwich = v.conj().T @ zz_observable(n) @ v
    return float(np.real(np.vdot(state, sandwich @ state)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# --- COBYLA reference iteration (verbatim; see the module docstring) ---

# Trust-region constants (PRIMA's defaults): a step whose actual over
# predicted reduction is at most ETA1 shrinks Δ to GAMMA1·|d|, and one
# above ETA2 enlarges it to GAMMA2·|d|.
_ETA1, _ETA2 = 0.1, 0.7
_GAMMA1, _GAMMA2 = 0.5, 2.0
# Objective values the model uses are clipped to ±_HUGE, and NaN reads as
# _HUGE, so that one bad value cannot turn the model's gradient into NaN.
_HUGE = 2.0**100


def _box_ball_step(g: np.ndarray, radius: float, lower: np.ndarray,
                   upper: np.ndarray) -> np.ndarray:
    """The d that minimises g·d over |d| <= radius and lower <= d <= upper,
    for lower <= 0 <= upper.

    The minimiser is clip(-t·g, lower, upper) at the t >= 0 where its norm
    reaches ``radius``, or the box's corner in direction -g if that lies
    inside the ball.  Coordinates reach their bounds in the order of t;
    between two such breakpoints |d|² = fixed + t²·free.
    """
    moving = g != 0
    bound = np.where(g < 0, upper, lower)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(moving, bound / -g, np.inf)
    fixed = 0.0
    for i in np.argsort(reach)[: int(moving.sum())]:
        free = float(g[moving] @ g[moving])
        t = math.sqrt(max(radius * radius - fixed, 0.0) / free)
        if t <= reach[i]:
            return np.clip(-t * g, lower, upper)
        fixed += float(bound[i]) ** 2
        moving[i] = False
    return np.where(g != 0, bound, 0.0)


def _reduced_rho(rho: float, rho_end: float) -> float:
    """PRIMA's schedule for ρ: a tenth while far from ``rho_end``, then the
    geometric mean of the two, then ``rho_end`` itself."""
    ratio = rho / rho_end
    if ratio > 250.0:
        return 0.1 * rho
    if ratio <= 16.0:
        return rho_end
    return math.sqrt(ratio) * rho_end


def _cobyla_points(x0: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   rho_begin: float, rho_end: float):
    """COBYLA over the box [lower, upper], as a generator: it yields each
    point to evaluate and is sent the objective's value there.  It returns
    True once ρ has reached ``rho_end``, and False if rounding has made the
    simplex singular.

    ``sim`` holds the p + 1 simplex vertices; row p is the pole, the best
    vertex (the earlier on ties).  The initial simplex is PRIMA's: f(x0),
    then pole + ρ·e_j for each j, clipped to the box, each made the pole
    at once if it is better.  A coordinate already at its upper bound steps
    down instead.
    """
    n = x0.size
    rho = delta = rho_begin
    sim = np.empty((n + 1, n))
    fval = np.empty(n + 1)
    sim[n] = x0
    fval[n] = _moderated((yield x0))
    for j in range(n):
        x = sim[n].copy()
        x[j] = min(x[j] + rho, upper[j])
        if x[j] == sim[n, j]:
            x[j] = max(x[j] - rho, lower[j])
        sim[j] = x
        fval[j] = _moderated((yield x))
        if fval[j] < fval[n]:
            sim[[j, n]] = sim[[n, j]]
            fval[[j, n]] = fval[[n, j]]

    while True:
        model = _linear_model(sim, fval)
        if model is None:
            return False
        inverse, g = model
        adequate = _distances(sim).max() <= 4.0 * delta * delta
        d = _box_ball_step(g, delta, lower - sim[n], upper - sim[n])
        dnorm = min(delta, float(np.linalg.norm(d)))
        predicted = -float(g @ d)
        bad = dnorm <= 0.1 * rho or not predicted > 0.0
        if bad:
            delta = _snapped(0.1 * delta, rho)
        else:
            x = np.clip(sim[n] + d, lower, upper)
            f = _moderated((yield x))
            ratio = (fval[n] - f) / predicted
            if ratio <= _ETA1:
                delta = _GAMMA1 * dnorm
            elif ratio <= _ETA2:
                delta = max(_GAMMA1 * delta, dnorm)
            else:
                delta = max(_GAMMA1 * delta, _GAMMA2 * dnorm)
            delta = _snapped(delta, rho)
            improved = f < fval[n]
            drop = _vertex_to_drop(sim, inverse, x, improved, max(rho, 0.1 * delta))
            if drop is not None:
                _replace_vertex(sim, fval, drop, x, f)
            bad = ratio <= 0.0 or drop is None

        distances = _distances(sim)
        if bad and not adequate and distances.max() > 4.0 * delta * delta:
            # Geometry step: move the farthest vertex, within Δ/2 of the
            # pole, as far as the box allows from the face opposite it.
            far = int(np.argmax(distances))
            model = _linear_model(sim, fval)
            if model is None:
                return False
            inverse, g = model
            normal = inverse[:, far]
            lo, hi = lower - sim[n], upper - sim[n]
            up = _box_ball_step(-normal, 0.5 * delta, lo, hi)
            down = _box_ball_step(normal, 0.5 * delta, lo, hi)
            reach_up, reach_down = float(normal @ up), -float(normal @ down)
            if reach_down > reach_up or (reach_down == reach_up and g @ down < g @ up):
                up = down
            x = np.clip(sim[n] + up, lower, upper)
            _replace_vertex(sim, fval, far, x, _moderated((yield x)))
        elif bad and adequate and max(delta, dnorm) <= rho:
            if rho <= rho_end:
                return True
            reduced = _reduced_rho(rho, rho_end)
            rho, delta = reduced, max(0.5 * rho, reduced)


def _snapped(delta: float, rho: float) -> float:
    """Δ, or ρ when Δ has come within 1.5 ρ: Δ never drops below ρ."""
    return rho if delta <= 1.5 * rho else delta


def _moderated(value: float) -> float:
    return _HUGE if value != value else min(max(value, -_HUGE), _HUGE)


def _distances(sim: np.ndarray) -> np.ndarray:
    """Squared distances from the other vertices to the pole."""
    return np.sum((sim[:-1] - sim[-1]) ** 2, axis=1)


def _linear_model(sim: np.ndarray, fval: np.ndarray):
    """The inverse of the vertices' displacements from the pole (one per
    row) and the gradient of the linear interpolant, or None when the
    simplex is singular."""
    try:
        inverse = np.linalg.inv(sim[:-1] - sim[-1])
    except np.linalg.LinAlgError:
        return None
    g = inverse @ (fval[:-1] - fval[-1])
    return (inverse, g) if np.isfinite(g).all() else None


def _vertex_to_drop(sim, inverse, x, improved: bool, scale: float):
    """The vertex that the trust-region point ``x`` replaces (Powell 1994,
    (19)-(22)): the largest barycentric weight of ``x``, scaled up for
    vertices far from the better of ``x`` and the pole.  The pole is
    dropped only for a better point; None when no vertex qualifies."""
    weights = (x - sim[-1]) @ inverse
    weights = np.append(weights, 1.0 - weights.sum())
    dist2 = np.sum((sim - (x if improved else sim[-1])) ** 2, axis=1)
    score = np.maximum(1.0, dist2 / scale**2) * np.abs(weights)
    if not improved:
        score[-1] = -1.0
    score[np.isnan(score)] = -1.0
    if (score > 0).any():
        return int(np.argmax(score))
    return int(np.argmax(dist2)) if improved else None


def _replace_vertex(sim, fval, j: int, x, f: float) -> None:
    """Put (x, f) in row ``j`` and make the best vertex the pole."""
    sim[j], fval[j] = x, f
    best = int(np.argmin(fval))
    if fval[best] < fval[-1]:
        sim[[best, -1]] = sim[[-1, best]]
        fval[[best, -1]] = fval[[-1, best]]


def oracle_cobyla_minimize(objective, x0, lows, highs, rho_begin, rho_end, max_evals):
    """``cobyla_minimize``'s run loop over ``_cobyla_points`` above: the
    points evaluated, then the best point, its value, the evaluation count
    and the converged flag."""
    x0 = np.asarray(x0, dtype=float)
    best_x, best_fun = x0.copy(), np.inf
    seen = []
    converged = False
    points = _cobyla_points(x0.copy(), lows, highs, rho_begin, rho_end)
    try:
        x = next(points)
        while len(seen) < max_evals:
            value = float(objective(x))
            seen.append(x.copy())
            if value < best_fun:
                best_x, best_fun = x, value
            x = points.send(value)
    except StopIteration as finished:
        converged = finished.value
    return seen, best_x, best_fun, len(seen), converged
