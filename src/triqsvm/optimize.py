"""Derivative-free training of the kernel parameters.

``cobyla_minimize`` is a compact COBYLA (Powell 1994: a linear model on a
simplex of p + 1 points, trust-region steps, and a radius ρ that shrinks
from ``rho_begin`` to ``rho_end``) for box constraints only.  Every point
it evaluates lies in the box, it stops at the evaluation budget, and it
returns the best point evaluated.  It rebuilds its linear model only when
the simplex changes, and works on Python floats where numpy's wrappers
would cost more than the arithmetic on p-element arrays: max, argmax,
abs, comparisons and products that round as numpy's do.  Dot products,
the inverse and multi-element sums stay in numpy, whose bits depend on
BLAS, LAPACK and its summation order, so the points it evaluates are
those of the reference iteration in ``tests/oracles.py``, bit for bit.
``train`` runs the outer cycle: build the kernel matrix for the current
parameters, build and solve the QUBO, compute the offset, score the
validation set, and feed 1 - accuracy back to the optimizer, until the
iteration cap or the target accuracy ends the run.  The pass that spends
the cap ends the run itself, as the target does, so COBYLA builds no
model or step for a point it may not evaluate.  The ``paper`` builder on
a kernel with values in [0, 1] (quantum or rbf) skips the QUBO: there
alpha = 1 is known to be optimal, and the offset and best energy come in
closed form from K y, which the quantum kernel takes from the training
states without a kernel matrix.  θ enters the quantum kernel only
through one detuning row shared by every point, so ``train`` builds the
training points' θ-free phases once per run, and each quantum pass turns
them into states through the one statevector routine
(``qkernel.states_from_phases``), then builds its model's operator M
once and hands it to the model.  The reported model is the iteration
with the highest validation accuracy (earliest on ties).
"""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from . import __version__
from .anneal import (
    AnnealSchedule,
    SampleResult,
    brute_force,
    greedy_descent,
    presolve,
    simulated_anneal,
)
from .datagen import Dataset
from .kernels import LinearKernel, RbfKernel, default_rbf_gamma, kernel_gram
from .qkernel import (THETA_BOUND, FeatureMapSpec, data_phases, expectations,
                      gram_from_states, states_from_phases, weighted_operator)
from .qubo import (
    TrainedModel,
    accuracy,
    build_qubo_dual,
    build_qubo_paper,
    compute_beta,
    model_to_dict,
    paper_offset_and_energy,
)

BACKENDS = ("anneal", "exact", "greedy")
BUILDERS = ("paper", "dual")
KERNEL_KINDS = ("quantum-zz", "rbf", "linear")


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds (``mallopt``'s M_MMAP_THRESHOLD,
    -3, and M_TRIM_THRESHOLD, -1); a no-op where libc has no ``mallopt``.

    glibc's thresholds are dynamic: they start at 128 KiB and rise only
    after a large block is freed, so by default a temporary above 128 KiB
    goes back to the OS and faults in again on every call.  The pin is a
    trade-off: it changes the allocator of the whole host process, and
    taking it out costs the benchmark's workloads throughput.  Unpinned,
    ``predict-map``'s evaluate + map operation (a 10,000-row query batch's
    states and phase planes) took 680-683 minor faults against 1-2 and
    6-11% less ``predict_qps``.  Scoring in row blocks of 4,096 amplitudes
    took those faults to 1-3 unpinned, but ``hqsvm-paper`` then lost 5-8%
    ``predict_qps``, although its holdout scoring after ``train`` takes no
    faults either way in process (seed 1, 2 CPUs, numpy 2.4.6; three
    alternating ``perfbench/run.py`` pairs per comparison).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


_pin_malloc_thresholds()


@dataclass(frozen=True)
class OptimizerConfig:
    """Trust-region radii and evaluation budget for the optimizer."""

    rho_begin: float = 0.5
    rho_end: float = 1e-4
    max_evals: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.rho_end < self.rho_begin:
            raise ValueError("need 0 < rho_end < rho_begin")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


@dataclass(frozen=True)
class MinimizeResult:
    """Best point evaluated, its value, and the number of objective
    evaluations (never more than ``max_evals``).  ``converged`` is True when
    the trust region reached ``rho_end``."""

    x: np.ndarray
    fun: float
    evaluations: int
    converged: bool


class _Stop(Exception):
    """Raised by ``train``'s objective once the target accuracy is met or
    the pass has spent the iteration budget; it ends the
    ``cobyla_minimize`` run."""


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
    between two such breakpoints |d|² = fixed + t²·free.  The walk runs on
    Python floats, whose arithmetic rounds as numpy's does.  ``free`` stays
    a numpy dot product, whose bits depend on BLAS, and ties in t keep
    ``np.argsort``'s order, which need not be a stable sort's.
    """
    gs = g.tolist()
    bound = [u if gi < 0 else lo for gi, lo, u in zip(gs, lower.tolist(), upper.tolist())]
    reach = [b / -gi if gi != 0 else math.inf for b, gi in zip(bound, gs)]
    moving = g != 0
    fixed = 0.0
    for i in np.array(reach).argsort()[: len(gs) - gs.count(0.0)].tolist():
        rest = g[moving]
        t = math.sqrt(max(radius * radius - fixed, 0.0) / float(rest @ rest))
        if t <= reach[i]:
            return _clipped(-t * g, lower, upper)
        fixed += bound[i] ** 2
        moving[i] = False
    return np.where(g != 0, bound, 0.0)


def _clipped(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``np.clip(x, lower, upper)``, bit for bit and signed zeros included,
    in place and without its Python wrapper."""
    np.maximum(x, lower, out=x)
    return np.minimum(x, upper, out=x)


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

    The linear model and the pole frame (the pole distances and the box
    relative to the pole) are functions of ``sim`` and ``fval`` alone, so
    they are rebuilt only after ``_replace_vertex``
    changes the simplex: after an accepted trust-region point or a
    geometry step.  A step that is "bad" (too short, or no predicted
    decrease) or a point that replaces no vertex reuses them.  The points
    are those of the reference iteration in ``tests/oracles.py``, which
    rebuilds both on every pass, bit for bit.
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
            _swap(sim, fval, j, n)

    # The linear model and the pole frame of the current simplex; each is
    # None from a change of the simplex until it is needed again.
    model = frame = None
    while True:
        if model is None and (model := _linear_model(sim, fval)) is None:
            return False
        if frame is None:
            frame = _pole_frame(sim, lower, upper)
        inverse, g = model
        distances, lo, hi = frame
        adequate = max(distances) <= 4.0 * delta * delta
        d = _box_ball_step(g, delta, lo, hi)
        dnorm = min(delta, math.sqrt(d @ d))
        predicted = -float(g @ d)
        bad = dnorm <= 0.1 * rho or not predicted > 0.0
        if bad:
            delta = _snapped(0.1 * delta, rho)
        else:
            x = _clipped(sim[n] + d, lower, upper)
            f = _moderated((yield x))
            pole_f = float(fval[n])
            ratio = (pole_f - f) / predicted
            if ratio <= _ETA1:
                delta = _GAMMA1 * dnorm
            elif ratio <= _ETA2:
                delta = max(_GAMMA1 * delta, dnorm)
            else:
                delta = max(_GAMMA1 * delta, _GAMMA2 * dnorm)
            delta = _snapped(delta, rho)
            improved = f < pole_f
            drop = _vertex_to_drop(sim, inverse, x, improved, max(rho, 0.1 * delta))
            if drop is not None:
                _replace_vertex(sim, fval, drop, x, f)
                model = frame = None
            bad = ratio <= 0.0 or drop is None

        if bad and not adequate:
            if frame is None:
                frame = _pole_frame(sim, lower, upper)
            distances, lo, hi = frame
            farthest = max(distances)
            if farthest > 4.0 * delta * delta:
                # Geometry step: move the farthest vertex, within Δ/2 of the
                # pole, as far as the box allows from the face opposite it.
                far = distances.index(farthest)
                if model is None and (model := _linear_model(sim, fval)) is None:
                    return False
                inverse, g = model
                normal = inverse[:, far]
                up = _box_ball_step(-normal, 0.5 * delta, lo, hi)
                down = _box_ball_step(normal, 0.5 * delta, lo, hi)
                reach_up, reach_down = float(normal @ up), -float(normal @ down)
                if reach_down > reach_up or (reach_down == reach_up and g @ down < g @ up):
                    up = down
                x = _clipped(sim[n] + up, lower, upper)
                _replace_vertex(sim, fval, far, x, _moderated((yield x)))
                model = frame = None
        elif bad and max(delta, dnorm) <= rho:
            if rho <= rho_end:
                return True
            reduced = _reduced_rho(rho, rho_end)
            rho, delta = reduced, max(0.5 * rho, reduced)


def _snapped(delta: float, rho: float) -> float:
    """Δ, or ρ when Δ has come within 1.5 ρ: Δ never drops below ρ."""
    return rho if delta <= 1.5 * rho else delta


def _moderated(value: float) -> float:
    return _HUGE if value != value else min(max(value, -_HUGE), _HUGE)


def _pole_frame(sim: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """The squared distances from the other vertices to the pole, summed in
    numpy and handed back as Python floats for ``max`` and ``index``, and
    the box's bounds relative to the pole, which bound every step."""
    pole = sim[-1]
    squares = sim[:-1] - pole
    squares *= squares
    return squares.sum(axis=1).tolist(), lower - pole, upper - pole


def _linear_model(sim: np.ndarray, fval: np.ndarray):
    """The inverse of the vertices' displacements from the pole (one per
    row) and the gradient of the linear interpolant, or None when the
    simplex is singular."""
    try:
        inverse = np.linalg.inv(sim[:-1] - sim[-1])
    except np.linalg.LinAlgError:
        return None
    g = inverse @ (fval[:-1] - fval[-1])
    return (inverse, g) if all(map(math.isfinite, g.tolist())) else None


def _vertex_to_drop(sim, inverse, x, improved: bool, scale: float):
    """The vertex that the trust-region point ``x`` replaces (Powell 1994,
    (19)-(22)): the largest barycentric weight of ``x``, scaled up for
    vertices far from the better of ``x`` and the pole.  The pole is
    dropped only for a better point; None when no vertex qualifies."""
    n = x.size
    weights = np.empty(n + 1)
    weights[:n] = (x - sim[-1]) @ inverse
    weights[n] = 1.0 - weights[:n].sum()
    squares = sim - (x if improved else sim[-1])
    squares *= squares
    dist2 = squares.sum(axis=1).tolist()
    # The score on Python floats: the vertices' distances are finite, so
    # max(1.0, ·) picks what np.maximum picks, and a NaN can only come
    # from a weight.
    scale2 = scale**2
    score = [max(1.0, d / scale2) * abs(w) for d, w in zip(dist2, weights.tolist())]
    if not improved:
        score[-1] = -1.0
    score = [-1.0 if s != s else s for s in score]
    best = max(score)
    if best > 0:
        return score.index(best)
    return dist2.index(max(dist2)) if improved else None


def _replace_vertex(sim, fval, j: int, x, f: float) -> None:
    """Put (x, f) in row ``j`` and make the best vertex the pole."""
    sim[j], fval[j] = x, f
    best = int(fval.argmin())
    if fval[best] < fval[-1]:
        _swap(sim, fval, best, -1)


def _swap(sim, fval, i: int, j: int) -> None:
    """Exchange vertices ``i`` and ``j`` with their values."""
    sim[i], sim[j] = sim[j].copy(), sim[i].copy()
    fval[i], fval[j] = fval[j], fval[i]


def cobyla_minimize(objective: Callable, x0, bounds, config: OptimizerConfig) -> MinimizeResult:
    """Minimize a black-box function over a box via COBYLA.

    ``bounds`` is a sequence of (low, high) per coordinate, low < high.
    Every point COBYLA evaluates lies in the box, and ``max_evals`` is a
    hard cap on objective calls.  ``converged`` is True when ρ reached
    ``rho_end`` on the values evaluated, even when the last value the
    budget allows completed that descent (then ``evaluations`` equals
    ``max_evals``).  A run whose iteration asked for a point beyond the
    budget, whose simplex turned singular, or whose objective raised
    ``_Stop`` reports ``converged=False``.  The result is the best point
    evaluated (the earliest on ties), or ``x0`` with ``fun`` = inf when no
    evaluation returned a value below inf.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a nonempty vector")
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array([b[1] for b in bounds], dtype=float)
    if lows.shape != x0.shape or highs.shape != x0.shape:
        raise ValueError("one (low, high) pair per coordinate is required")
    if not np.all(lows < highs):
        raise ValueError("each of the bounds needs low < high")
    # Written so that a NaN in x0 fails it.
    if not ((lows <= x0) & (x0 <= highs)).all():
        raise ValueError("x0 must lie within bounds")

    best_x, best_fun = x0.copy(), np.inf
    evaluations = 0
    converged = False
    points = _cobyla_points(x0.copy(), lows, highs, config.rho_begin, config.rho_end)
    try:
        x = next(points)
        while evaluations < config.max_evals:
            value = float(objective(x))
            evaluations += 1
            if value < best_fun:
                best_x, best_fun = x, value
            x = points.send(value)
    except StopIteration as finished:
        converged = finished.value
    except _Stop:
        pass
    return MinimizeResult(x=best_x, fun=best_fun, evaluations=evaluations, converged=converged)


def initial_theta(p: int, seed: int) -> np.ndarray:
    """Uniform starting parameters in [-2*pi, 2*pi]^p."""
    if p < 1:
        raise ValueError("parameter count must be >= 1")
    return np.random.default_rng(seed).uniform(-THETA_BOUND, THETA_BOUND, p)


@dataclass(frozen=True)
class TrainConfig:
    """Outer-loop settings: iteration cap, early-stop threshold, solver
    backend, QUBO builder, kernel kind and the master seed.
    ``schedule=None`` anneals with ``AnnealSchedule(seed=seed)``."""

    max_iterations: int = 10
    target_accuracy: float = 1.0
    solver_backend: str = "anneal"
    qubo_builder: str = "paper"
    kernel_kind: str = "quantum-zz"
    seed: int = 0
    schedule: AnnealSchedule | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.target_accuracy <= 1.0:
            raise ValueError("target_accuracy must lie in [0, 1]")
        if self.solver_backend not in BACKENDS:
            raise ValueError(f"solver_backend must be one of {BACKENDS}")
        if self.qubo_builder not in BUILDERS:
            raise ValueError(f"qubo_builder must be one of {BUILDERS}")
        if self.kernel_kind not in KERNEL_KINDS:
            raise ValueError(f"kernel_kind must be one of {KERNEL_KINDS}")


@dataclass
class TrainReport:
    """Outcome of one training run.  ``states_built`` counts the feature
    states (simulated circuits) the run built: m + v per scored quantum
    iteration, 0 for classical kernels."""

    best_theta: np.ndarray
    best_model: TrainedModel
    best_accuracy: float
    accuracy_per_iteration: list[float]
    iterations_used: int
    states_built: int
    wall_time: float
    config: dict
    solver: dict
    failures: list[str] = field(default_factory=list)


def report_to_dict(report: TrainReport) -> dict:
    return {
        "best_theta": [float(t) for t in report.best_theta],
        "best_accuracy": report.best_accuracy,
        "accuracy_per_iteration": [float(a) for a in report.accuracy_per_iteration],
        "iterations_used": report.iterations_used,
        "states_built": report.states_built,
        "wall_time": report.wall_time,
        "config": report.config,
        "solver": report.solver,
        "failures": list(report.failures),
        "best_model": model_to_dict(report.best_model),
    }


def _field_values(config) -> dict:
    """A config dataclass's fields by name, one level deep: ``asdict``
    without its recursive deep copy.  The only nested field,
    ``TrainConfig.schedule``, is replaced by its own fields in ``train``."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _schedule(cfg: TrainConfig) -> AnnealSchedule:
    return cfg.schedule if cfg.schedule is not None else AnnealSchedule(seed=cfg.seed)


def _solver_info(cfg: TrainConfig, fixed: int, residual_n: int, best_energy: float,
                 selected: int) -> dict:
    """The solver info of one pass: the configured backend's fields, then
    the variables presolve fixed, the size of what it left, and the best
    assignment's energy and selected count."""
    if cfg.solver_backend == "anneal":
        info = {"backend": "anneal", **_field_values(_schedule(cfg))}
    elif cfg.solver_backend == "greedy":
        info = {"backend": "greedy", "seed": cfg.seed}
    else:
        info = {"backend": "exact", "global_optimum": True}
    return {**info, "presolve_fixed": fixed, "residual_n": residual_n,
            "best_energy": best_energy, "selected": selected}


def _solve_qubo(q, cfg: TrainConfig) -> tuple[SampleResult, dict]:
    """Run ``presolve``, then solve what it leaves with the configured
    backend and put the fixed bits back; no backend runs when presolve
    fixes every variable.  The solver info reports ``presolve_fixed`` and
    ``residual_n``.
    """
    pre = presolve(q)
    residual = pre.residual
    if cfg.solver_backend == "anneal":
        sub = simulated_anneal(residual, _schedule(cfg)) if residual.n else None
    elif cfg.solver_backend == "greedy":
        sub = greedy_descent(residual, seed=cfg.seed) if residual.n else None
    else:
        # Persistency keeps an optimum, so brute force on the residual
        # finds one of the whole instance.
        sub = brute_force(residual) if residual.n else None
    result = pre.complete(q, sub)
    info = _solver_info(cfg, int(pre.fixed.sum()), residual.n, float(result.best_energy),
                        int(result.best_assignment.sum()))
    return result, info


def _paper_closed_form(kernel, points, states, labels, cfg: TrainConfig):
    """α, β, the solver info and the operator M of a ``paper`` pass on a
    kernel in [0, 1] (quantum or rbf), whose QUBO is optimal at α = 1
    whatever the backend.

    β and the energy come from K y and tr K (``paper_offset_and_energy``):
    on rbf from the Gram, with M None; on the quantum kernel, in O(m 4**n)
    with no Gram, as (K y)_n = <s_n|M|s_n>, M = Σ_m y_m |s_m><s_m|, and
    K_nn = ||s_n||**4.  At α = 1 this M is the model's, bit for bit.  The
    solver info is a fully presolved instance's (``_solve_qubo``).
    """
    labels = np.asarray(labels, dtype=float)
    if states is None:
        k = kernel_gram(kernel, points)
        ky, trace, operator = k.T @ labels, np.trace(k), None
    else:
        operator = weighted_operator(states, labels)
        ky = expectations(states, operator)
        pairs = states.view(float)
        norms = np.einsum("ni,ni->n", pairs, pairs)
        trace = norms @ norms
    m = labels.size
    beta, best_energy = paper_offset_and_energy(labels, ky, trace)
    return _all_ones(m), beta, _solver_info(cfg, m, 0, best_energy, m), operator


@lru_cache(maxsize=1)
def _all_ones(m: int) -> np.ndarray:
    """α = 1 over m points, read-only: a run's passes share one array, and
    each model takes its own copy."""
    ones = np.ones(m, dtype=int)
    ones.flags.writeable = False
    return ones


def train(train_set: Dataset, val_set: Dataset, cfg: TrainConfig) -> TrainReport:
    """Run the outer training cycle and keep the best-scoring iteration.

    Each objective evaluation is one full pass: kernel matrix, QUBO,
    solve, offset, validation accuracy.  The float labels are built once
    per run, and on the quantum kernel so are the training points' θ-free
    phases E (``qkernel.data_phases``).  Each quantum pass turns E into
    the training states with ``qkernel.states_from_phases``, the routine
    ``feature_states`` calls, so they equal ``feature_states`` of the
    points bit for bit, and builds the pass's operator M once from them.
    The model takes that M, and validation is scored through
    ``accuracy(model, val_set)``, which simulates only its own circuits.
    The ``paper`` builder on the quantum kernel or rbf builds no QUBO and
    runs no backend: α = 1, and β and the best energy come in closed form
    (``_paper_closed_form``, whose M with w = y is the model's), with no
    Gram on the quantum kernel.  A ``dual`` pass takes the Gram from the
    states and builds M with w = α ⊙ y after solving.  The
    run ends after ``max_iterations`` evaluations, or at the first one
    that reaches ``target_accuracy``.  COBYLA evaluates θ only inside
    [-2*pi, 2*pi]^p, so ``best_theta`` is the θ actually used.  A kernel
    without parameters (linear) has nothing to tune, so its run is one
    pass with an empty θ and no optimizer.  An iteration that raises is
    recorded with accuracy 0 and loss 1.  The config echo records the
    ``triqsvm`` and numpy versions that trained.
    """
    if train_set.m == 0 or val_set.m == 0:
        raise ValueError("training and validation sets must be nonempty")
    if train_set.d != val_set.d:
        raise ValueError("training and validation dimensions differ")
    d = train_set.d
    # θ: one angle per qubit; for rbf, gamma on a log scale around the
    # data-driven default; nothing for linear.
    if cfg.kernel_kind == "quantum-zz":
        p, kernel_at = d, lambda theta: FeatureMapSpec(n=d, theta=theta)
    elif cfg.kernel_kind == "rbf":
        base_gamma = default_rbf_gamma(train_set.points)
        p, kernel_at = 1, lambda theta: RbfKernel(gamma=base_gamma * float(np.exp(theta[0])))
    else:
        p, kernel_at = 0, lambda theta: LinearKernel()

    start = time.perf_counter()
    x0 = initial_theta(p, cfg.seed) if p else np.empty(0)
    # What θ does not change, once per run: the training points' phases
    # E (``qkernel.data_phases``) and the labels as floats.
    phases = data_phases(train_set.points) if cfg.kernel_kind == "quantum-zz" else None
    labels = train_set.labels.astype(float)
    accuracies: list[float] = []
    failures: list[str] = []
    state = {"best_acc": -1.0, "best": None, "states_built": 0}

    def objective(theta: np.ndarray) -> float:
        iteration = len(accuracies) + 1
        try:
            kernel = kernel_at(theta)
            if isinstance(kernel, FeatureMapSpec):
                states = states_from_phases(phases, kernel)
                state["states_built"] += train_set.m
            else:
                states = None
            if cfg.qubo_builder == "paper" and isinstance(kernel, (FeatureMapSpec, RbfKernel)):
                alpha, beta, solver_info, operator = _paper_closed_form(
                    kernel, train_set.points, states, labels, cfg)
            else:
                k = (gram_from_states(states) if states is not None
                     else kernel_gram(kernel, train_set.points))
                build = build_qubo_paper if cfg.qubo_builder == "paper" else build_qubo_dual
                sample, solver_info = _solve_qubo(build(k, labels), cfg)
                alpha = sample.best_assignment
                beta = compute_beta(alpha, labels, k)
                operator = (None if states is None
                            else weighted_operator(states, alpha * labels))
            model = TrainedModel(
                alpha=alpha,
                beta=beta,
                train_points=train_set.points,
                train_labels=train_set.labels,
                kernel=kernel,
                builder=cfg.qubo_builder,
                built_operator=operator,
            )
            acc = accuracy(model, val_set)
            if states is not None:
                state["states_built"] += val_set.m
        except Exception as exc:  # noqa: BLE001 - failed iterations score 0
            failures.append(f"iteration {iteration}: {exc}")
            accuracies.append(0.0)
        else:
            accuracies.append(acc)
            if acc > state["best_acc"]:
                state["best_acc"] = acc
                state["best"] = (np.array(theta, dtype=float), model, solver_info)
            if acc >= cfg.target_accuracy:
                raise _Stop
        # The pass that spends the budget ends the run as well, so COBYLA
        # builds no model or step for a point it may not evaluate.
        if iteration == cfg.max_iterations:
            raise _Stop
        return 1.0 - accuracies[-1]

    opt = OptimizerConfig(max_evals=cfg.max_iterations)
    if p:
        cobyla_minimize(objective, x0, [(-THETA_BOUND, THETA_BOUND)] * p, opt)
    else:
        with suppress(_Stop):
            objective(x0)

    if state["best"] is None:
        raise RuntimeError(f"every training iteration failed: {failures}")
    best_theta, best_model, solver_info = state["best"]
    config_echo = {
        **_field_values(cfg),
        "schedule": _field_values(cfg.schedule) if cfg.schedule is not None else None,
        "optimizer": _field_values(opt),
        "initial_theta": [float(t) for t in x0],
        "parameter_count": p,
        "triqsvm_version": __version__,
        "numpy_version": np.__version__,
    }
    return TrainReport(
        best_theta=best_theta,
        best_model=best_model,
        best_accuracy=state["best_acc"],
        accuracy_per_iteration=accuracies,
        iterations_used=len(accuracies),
        states_built=state["states_built"],
        wall_time=time.perf_counter() - start,
        config=config_echo,
        solver=solver_info,
        failures=failures,
    )
