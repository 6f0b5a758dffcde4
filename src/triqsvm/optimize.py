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
``train`` runs the outer cycle as one pass loop over COBYLA's point
generator (``_cobyla_points``): each pass takes θ from it, finds the
binary weights α, the offset and the validation accuracy, and sends
1 - accuracy back, until the cap, the target or COBYLA's own stop ends
the run.  The passes that end it send nothing, so COBYLA builds no model
or step for a point it may not evaluate.  α solves the QUBO of the
kernel matrix with the backend ``train`` settles once (``_backend``), or
is the known optimum 1 for the ``paper`` builder on a kernel in [0, 1]
(quantum or rbf).  Then w = α ⊙ y, f = K^T w at the training points and
β = ``offset(y, f)``, on every pass; on the quantum kernel f = <s|M|s>
through the model's operator M = Σ_m w_m |s_m><s_m|.  θ enters the
quantum kernel only through one detuning row shared by every point, so
``train`` builds the training points' θ-free phases once per run, and
each pass turns them into states (``qkernel.states_from_phases``).  The
reported model is the iteration with the highest validation accuracy
(earliest on ties).
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, field, fields
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
                      gram_from_states, integer_field, states_from_phases,
                      weighted_operator)
from .qubo import (
    BUILDERS,
    TrainedModel,
    accuracy,
    build_qubo_dual,
    build_qubo_paper,
    # Unused: kept for the benchmark's tracer, which wraps this name here.
    compute_beta,  # noqa: F401
    model_to_dict,
    offset,
    paper_energy,
)

BACKENDS = ("anneal", "exact", "greedy")
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
        integer_field(self, "max_evals", 1)


@dataclass(frozen=True)
class MinimizeResult:
    """Best point evaluated, its value, and the number of objective
    evaluations (never more than ``max_evals``).  ``converged`` is True when
    the trust region reached ``rho_end``."""

    x: np.ndarray
    fun: float
    evaluations: int
    converged: bool


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
    budget, or whose simplex turned singular, reports ``converged=False``.
    The result is the best point evaluated (the earliest on ties), or
    ``x0`` with ``fun`` = inf when no evaluation returned a value below
    inf.  It sends every value to ``_cobyla_points``, the budget's last
    too; ``train`` drives that generator in its own pass loop instead.
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
        integer_field(self, "max_iterations", 1)
        integer_field(self, "seed", 0)
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


def _backend(cfg: TrainConfig) -> tuple[Callable, dict]:
    """The run's QUBO backend: a solver of what ``presolve`` leaves, and
    the fields it adds to each pass's solver record.  ``schedule=None``
    anneals with ``AnnealSchedule(seed=seed)``.  Each solver is looked up
    in this module when a pass calls it."""
    if cfg.solver_backend == "anneal":
        schedule = cfg.schedule if cfg.schedule is not None else AnnealSchedule(seed=cfg.seed)
        return (lambda q: simulated_anneal(q, schedule),
                {"backend": "anneal", **_field_values(schedule)})
    if cfg.solver_backend == "greedy":
        return lambda q: greedy_descent(q, seed=cfg.seed), {"backend": "greedy", "seed": cfg.seed}
    # Persistency keeps an optimum, so brute force on the residual finds
    # one of the whole instance.
    return lambda q: brute_force(q), {"backend": "exact", "global_optimum": True}


def _solve_qubo(q, solve: Callable) -> tuple[SampleResult, int, int]:
    """Run ``presolve``, solve what it leaves with ``solve`` and put the
    fixed bits back; ``solve`` does not run when presolve fixes every
    variable.  Returns the result, the count of fixed variables and the
    size of the residual."""
    pre = presolve(q)
    residual = pre.residual
    result = pre.complete(q, solve(residual) if residual.n else None)
    return result, int(pre.fixed.sum()), residual.n


def _paper_closed_form(labels, f, k, states) -> float:
    """The energy of a ``paper`` pass at α = 1 on a kernel in [0, 1]
    (quantum or rbf), where its QUBO is optimal: ``paper_energy`` of
    f = K y and tr K, from the Gram on rbf and as Σ_n ||s_n||**4 on
    quantum."""
    if states is None:
        trace = np.trace(k)
    else:
        pairs = states.view(float)
        norms = np.einsum("ni,ni->n", pairs, pairs)
        trace = norms @ norms
    return paper_energy(labels, f, trace)


def train(train_set: Dataset, val_set: Dataset, cfg: TrainConfig) -> TrainReport:
    """Run the outer training cycle and keep the best-scoring iteration.

    Each iteration is one full pass: α, offset, validation accuracy.  The
    pass loop drives COBYLA's point generator (``_cobyla_points``): θ is
    its first point, then the point it answers each pass's loss
    1 - accuracy with.  The float labels, α = 1 and, on the quantum
    kernel, the training points' θ-free phases E (``qkernel.data_phases``)
    are built once per run.  Each quantum pass turns E into the training
    states with ``qkernel.states_from_phases``, the routine
    ``feature_states`` calls, so they equal ``feature_states`` of the
    points bit for bit.  The ``paper`` builder on the quantum kernel or
    rbf takes α = 1 with no QUBO or backend (``_paper_closed_form``);
    other passes solve the QUBO of the Gram with the backend settled once
    per run (``_backend``).  A pass's solver record is that backend's
    fields, then ``presolve_fixed``, ``residual_n``, ``best_energy`` and
    ``selected`` (m, 0, ``paper_energy`` and m in closed form).  Every
    pass then takes w = α ⊙ y, f = K^T w at the training points and
    β = ``offset(y, f)``; on the quantum kernel, f is
    ``qkernel.expectations``, the routine that scores, of the operator M
    built once from w, which the model takes.
    Validation is scored through ``accuracy(model, val_set)``, which
    simulates only its own circuits.
    The run ends after ``max_iterations`` passes, at the first one that
    reaches ``target_accuracy``, or when COBYLA stops; neither of the
    first two sends its loss, so COBYLA builds no model or step for a
    point it may not evaluate.  COBYLA evaluates θ only inside
    [-2*pi, 2*pi]^p, so ``best_theta`` is the θ actually used.  A kernel
    without parameters (linear) has nothing to tune, so its run is one
    pass with an empty θ, and the generator never starts.  An iteration
    that raises is recorded with accuracy 0 and loss 1, and never meets
    the target.  The config echo records the ``triqsvm`` and numpy
    versions that trained.
    """
    if train_set.m == 0 or val_set.m == 0:
        raise ValueError("training and validation sets must be nonempty")
    if train_set.d != val_set.d:
        raise ValueError("training and validation dimensions differ")
    d = train_set.d
    # θ: one angle per qubit; for rbf, gamma on a log scale around the
    # data-driven default; nothing for linear.
    quantum = cfg.kernel_kind == "quantum-zz"
    if quantum:
        p, kernel_at = d, lambda theta: FeatureMapSpec(n=d, theta=theta)
    elif cfg.kernel_kind == "rbf":
        base_gamma = default_rbf_gamma(train_set.points)
        p, kernel_at = 1, lambda theta: RbfKernel(gamma=base_gamma * float(np.exp(theta[0])))
    else:
        p, kernel_at = 0, lambda theta: LinearKernel()
    # On a kernel in [0, 1] the paper QUBO is optimal at α = 1.
    closed = cfg.qubo_builder == "paper" and cfg.kernel_kind != "linear"
    build = build_qubo_paper if cfg.qubo_builder == "paper" else build_qubo_dual
    solve, backend = _backend(cfg)

    start = time.perf_counter()
    x0 = initial_theta(p, cfg.seed) if p else np.empty(0)
    phases = data_phases(train_set.points) if quantum else None
    labels = train_set.labels.astype(float)
    # Every closed-form model shares this α, and each takes its own copy.
    ones = np.ones(train_set.m, dtype=int)
    ones.flags.writeable = False
    opt = OptimizerConfig(max_evals=cfg.max_iterations)
    bound = np.full(p, THETA_BOUND)
    points = _cobyla_points(x0.copy(), -bound, bound, opt.rho_begin, opt.rho_end)
    theta = next(points) if p else x0
    budget = cfg.max_iterations if p else 1
    accuracies: list[float] = []
    failures: list[str] = []
    best_acc, best, states_built = -1.0, None, 0
    for iteration in range(1, budget + 1):
        try:
            kernel = kernel_at(theta)
            if quantum:
                states = states_from_phases(phases, kernel)
                states_built += train_set.m
                k = None if closed else gram_from_states(states)
            else:
                states, k = None, kernel_gram(kernel, train_set.points)
            if closed:
                alpha, fixed, residual_n = ones, train_set.m, 0
            else:
                sample, fixed, residual_n = _solve_qubo(build(k, labels), solve)
                alpha = sample.best_assignment
            weights = alpha * labels
            operator = weighted_operator(states, weights) if quantum else None
            f = expectations(states, operator) if quantum else k.T @ weights
            energy = (_paper_closed_form(labels, f, k, states) if closed
                      else float(sample.best_energy))
            solver_info = {**backend, "presolve_fixed": fixed, "residual_n": residual_n,
                           "best_energy": energy, "selected": int(alpha.sum())}
            model = TrainedModel(
                alpha=alpha,
                beta=offset(labels, f),
                train_points=train_set.points,
                train_labels=train_set.labels,
                kernel=kernel,
                builder=cfg.qubo_builder,
                built_operator=operator,
            )
            acc = accuracy(model, val_set)
        except Exception as exc:  # noqa: BLE001 - failed iterations score 0
            failures.append(f"iteration {iteration}: {exc}")
            accuracies.append(0.0)
        else:
            if quantum:
                states_built += val_set.m
            accuracies.append(acc)
            if acc > best_acc:
                best_acc, best = acc, (theta.copy(), model, solver_info)
            if acc >= cfg.target_accuracy:
                break
        if iteration == budget:
            break
        try:
            theta = points.send(1.0 - accuracies[-1])
        except StopIteration:
            break

    if best is None:
        raise RuntimeError(f"every training iteration failed: {failures}")
    best_theta, best_model, solver_info = best
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
        best_accuracy=best_acc,
        accuracy_per_iteration=accuracies,
        iterations_used=len(accuracies),
        states_built=states_built,
        wall_time=time.perf_counter() - start,
        config=config_echo,
        solver=solver_info,
        failures=failures,
    )
