"""Derivative-free training of the kernel parameters.

``cobyla_minimize`` wraps the linear-approximation trust-region method
(COBYLA) behind an interface that evaluates only inside the box, stops at
the evaluation budget, and returns the best point evaluated.  ``train``
runs the outer cycle: build the kernel matrix for the current parameters,
build and solve the QUBO, compute the offset, score the validation set,
and feed 1 - accuracy back to the optimizer, until the iteration cap or
the target accuracy ends the run.  The reported model is the iteration
with the highest validation accuracy (earliest on ties).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

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
from .qkernel import FeatureMapSpec, feature_states, gram_from_states
from .qubo import (
    TrainedModel,
    accuracy,
    build_qubo_dual,
    build_qubo_paper,
    compute_beta,
    model_to_dict,
)

BACKENDS = ("anneal", "exact", "greedy")
BUILDERS = ("paper", "dual")
KERNEL_KINDS = ("quantum-zz", "rbf", "linear")

THETA_BOUND = 2.0 * np.pi


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
    the solver reported success (the trust region reached ``rho_end``)."""

    x: np.ndarray
    fun: float
    evaluations: int
    converged: bool


class _Stop(Exception):
    """Ends a ``cobyla_minimize`` run: raised once the evaluation budget is
    spent, and by ``train``'s objective once the target accuracy is met."""


def cobyla_minimize(objective: Callable, x0, bounds, config: OptimizerConfig) -> MinimizeResult:
    """Minimize a black-box function over a box via COBYLA.

    ``bounds`` is a sequence of (low, high) per coordinate, given to COBYLA
    as its ``bounds``.  Any trial point outside the box is projected onto
    it, so the objective only ever sees points inside it.
    ``max_evals`` is a hard cap on objective calls, also below the p + 2
    that PRIMA-based COBYLA needs for its initial simplex: the request
    after the last one allowed ends the run.  A run that ends on the budget,
    or because the objective raised ``_Stop``, reports ``converged=False``
    and returns the best point evaluated so far (``x0`` with ``fun`` = inf
    when no evaluation returned a value below inf).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("x0 must be a nonempty vector")
    lows = np.array([b[0] for b in bounds], dtype=float)
    highs = np.array([b[1] for b in bounds], dtype=float)
    if lows.shape != x0.shape or highs.shape != x0.shape:
        raise ValueError("one (low, high) pair per coordinate is required")
    if np.any(x0 < lows) or np.any(x0 > highs):
        raise ValueError("x0 must lie within bounds")

    best = {"x": x0.copy(), "fun": np.inf}
    evaluations = 0

    def wrapped(x):
        nonlocal evaluations
        if evaluations == config.max_evals:
            raise _Stop
        evaluations += 1
        x = np.clip(x, lows, highs)
        value = float(objective(x))
        if value < best["fun"]:
            best["x"], best["fun"] = x, value
        return value

    try:
        result = _scipy_minimize(
            wrapped,
            x0,
            method="COBYLA",
            bounds=list(zip(lows, highs)),
            options={
                "rhobeg": config.rho_begin,
                "tol": config.rho_end,
                # PRIMA raises a smaller budget to p + 2 with a warning;
                # ``wrapped`` keeps ``max_evals`` hard.
                "maxiter": max(config.max_evals, x0.size + 2),
            },
        )
        # PRIMA reports ``success`` on SMALL_TR_RADIUS or FTARGET_ACHIEVED.
        converged = bool(result.success)
    except _Stop:
        converged = False
    return MinimizeResult(
        x=best["x"], fun=best["fun"], evaluations=evaluations, converged=converged
    )


def initial_theta(p: int, seed: int) -> np.ndarray:
    """Uniform starting parameters in [-2*pi, 2*pi]^p."""
    if p < 1:
        raise ValueError("parameter count must be >= 1")
    return np.random.default_rng(seed).uniform(-THETA_BOUND, THETA_BOUND, p)


@dataclass(frozen=True)
class TrainConfig:
    """Outer-loop settings: iteration cap, early-stop threshold, solver
    backend, QUBO builder, kernel kind and the master seed."""

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


def _solve_qubo(q, cfg: TrainConfig) -> tuple[SampleResult, dict]:
    """Solve the QUBO with the configured backend.

    ``exact`` enumerates the whole instance.  ``anneal`` and ``greedy``
    first run ``presolve``: when it fixes every variable (as on any
    ``paper`` instance with kernel values in [0, 1]) no sampler runs; when
    it fixes none the backend gets ``q`` itself; otherwise the backend
    solves the residual and the fixed bits are put back.  Their solver
    info reports ``presolve_fixed`` and ``residual_n``.
    """
    if cfg.solver_backend == "exact":
        result = brute_force(q)
        info = {"backend": "exact", "global_optimum": True}
    else:
        pre = presolve(q)
        residual = pre.residual
        if cfg.solver_backend == "anneal":
            schedule = cfg.schedule if cfg.schedule is not None else AnnealSchedule(seed=cfg.seed)
            sub = simulated_anneal(residual, schedule) if residual.n else None
            info = {"backend": "anneal", **_field_values(schedule)}
        else:
            sub = greedy_descent(residual, seed=cfg.seed) if residual.n else None
            info = {"backend": "greedy", "seed": cfg.seed}
        result = pre.complete(q, sub)
        info["presolve_fixed"] = int(pre.fixed.sum())
        info["residual_n"] = residual.n
    info["best_energy"] = float(result.best_energy)
    info["selected"] = int(result.best_assignment.sum())
    return result, info


def _kernel_for(cfg: TrainConfig, theta: np.ndarray, d: int, base_gamma: float):
    if cfg.kernel_kind == "quantum-zz":
        return FeatureMapSpec(n=d, theta=theta)
    if cfg.kernel_kind == "rbf":
        # theta[0] tunes gamma on a log scale around the data-driven default.
        return RbfKernel(gamma=base_gamma * float(np.exp(theta[0])))
    return LinearKernel()


def train(train_set: Dataset, val_set: Dataset, cfg: TrainConfig) -> TrainReport:
    """Run the outer training cycle and keep the best-scoring iteration.

    Each objective evaluation is one full pass: kernel matrix, QUBO,
    solve, offset, validation accuracy.  On the quantum kernel the
    training points' feature states are built once per pass: the Gram
    comes from them and the pass's model keeps them, so scoring the
    validation set simulates only its own circuits.  The run ends after
    ``max_iterations`` evaluations, or at the first one that reaches
    ``target_accuracy``.  COBYLA's trial θ is projected onto
    [-2*pi, 2*pi]^p before it is evaluated, so ``best_theta`` is the θ
    actually used.  An iteration that raises is recorded with accuracy 0
    and loss 1.
    """
    if train_set.m == 0 or val_set.m == 0:
        raise ValueError("training and validation sets must be nonempty")
    if train_set.d != val_set.d:
        raise ValueError("training and validation dimensions differ")
    d = train_set.d
    p = d if cfg.kernel_kind == "quantum-zz" else 1
    base_gamma = default_rbf_gamma(train_set.points) if cfg.kernel_kind == "rbf" else 1.0

    start = time.perf_counter()
    x0 = initial_theta(p, cfg.seed)
    accuracies: list[float] = []
    failures: list[str] = []
    state = {"best_acc": -1.0, "best": None, "states_built": 0}

    def objective(theta: np.ndarray) -> float:
        iteration = len(accuracies) + 1
        try:
            kernel = _kernel_for(cfg, theta, d, base_gamma)
            if isinstance(kernel, FeatureMapSpec):
                states = feature_states(train_set.points, kernel)
                state["states_built"] += train_set.m
                k = gram_from_states(states)
            else:
                states = None
                k = kernel_gram(kernel, train_set.points)
            if cfg.qubo_builder == "paper":
                q = build_qubo_paper(k, train_set.labels)
            else:
                q = build_qubo_dual(k, train_set.labels)
            sample, solver_info = _solve_qubo(q, cfg)
            beta = compute_beta(sample.best_assignment, train_set.labels, k)
            model = TrainedModel(
                alpha=sample.best_assignment,
                beta=beta,
                train_points=train_set.points,
                train_labels=train_set.labels,
                kernel=kernel,
                builder=cfg.qubo_builder,
                states=states,
            )
            acc = accuracy(model, val_set)
            if states is not None:
                state["states_built"] += val_set.m
        except Exception as exc:  # noqa: BLE001 - failed iterations score 0
            failures.append(f"iteration {iteration}: {exc}")
            accuracies.append(0.0)
            return 1.0
        accuracies.append(acc)
        if acc > state["best_acc"]:
            state["best_acc"] = acc
            state["best"] = (np.array(theta, dtype=float), model, solver_info)
        if acc >= cfg.target_accuracy:
            raise _Stop
        return 1.0 - acc

    opt = OptimizerConfig(max_evals=cfg.max_iterations)
    cobyla_minimize(objective, x0, [(-THETA_BOUND, THETA_BOUND)] * p, opt)

    if state["best"] is None:
        raise RuntimeError(f"every training iteration failed: {failures}")
    best_theta, best_model, solver_info = state["best"]
    config_echo = {
        **_field_values(cfg),
        "schedule": _field_values(cfg.schedule) if cfg.schedule is not None else None,
        "optimizer": _field_values(opt),
        "initial_theta": [float(t) for t in x0],
        "parameter_count": p,
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
