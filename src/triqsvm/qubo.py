"""QUBO construction from kernel matrices, the offset, and the classifier.

Two builders are shipped.  ``build_qubo_paper`` writes only off-diagonal
entries, each -1/2 * (y_n y_m + K[m][n]) * y_m y_n, leaving the diagonal
empty.  ``build_qubo_dual`` encodes the standard soft-margin dual over
binary weights, so that minimizing the energy maximizes
sum(alpha) - 1/2 (alpha y)^T K (alpha y).  On a kernel in [0, 1] the
``paper`` QUBO is optimal at alpha = 1, where ``paper_energy`` gives its
energy from K y and tr K without building it.

The trained classifier is sign(sum_m alpha_m y_m K(x_m, x) + beta) with
ties at exactly zero resolved to +1; a quantum model evaluates the sum as
<phi(x)|M|phi(x)> through one 2**n x 2**n operator M, which its trainer
hands it and which ``qkernel`` builds and scores.  beta is always
``offset(labels, f)``, with f that sum at each training point.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .datagen import Dataset
from .kernels import Kernel, kernel_cross, kernel_from_dict, kernel_to_dict
from .qkernel import (FeatureMapSpec, expectations, feature_states, fields_equal,
                      weighted_operator)

MODEL_SCHEMA_VERSION = "1"
BUILDERS = ("paper", "dual")


@dataclass(frozen=True)
class QuboMatrix:
    """Coefficient matrix q with energy E(alpha) = sum_ij q[i][j] a_i a_j
    over binary assignments."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("coefficient matrix must be finite")

    @property
    def n(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class TrainedModel:
    """Binary weights, offset, stored training data and kernel config.

    A quantum model also holds ``operator``, M = sum_m w_m |s_m><s_m| over
    its training points' feature states, with w = alpha * y, so that the
    kernel sum at a query is <phi|M|phi> (Schuld, arXiv:2101.11020).  The
    trainer passes the M it built as ``built_operator`` (complex128, shape
    (2**n, 2**n)); without it, M is built from ``train_points``.  Like
    any init-only argument, ``built_operator`` reads None on every model,
    so ``dataclasses.replace`` builds M again from the new fields.  M
    takes 16 * 4**n bytes (16 MiB at n = 10), and model files do not
    store it.  Classical kernels have no operator.
    """

    alpha: np.ndarray
    beta: float
    train_points: np.ndarray
    train_labels: np.ndarray
    kernel: Kernel
    builder: str = "paper"
    built_operator: InitVar[np.ndarray | None] = None
    operator: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    # Equal models have equal fields, the operator aside; hashing still
    # raises TypeError.
    __eq__ = fields_equal

    def __post_init__(self, built_operator):
        if self.builder not in BUILDERS:
            raise ValueError(f"builder must be one of {BUILDERS}, got {self.builder!r}")
        alpha = np.asarray(self.alpha)
        labels = np.asarray(self.train_labels)
        # A copy: the model's operator must stay that of its points.
        points = np.array(self.train_points, dtype=float, ndmin=2)
        m = points.shape[0]
        # Elementwise comparisons, not np.isin: a model is built on every
        # training iteration, and np.isin costs 30 us a call.
        if alpha.shape != (m,) or not _all((alpha == 0) | (alpha == 1)):
            raise ValueError("alpha must hold one 0 or 1 per training point")
        if labels.shape != (m,) or not _all((labels == -1) | (labels == 1)):
            raise ValueError("train_labels must hold one -1 or +1 per training point")
        if not _all(np.isfinite(points)):
            raise ValueError("train_points must be finite")
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if isinstance(self.kernel, FeatureMapSpec):
            if built_operator is None:
                states = feature_states(points, self.kernel)
                built_operator = weighted_operator(states, alpha * labels)
            else:
                built_operator = np.asarray(built_operator)
                shape = (2**self.kernel.n,) * 2
                if built_operator.dtype != np.complex128 or built_operator.shape != shape:
                    raise ValueError(
                        f"the operator must be a complex128 array of shape {shape}, "
                        f"got {built_operator.dtype} {built_operator.shape}"
                    )
            object.__setattr__(self, "operator", built_operator)
        elif built_operator is not None:
            raise ValueError("only a quantum kernel has an operator")
        object.__setattr__(self, "alpha", alpha.astype(int))
        object.__setattr__(self, "train_points", points)
        object.__setattr__(self, "train_labels", labels.astype(int))


def _all(mask: np.ndarray) -> bool:
    """``mask.all()`` for a boolean array, as a count: at m = 200,
    ``np.count_nonzero`` takes 0.3 us where ``all``'s Python wrapper
    takes 0.95 us."""
    return np.count_nonzero(mask) == mask.size


def _check_sizes(k: np.ndarray, labels: np.ndarray) -> None:
    if k.shape[0] != k.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {k.shape}")
    if labels.shape != (k.shape[0],):
        raise ValueError(
            f"label count {labels.shape} does not match kernel size {k.shape[0]}"
        )


def build_qubo_paper(k, labels) -> QuboMatrix:
    """Pairwise QUBO: q[m][n] = -1/2 (y_n y_m + K[m][n]) y_m y_n for m != n.

    The diagonal is zero.  Each entry is evaluated as
    ((-0.5 * (y_n y_m + K[m][n])) * y_m) * y_n; that order is part of the
    contract (worked examples assert exact floats).
    """
    k = np.asarray(k, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _check_sizes(k, labels)
    y_m = labels[:, None]
    y_n = labels[None, :]
    # The contract's order of operations, in place on one n x n array.
    q = y_n * y_m
    q += k
    q *= -0.5
    q *= y_m
    q *= y_n
    np.fill_diagonal(q, 0.0)
    return QuboMatrix(q)


def build_qubo_dual(k, labels) -> QuboMatrix:
    """Standard dual objective as a QUBO over binary weights.

    Off-diagonal entries are y_m y_n K[m][n] / 2; the diagonal carries
    K[n][n]/2 - 1 (the linear -sum(alpha) term).
    """
    k = np.asarray(k, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _check_sizes(k, labels)
    q = 0.5 * np.outer(labels, labels) * k
    np.fill_diagonal(q, 0.5 * np.diag(k) - 1.0)
    return QuboMatrix(q)


def offset(labels, f) -> float:
    """beta = mean_n(y_n - f_n), f_n being sum_m alpha_m y_m K(x_m, x_n)
    over all m, m = n included; the sum ``np.mean`` takes, bit for bit,
    without its Python wrapper."""
    labels = np.asarray(labels, dtype=float)
    return float((labels - f).sum() / labels.size)


def compute_beta(alpha, labels, k) -> float:
    """``offset`` with f = K^T (alpha * y) from a kernel matrix."""
    k = np.asarray(k, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    labels = np.asarray(labels, dtype=float)
    _check_sizes(k, labels)
    if alpha.shape != labels.shape:
        raise ValueError(f"alpha shape {alpha.shape} does not match labels {labels.shape}")
    return offset(labels, k.T @ (alpha * labels))


def paper_energy(labels, f, trace) -> float:
    """Energy of the ``paper`` QUBO at its optimum alpha = 1, from f = K y
    and tr K alone: for K in [0, 1] every coupling -1/2 (1 + y_m y_n K_mn)
    of ``build_qubo_paper`` is <= 0, so all ones is a global minimum, of
    energy -1/2 (m (m - 1) + y^T f - tr K).  No QUBO is built;
    ``labels @ f`` raises ValueError unless f has one entry per label."""
    labels = np.asarray(labels, dtype=float)
    m = labels.size
    return float(-0.5 * (m * (m - 1) + labels @ f - trace))


def decision_values(xs, model: TrainedModel) -> np.ndarray:
    """Decision function for a batch of query points.  A quantum model
    scores Re <phi|M|phi> + beta from the queries' states alone."""
    if model.operator is None:
        cross = kernel_cross(model.kernel, model.train_points, xs)
        return (model.alpha * model.train_labels) @ cross + model.beta
    return expectations(feature_states(xs, model.kernel), model.operator) + model.beta


def accuracy(model: TrainedModel, ds: Dataset) -> float:
    """Fraction of dataset points classified to their stored label."""
    if ds.m == 0:
        raise ValueError("cannot score an empty dataset")
    # The labels are -1 or +1 and a decision value of 0 classifies as +1,
    # so a point is right where dv >= 0 and label == 1 agree.
    right = (decision_values(ds.points, model) >= 0.0) == (ds.labels == 1)
    return int(np.count_nonzero(right)) / ds.m


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "alpha": [int(a) for a in model.alpha],
        "beta": model.beta,
        "train_points": [[float(v) for v in row] for row in model.train_points],
        "train_labels": [int(v) for v in model.train_labels],
        "kernel": kernel_to_dict(model.kernel),
        "builder": model.builder,
    }


def model_from_dict(data: dict) -> TrainedModel:
    try:
        if (version := data.get("schema_version")) != MODEL_SCHEMA_VERSION:
            raise ValueError(f"schema_version must be {MODEL_SCHEMA_VERSION!r}, got {version!r}")
        return TrainedModel(
            alpha=np.asarray(data["alpha"]),
            beta=float(data["beta"]),
            train_points=np.asarray(data["train_points"], dtype=float),
            train_labels=np.asarray(data["train_labels"]),
            kernel=kernel_from_dict(data["kernel"]),
            builder=data.get("builder", "paper"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid model data: {exc}") from exc


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path) -> TrainedModel:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"no such file: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return model_from_dict(data)
