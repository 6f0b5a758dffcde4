"""Kernel descriptors, classical kernel matrices and model-file round trips.

A kernel is either a :class:`~triqsvm.qkernel.FeatureMapSpec` (the quantum
kernel) or one of the classical descriptors below.  ``kernel_cross`` and
``kernel_gram`` evaluate the classical kernels only: the quantum kernel's
Gram comes from feature states (``qkernel.gram_from_states``), and a
trained quantum model scores through the operator it builds from them
(``qubo.TrainedModel``).  The JSON round trip covers all three kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qkernel import FeatureMapSpec


@dataclass(frozen=True)
class RbfKernel:
    """K(x, z) = exp(-gamma * ||x - z||^2)."""

    gamma: float = 1.0

    def __post_init__(self):
        # An infinite gamma makes exp(-gamma * 0) NaN at the training
        # points; written so that NaN fails the check too.
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and positive")


@dataclass(frozen=True)
class LinearKernel:
    """K(x, z) = <x, z>."""


Kernel = FeatureMapSpec | RbfKernel | LinearKernel


def default_rbf_gamma(points) -> float:
    """1 / (2 d var), with var the pooled variance of all feature entries."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    var = float(points.var())
    if var == 0.0:
        return 1.0
    return 1.0 / (2.0 * points.shape[1] * var)


def kernel_cross(kernel: RbfKernel | LinearKernel, points, queries) -> np.ndarray:
    """Matrix of classical kernel values, shape (len(points), len(queries))."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if points.shape[1] != queries.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {points.shape[1]}-dimensional, "
            f"queries {queries.shape[1]}-dimensional"
        )
    if isinstance(kernel, RbfKernel):
        # ||x - z||**2 one coordinate at a time into one (m, q) array, with
        # no (m, q, d) temporary.  Below 8 coordinates this adds in the
        # order of ``sum(axis=-1)`` over the differences, bit for bit; from
        # 8 on, that sum adds pairwise and rounds differently.
        d2 = np.subtract.outer(points[:, 0], queries[:, 0])
        d2 *= d2
        for c in range(1, points.shape[1]):
            diff = np.subtract.outer(points[:, c], queries[:, c])
            diff *= diff
            d2 += diff
        d2 *= -kernel.gamma
        return np.exp(d2, out=d2)
    if isinstance(kernel, LinearKernel):
        return points @ queries.T
    raise TypeError(f"unsupported kernel {kernel!r}")


def kernel_gram(kernel: RbfKernel | LinearKernel, points) -> np.ndarray:
    """Symmetric classical kernel matrix over one point set."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = kernel_cross(kernel, points, points)
    # Mirror the upper triangle so the matrix is exactly symmetric.
    return np.triu(k) + np.triu(k, 1).T


def kernel_to_dict(kernel: Kernel) -> dict:
    if isinstance(kernel, FeatureMapSpec):
        return {
            "kind": "quantum-zz",
            "n": kernel.n,
            "reps": 2,
            "theta": [float(t) for t in kernel.theta],
            "data_map": "zz-detune",
        }
    if isinstance(kernel, RbfKernel):
        return {"kind": "rbf", "gamma": kernel.gamma}
    if isinstance(kernel, LinearKernel):
        return {"kind": "linear"}
    raise TypeError(f"unsupported kernel {kernel!r}")


def kernel_from_dict(data: dict) -> Kernel:
    if not isinstance(data, dict):
        raise ValueError(f"kernel must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "quantum-zz":
        # The only circuit this package simulates: two repetitions of the
        # zz-detune data map.  Model files naming any other are rejected,
        # and so are non-integer counts: "reps": 2.0 or "n": "2".
        if not isinstance(reps := data.get("reps", 2), int) or reps != 2:
            raise ValueError(f"reps must be 2 (the feature block is applied twice), got {reps!r}")
        if data.get("data_map", "zz-detune") != "zz-detune":
            raise ValueError(f"unknown data map {data['data_map']!r}")
        return FeatureMapSpec(n=data["n"], theta=np.asarray(data["theta"], dtype=float))
    if kind == "rbf":
        return RbfKernel(gamma=float(data["gamma"]))
    if kind == "linear":
        return LinearKernel()
    raise ValueError(f"unknown kernel kind {kind!r}")
