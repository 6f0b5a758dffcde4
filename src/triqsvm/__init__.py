"""Hybrid support vector classification across three computing styles.

A simulated gate-based quantum kernel, an annealing-style QUBO solver and
a classical derivative-free optimizer, composed into one training cycle.
"""

from .anneal import AnnealSchedule, SampleResult, brute_force, energy, greedy_descent, simulated_anneal
from .datagen import (
    Dataset,
    SplitSpec,
    adhoc_generate,
    haar_unitary,
    load_csv,
    read_dataset_csv,
    rescale,
    split,
    write_dataset_csv,
)
from .kernels import LinearKernel, RbfKernel, default_rbf_gamma
from .optimize import (
    MinimizeResult,
    OptimizerConfig,
    TrainConfig,
    TrainReport,
    cobyla_minimize,
    initial_theta,
    train,
)
from .qkernel import (FeatureMapSpec, cross_from_states, expectation_zz, feature_states,
                      gram_from_states)
from .qubo import (
    QuboMatrix,
    TrainedModel,
    accuracy,
    build_qubo_dual,
    build_qubo_paper,
    compute_beta,
    load_model,
    save_model,
)

__version__ = "0.1.0"
