"""Certified Wasserstein-distance error bounds for aggregated Markov chains.

The package computes exact Wasserstein-1 distances on finite metric spaces,
coarse Ricci curvature of continuous- and discrete-time Markov chains, and
certified bounds on the error introduced by aggregating a chain onto a
smaller state space.
"""

from __future__ import annotations

from .aggregation import (
    Aggregation,
    Partition,
    aggregate_initial,
    disaggregate,
    epsilon_partition,
    partition_aggregation_ctmc,
    partition_aggregation_dtmc,
)
from .bounds import (
    BoundCurve,
    BoundInputs,
    bound_exponential,
    bound_hybrid,
    bound_linear_K,
    bound_linear_K_timevarying,
    compute_bound_curve,
    defect,
    dtmc_bound_sequence,
    exact_error_curve,
    prepare_bound_inputs,
    time_grid,
)
from .curvature import (
    CurvatureReport,
    KappaMinStrategy,
    curvature_report,
    k_matrix,
    kappa,
    kappa_all_pairs,
    kappa_min,
)
from .errors import (
    AsymmetricMatrix,
    BadAlpha,
    DimensionMismatch,
    DisconnectedGraph,
    DuplicatePosition,
    EmptyProduct,
    EmptySupport,
    IndexOutOfRange,
    NegativeDistance,
    NegativeTime,
    NonzeroDiagonal,
    NumericalFailure,
    RateUnavailable,
    RowSumNotZero,
    SamePair,
    SingleState,
    TriangleViolation,
    WdboundsError,
    ZeroOffDiagonal,
)
from .lp import LpSolution, solve
from .markov import (
    Generator,
    ProbVec,
    TransitionMatrix,
    dirac,
    occupation_ctmc,
    transient_ctmc,
    transient_dtmc,
    uniformize,
)
from .metric import (
    Metric,
    discrete_metric,
    line_metric,
    product_metric,
    shortest_path_metric,
    validate_metric,
)
from .models import Box, JumpDistribution, random_instance, toy_ctmc, translation_invariant_ctmc
from .transport import (
    Coupling,
    Potential,
    SignedRow,
    WassersteinResult,
    row_wasserstein_vector,
    wasserstein,
    wasserstein_signed,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # metric
    "Metric",
    "validate_metric",
    "discrete_metric",
    "line_metric",
    "shortest_path_metric",
    "product_metric",
    # markov
    "ProbVec",
    "Generator",
    "TransitionMatrix",
    "dirac",
    "uniformize",
    "transient_ctmc",
    "occupation_ctmc",
    "transient_dtmc",
    # lp
    "LpSolution",
    "solve",
    # transport
    "Coupling",
    "Potential",
    "SignedRow",
    "WassersteinResult",
    "wasserstein",
    "wasserstein_signed",
    "row_wasserstein_vector",
    # curvature
    "kappa",
    "k_matrix",
    "kappa_min",
    "kappa_all_pairs",
    "KappaMinStrategy",
    "CurvatureReport",
    "curvature_report",
    # aggregation
    "Partition",
    "Aggregation",
    "partition_aggregation_ctmc",
    "partition_aggregation_dtmc",
    "aggregate_initial",
    "disaggregate",
    "epsilon_partition",
    # bounds
    "BoundInputs",
    "BoundCurve",
    "defect",
    "prepare_bound_inputs",
    "bound_linear_K",
    "bound_linear_K_timevarying",
    "bound_exponential",
    "bound_hybrid",
    "exact_error_curve",
    "dtmc_bound_sequence",
    "time_grid",
    "compute_bound_curve",
    # models
    "Box",
    "JumpDistribution",
    "toy_ctmc",
    "translation_invariant_ctmc",
    "random_instance",
    # errors
    "WdboundsError",
    "AsymmetricMatrix",
    "NegativeDistance",
    "NonzeroDiagonal",
    "ZeroOffDiagonal",
    "TriangleViolation",
    "DuplicatePosition",
    "DisconnectedGraph",
    "EmptyProduct",
    "DimensionMismatch",
    "NegativeTime",
    "IndexOutOfRange",
    "NumericalFailure",
    "RowSumNotZero",
    "SamePair",
    "SingleState",
    "BadAlpha",
    "RateUnavailable",
    "EmptySupport",
]
