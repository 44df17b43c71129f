"""Finite DPPs as extended L-ensembles, with flat-limit constructions."""

from .geometry import PointSet, distance_matrix, distance_power_matrix, grid_points, uniform_points
from .kernels import (
    BUILTIN_NAMES,
    StationaryKernel,
    builtin_kernel,
    custom_kernel,
    kernel_matrix,
    smoothness_order,
)
from .polybasis import (
    count_homogeneous,
    count_poly,
    magic_numbers,
    orthonormal_basis,
    vandermonde,
    vandermonde_block,
)
from .wronskian import schur_block, wronskian_matrix
from .ensembles import (
    CPDViolationError,
    NNP,
    RankDeficientError,
    SubsetDistribution,
    fixed_size_log_prob,
    log_normalizer,
    log_prob,
    log_unnorm_prob,
    make_factored_nnp,
    make_nnp,
    marginal_kernel,
    nnp_from_dict,
    nnp_to_dict,
    size_distribution,
)
from .sampling import rng_from_seed, sample, sample_fixed, sample_projection
from .flatlimit import (
    FlatLimitResult,
    classify_fixed,
    default_ensemble,
    fixed_size_limit,
    limit_size_distribution,
    scaled_ensemble,
    varying_size_limit,
)
from .diagnostics import (
    ConvergenceCurve,
    brute_force_distribution,
    conditional_density,
    convergence_curve,
    empirical_check,
    eps_ensemble_distribution,
    inclusion_probabilities,
    tv_distance,
)

__version__ = "0.1.0"
