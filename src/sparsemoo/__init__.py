"""Cardinality-constrained multi-objective optimization.

Stationarity tests, single-point hard-thresholding and penalty
decomposition solvers, a per-support front steepest descent, benchmark
problem generators and front-quality metrics, plus a CLI (``sparsemoo``).
"""

from .core import (
    CapacityError,
    MultiObjectiveProblem,
    SupportSet,
    ZERO_TOL,
    dominates,
    filter_nondominated,
    is_feasible,
    l0_norm,
    project_sparse,
    super_supports,
    support,
)
from .directions import (
    is_L_stationary,
    is_pareto_stationary,
    theta_L,
    theta_feasible,
    theta_subspace,
)
from .metrics import (
    ProfileCurve,
    build_reference_front,
    delta_spread,
    gamma_spread,
    hypervolume_2d,
    performance_profiles,
    purity,
    rescale_logistic_objectives,
)
from .problems import (
    DataError,
    QuadraticInstance,
    example_biobjective,
    generate_quadratic,
    load_dataset,
    load_instance,
    logistic_problem,
    save_instance,
)
from .sfsd import (
    ArchiveEntry,
    ParetoArchive,
    assign_super_support,
    crowding_distance,
    initialize,
    sfsd_run,
)
from .simplex_qp import DirectionSolution, solve_simplex_qp
from .solvers import (
    SolverConfig,
    SolverTrace,
    armijo_common,
    default_config,
    default_lambda_grid,
    mohyb,
    moiht,
    mosd,
    mospd,
    scalarize,
    scalarized_iht,
)

__version__ = "0.1.0"

__all__ = [
    "ArchiveEntry",
    "CapacityError",
    "DataError",
    "DirectionSolution",
    "MultiObjectiveProblem",
    "ParetoArchive",
    "ProfileCurve",
    "QuadraticInstance",
    "SolverConfig",
    "SolverTrace",
    "SupportSet",
    "ZERO_TOL",
    "armijo_common",
    "assign_super_support",
    "build_reference_front",
    "crowding_distance",
    "default_config",
    "default_lambda_grid",
    "delta_spread",
    "dominates",
    "example_biobjective",
    "filter_nondominated",
    "gamma_spread",
    "generate_quadratic",
    "hypervolume_2d",
    "initialize",
    "is_L_stationary",
    "is_feasible",
    "is_pareto_stationary",
    "l0_norm",
    "load_dataset",
    "load_instance",
    "logistic_problem",
    "mohyb",
    "moiht",
    "mosd",
    "mospd",
    "performance_profiles",
    "project_sparse",
    "purity",
    "rescale_logistic_objectives",
    "save_instance",
    "scalarize",
    "scalarized_iht",
    "sfsd_run",
    "solve_simplex_qp",
    "super_supports",
    "support",
    "theta_L",
    "theta_feasible",
    "theta_subspace",
]
