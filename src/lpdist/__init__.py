"""Distributional analysis of linear programs with random right-hand sides.

Solve standard-form programs with basis and dual certificates, compute
perturbation-stability constants, sample the limiting optimal-set laws of
rhs noise, and build data-driven confidence sets with Monte Carlo coverage
harnesses.
"""
from .confidence import (
    BoxRegion,
    ConfidenceSet,
    EllipsoidRegion,
    SegmentFamilyRegion,
    confidence_rows,
    contains,
    coordinate_interval,
    map_region,
    region_from_dict,
    selection_basis,
)
from .errors import (
    DegenerateDenominator,
    EmptyPolytope,
    Infeasible,
    InstanceMismatch,
    InstanceTooLarge,
    LpError,
    NoConvergence,
    NonFiniteData,
    NotSlater,
    NotUnique,
    SingularBasis,
    SingularCovariance,
    Unbounded,
)
from .experiments import (
    DEFAULT_SEED,
    CoverageReport,
    CoverageRow,
    ExperimentConfig,
    build_min_cost_flow,
    build_ot_2x2,
    config_from_dict,
    kolmogorov_smirnov,
    run_coverage,
    run_limit_comparison,
)
from .geometry import (
    Direction,
    SphereGrid,
    argmax_vertex,
    hausdorff,
    min_norm_point,
    support_function,
)
from .limits import (
    AuxVertexEnumerator,
    EmpiricalLaw,
    GaussianLaw,
    LimitBlock,
    LimitSample,
    MultinomialLaw,
    NoiseSampler,
    distance_statistic,
    hadamard_quotient_check,
    limit_support_function,
    sample_unique_limit,
)
from .problem import (
    Basis,
    BasicSolution,
    Polytope,
    StandardLp,
    basic_solution,
    enumerate_feasible_bases,
    load_lp,
    lp_to_dict,
    optimal_vertices,
    support,
)
from .quantiles import chi_square_quantile, two_sided_normal_quantile
from .simplex import SolveResult, solve, solve_rows, verify_kkt
from .stability import (
    StabilityReport,
    check_basis_inclusion,
    check_hausdorff_lipschitz,
    stability_report,
)

__version__ = "0.1.0"
