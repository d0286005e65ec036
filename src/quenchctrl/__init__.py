"""Distributed control of a nonlocal phase-field system with an obstacle
constraint, approached through a quench-regularization path.

The forward model couples a chemical-potential equation with diffusion
to a pointwise order-parameter relaxation whose constraint term is
either the exact obstacle reaction or its logarithmic quench surrogate.
On top of that sit the exact discrete adjoint, a projected-gradient
optimizer, a continuation driver down the quench ladder, and a suite of
independent oracles that check every piece against a second route.
"""

from .adjoint import (
    AdjointDiagnostics,
    AdjointSolution,
    concentration_metric,
    solve_adjoint,
    time_ramp_probe,
)
from .config import (
    Problem,
    ProblemConfig,
    build_problem,
    load_config,
    profile_values,
)
from .costs import (
    AdmissibleSet,
    CostWeights,
    anchored_tracking_cost,
    project_admissible,
    tracking_cost,
    tracking_misfit_sq,
)
from .errors import ConfigError, ShapeMismatchError, SolverError
from .grid import (
    Field,
    Grid,
    TimeGrid,
    Trajectory,
    inner_product,
    inner_product_spacetime,
    laplacian_values,
    norm_l2,
    norm_l2_spacetime,
    norm_lp_spacetime,
    solve_step_system,
    time_h1_norm,
)
from .nonlocal_op import A3Report, Kernel, NonlocalOperator, check_a3
from .optimize import (
    ContinuationRun,
    LevelRecord,
    PGDOptions,
    PGDResult,
    deep_quench_continuation,
    projected_gradient_descent,
    reduced_gradient,
    sample_variational_inequality,
)
from .potentials import (
    PotentialConfig,
    QuenchLevel,
    log_potential,
    log_potential_prime,
    log_potential_second,
    obstacle_resolvent,
    quench_resolvent_detail,
    quench_scale,
)
from .state import (
    InitialData,
    StateDiagnostics,
    StateSolution,
    check_obstacle_signs,
    energy_residual,
    solve_state,
    step_mu,
    step_rho,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AdjointDiagnostics",
    "AdjointSolution",
    "concentration_metric",
    "solve_adjoint",
    "time_ramp_probe",
    "Problem",
    "ProblemConfig",
    "build_problem",
    "load_config",
    "profile_values",
    "AdmissibleSet",
    "CostWeights",
    "anchored_tracking_cost",
    "project_admissible",
    "tracking_cost",
    "tracking_misfit_sq",
    "ConfigError",
    "ShapeMismatchError",
    "SolverError",
    "Field",
    "Grid",
    "TimeGrid",
    "Trajectory",
    "inner_product",
    "inner_product_spacetime",
    "laplacian_values",
    "norm_l2",
    "norm_l2_spacetime",
    "norm_lp_spacetime",
    "solve_step_system",
    "time_h1_norm",
    "A3Report",
    "Kernel",
    "NonlocalOperator",
    "check_a3",
    "ContinuationRun",
    "LevelRecord",
    "PGDOptions",
    "PGDResult",
    "deep_quench_continuation",
    "projected_gradient_descent",
    "reduced_gradient",
    "sample_variational_inequality",
    "PotentialConfig",
    "QuenchLevel",
    "log_potential",
    "log_potential_prime",
    "log_potential_second",
    "obstacle_resolvent",
    "quench_resolvent_detail",
    "quench_scale",
    "InitialData",
    "StateDiagnostics",
    "StateSolution",
    "check_obstacle_signs",
    "energy_residual",
    "solve_state",
    "step_mu",
    "step_rho",
    "VerificationReport",
    "run_suite",
    "__version__",
]
