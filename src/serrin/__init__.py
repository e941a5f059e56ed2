"""Numerical toolkit for an overdetermined torsion problem on annular domains.

Fits the monotone radial model to constant boundary data, solves the torsion
equation on doubly connected Fourier domains, and checks the integral and
pointwise identities that characterize the annulus.
"""

from .errors import (
    ConfigError,
    InconsistentModelError,
    InvalidDomainError,
    InvalidInputError,
    OutOfRangeError,
    RootBracketError,
    SerrinError,
    SingularEvaluationError,
    SolverFailureError,
    UnsupportedRegimeError,
)
from .geometry import (
    CurvGrid,
    DomainSpec,
    FourierCurve,
    boundary_length,
    build_grid,
    integrate_area,
    integrate_boundary,
    region_areas,
)
from .models import (
    BoundaryData,
    ModelParams,
    ProblemCase,
    boundary_data_of,
    classify_case,
    compatibility,
    fit_model,
    model_gradient_sq,
    model_u,
    model_u_prime,
    pseudo_radius,
    refined_k,
    refined_phi,
    refined_phi_dot,
)
from .solver import (
    GradientField,
    ManufacturedField,
    MmsResult,
    ScalarField,
    SolveOptions,
    SolveStats,
    gradient_field,
    manufactured_field,
    mms_convergence,
    neumann_trace,
    read_field,
    solve_dirichlet,
    write_field,
)
from .verify import (
    CSV_COLUMNS,
    TOLERANCES,
    CheckResult,
    DivergenceIdentityResult,
    ExpansionResult,
    NeumannStats,
    RefinedPohozaevResult,
    VerificationReport,
    area_bound_check,
    boundary_distance,
    degenerate_expansion_check,
    divergence_identity_residual,
    evaluate_checks,
    full_report,
    gradient_bound_margin,
    measured_boundary_data,
    neumann_constancy,
    pohozaev_residual,
    refined_pohozaev_check,
)

__version__ = "0.1.0"
