"""Discrete sup-type elliptic operators: eigenvalues and solution branches.

The package discretizes Dirichlet problems for convex positively
1-homogeneous operators of Bellman type on intervals and rectangles,
computes the two principal eigenvalues with signed eigenfunctions, and
traces the solution set of F_h[u] + lam*u = t*phi^+ + h across the
spectral regimes (unique branch, resonance with a critical t*, fold
with two branches, global existence above the negative eigenvalue).
"""

__version__ = "0.1.0"

from .branches import (
    AT_LAM_MINUS,
    AT_LAM_PLUS,
    Branch,
    BranchConfig,
    BranchPoint,
    CriticalReport,
    locate_tstar_resonance,
    make_teo6_family,
    prepare,
    sweep_negative_regime,
    sweep_subcritical,
    trace_fold,
    trace_resonant_branch,
    uniqueness_probe_teo6,
)
from .checks import CheckResult, CheckSpec, default_suite, emit_traceability, run_suite
from .eigen import (
    EigenPair,
    eigen_bisect_crosscheck,
    principal_eigen,
    simplicity_probe,
    subdomain_gap,
)
from .grids import (
    Grid,
    GridFunction,
    build_grid,
    eigen_bump,
    half_domain_grid,
    signed_distance,
    sup_norm,
)
from .howard import (
    SolveReport,
    basin_census,
    check_abp,
    check_comparison,
    solve,
    solve_with_starts,
)
from .operators import (
    ControlCoeffs,
    ControlFamily,
    DiscreteOperator,
    Envelope,
    check_h0_h3,
)

__all__ = [
    "__version__",
    "AT_LAM_MINUS", "AT_LAM_PLUS", "Branch", "BranchConfig", "BranchPoint",
    "CheckResult", "CheckSpec", "ControlCoeffs", "ControlFamily",
    "CriticalReport", "DiscreteOperator", "EigenPair",
    "Envelope", "Grid", "GridFunction",
    "SolveReport", "basin_census", "build_grid",
    "check_abp", "check_comparison", "check_h0_h3", "default_suite",
    "eigen_bisect_crosscheck", "eigen_bump", "emit_traceability",
    "half_domain_grid", "locate_tstar_resonance", "make_teo6_family",
    "prepare", "principal_eigen", "run_suite",
    "signed_distance", "simplicity_probe", "solve",
    "solve_with_starts", "subdomain_gap", "sup_norm", "sweep_negative_regime",
    "sweep_subcritical", "trace_fold", "trace_resonant_branch",
    "uniqueness_probe_teo6",
]
