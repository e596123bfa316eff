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
    prepare,
    sweep_negative_regime,
    sweep_subcritical,
    trace_fold,
    trace_resonant_branch,
)
from .checks import CheckResult, CheckSpec, default_suite, emit_traceability, run_suite
from .eigen import EigenPair, principal_eigen
from .grids import Grid, GridFunction, build_grid, eigen_bump, half_domain_grid, sup_norm
from .howard import SolveReport, basin_census, solve, solve_with_starts
from .operators import ControlCoeffs, ControlFamily, DiscreteOperator, Envelope

__all__ = [
    "__version__",
    "AT_LAM_MINUS", "AT_LAM_PLUS", "Branch", "BranchConfig", "BranchPoint",
    "CheckResult", "CheckSpec", "ControlCoeffs", "ControlFamily",
    "CriticalReport", "DiscreteOperator", "EigenPair",
    "Envelope", "Grid", "GridFunction",
    "SolveReport", "basin_census", "build_grid", "default_suite",
    "eigen_bump", "emit_traceability",
    "half_domain_grid", "locate_tstar_resonance",
    "prepare", "principal_eigen", "run_suite", "solve",
    "solve_with_starts", "sup_norm", "sweep_negative_regime",
    "sweep_subcritical", "trace_fold", "trace_resonant_branch",
]
