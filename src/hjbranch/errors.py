"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: configuration/schema
problems and regime mismatches exit 2, inadmissible discretizations
exit 3, runtime failures (solver, regime, bracket) exit 4.
"""


class HJBError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HJBError):
    """Invalid grid, family, or scenario configuration."""


class AdmissibilityError(ConfigurationError):
    """Discretization violates the monotonicity (CFL-type) condition."""


class UsageError(HJBError):
    """API misuse, e.g. mixing functions from different grids."""


class EigenIterationError(HJBError):
    """Inverse power iteration lost its sign cone or failed to converge."""


class BracketError(HJBError):
    """A bisection bracket does not straddle the target value."""


class RegimeError(HJBError):
    """Existence failed where the configured regime guarantees it, or the
    spectrum breaks a precondition (eigenvalue ordering, degeneracy)."""


class RegimeMismatchError(ConfigurationError, RegimeError):
    """lam sits outside the regime a mode needs (``BranchContext.require``)."""


class FoldTraceError(HJBError):
    """Pseudo-arclength continuation failed below the minimal step size."""


class UnstableDetectionError(HJBError):
    """Critical-value detection produced non-monotone evidence."""
