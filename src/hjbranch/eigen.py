"""Principal eigenvalues and signed eigenfunctions of the discrete operator.

Primary method: inverse power iteration with a properness shift. With
sigma large enough that F_h - sigma is strictly proper, the problem

    (F_h - sigma)[w] = -u_k,   u_{k+1} = w / ||w||,   lam_k = 1/||w|| - sigma

preserves the sign cone of the start (comparison principle of the
proper shifted operator), so a positive start converges to the positive
principal pair and a negative start to the negative one. Each inner
problem is uniquely solvable and handled by policy iteration. The
negative pair comes from a negative start on the family itself; the
positive pair of ``family.mirror()``, with phi negated, equals it bit for
bit, and the tests use that identity as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenIterationError, UsageError
from .grids import Grid, GridFunction, sup_norm
from .howard import CONVERGED, guard_tol, solve
from .operators import ControlFamily, DiscreteOperator, TwoPolicyFactors


_TOL = 1e-10  # eigenvalue change between steps, raised to a few ulps of lam
_RESIDUAL_TOL = 1e-9  # sup |F_h[phi] + lam*phi|, raised to the rounding floor of F_h
# the fixed shift converges at the rate (lam_1 + sigma)/(lam_2 + sigma), which
# nears 1 when the gap is small against lam_1, as on anisotropic 2D grids:
# a 5x3 grid on (0, 2)x(0, 0.5) needs 589 steps, extreme ones about 2,400
_MAX_ITERS = 5000


def proper_shift(family: ControlFamily) -> float:
    """Shift sigma = max_a c_a + margin that makes F_h - sigma strictly
    proper (zeroth-order total <= -1 for every control). The margin is 1,
    or 16 ulps of delta = max_a |c_a| when that is larger, so rounding
    cannot absorb it (max c + 1 == max c from |max c| ~ 2^53)."""
    delta = family.envelope.delta
    return family.max_zeroth + max(1.0, delta * 2.0**-48)  # 16 eps = 2^-48


@dataclass
class EigenPair:
    sign: str
    lam: float
    phi: GridFunction
    residual: float
    iters: int
    residual_tol: float

    def as_dict(self) -> dict:
        return {"sign": self.sign, "lam": self.lam, "residual": self.residual,
                "iters": self.iters, "residual_tol": self.residual_tol}


def _sign_ok(flat: np.ndarray, sign: str) -> bool:
    return bool((flat > 0).all()) if sign == "+" else bool((flat < 0).all())


def principal_eigen(family: ControlFamily, grid: Grid, sign: str) -> EigenPair:
    """Compute (lam_1^+, phi_1^+) or (lam_1^-, phi_1^-) of the family on the grid."""
    if sign not in ("+", "-"):
        raise UsageError("sign must be '+' or '-'")
    start = grid.ones() if sign == "+" else -grid.ones()
    return inverse_iteration(family, grid, start, sign)


def inverse_iteration(family: ControlFamily, grid: Grid, start: GridFunction,
                      sign: str) -> EigenPair:
    """Shifted inverse power iteration from ``start``, which lies in the cone
    of ``sign`` (> 0 for "+", < 0 for "-"), until both the eigenvalue and
    the residual settle; every failure raises. The factors
    of the shifted operator's last two policies live as long as the call."""
    sigma = proper_shift(family)
    op_plain = DiscreteOperator(family, grid, 0.0)
    op_shifted = TwoPolicyFactors(DiscreteOperator(family, grid, -sigma))
    resid_tol = float(guard_tol(_RESIDUAL_TOL, op_plain.matrix_scale(), 1.0))
    u, lam = start, np.inf
    for it in range(1, _MAX_ITERS + 1):
        w, rep = solve(op_shifted, -u)
        if rep.status != CONVERGED:
            raise EigenIterationError(
                f"inner proper solve failed with status {rep.status} at iteration {it}")
        nrm = sup_norm(w)
        if not _sign_ok(w.values, sign):
            # the proper shift keeps the exact inner solution in the cone, so
            # the computed one left it by rounding. At sigma ~ 1e17 the
            # solution, of size ~1/sigma, is a policy-iteration correction to
            # a first iterate ~1e14 times larger, and the tolerance, guarded
            # as if |w| >= 1, accepts an error as large as w itself
            raise EigenIterationError(
                f"iterate lost its sign at iteration {it}: the inner solve, accepted at "
                f"residual {rep.final_residual:.3g} against its guarded tolerance "
                f"{rep.tol:.3g}, does not resolve an iterate of sup norm {nrm:.3g}")
        lam_new = 1.0 / nrm - sigma
        u_new = w * (1.0 / nrm)
        resid = float(np.abs(op_plain.apply_flat(u_new.values) + lam_new * u_new.values).max())
        if abs(lam_new - lam) <= guard_tol(_TOL, abs(lam_new), 1.0) and resid <= resid_tol:
            return EigenPair(sign, lam_new, u_new, resid, it, resid_tol)
        if lam_new == lam and np.array_equal(u_new.values, u.values):
            # the step reproduced its input, so every later step repeats it
            raise EigenIterationError(
                f"inverse iteration did not converge: iteration {it} repeats the one "
                f"before, with residual {resid:.3g} above {resid_tol:.3g}")
        lam, u = lam_new, u_new
    raise EigenIterationError(
        f"inverse iteration did not converge in {_MAX_ITERS} iterations")
