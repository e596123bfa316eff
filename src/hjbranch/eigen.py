"""Principal eigenvalues and signed eigenfunctions of the discrete operator.

Primary method: inverse power iteration with a properness shift. With
sigma large enough that F_h - sigma is strictly proper, the problem

    (F_h - sigma)[w] = -u_k,   u_{k+1} = w / ||w||,   lam_k = 1/||w|| - sigma

preserves the sign cone of the start (comparison principle of the
proper shifted operator), so a positive start converges to the positive
principal pair and a negative start to the negative one. Each inner
problem is uniquely solvable and handled by policy iteration. The
negative pair is the positive pair of ``family.mirror()`` with phi negated.

An independent cross-check locates the eigenvalue by bisection on a
solvability/sign classification, which mirrors the variational
definition of the eigenvalues instead of the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, EigenIterationError, UsageError
from .grids import Grid, GridFunction, eigen_bump, half_domain_grid, sup_norm
from .howard import CONVERGED, guard_tol, solve
from .operators import ControlFamily, DiscreteOperator, TwoPolicyFactors


_TOL = 1e-10  # eigenvalue change between steps, raised to a few ulps of lam
_RESIDUAL_TOL = 1e-9  # sup |F_h[phi] + lam*phi|, raised to the rounding floor of F_h
# the fixed shift converges at the rate (lam_1 + sigma)/(lam_2 + sigma), which
# nears 1 when the gap is small against lam_1, as on anisotropic 2D grids:
# a 5x3 grid on (0, 2)x(0, 0.5) needs 589 steps, extreme ones about 2,400
_MAX_ITERS = 5000
_N_STARTS = 5  # seeded positive starts of the simplicity probe


def proper_shift(family: ControlFamily) -> float:
    """Shift sigma > delta + 1 that makes F_h - sigma strictly proper
    (zeroth-order total <= -1 for every control). It is delta + 1 for
    delta <= 2^20; above that the margin grows with delta, so rounding
    cannot absorb it (delta + 1 == delta from delta ~ 2^53)."""
    delta = family.envelope.delta
    return delta + max(1.0, delta * 2.0**-20)


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
    return _inverse_iteration(family, grid, start, sign)


def _inverse_iteration(family: ControlFamily, grid: Grid, start: GridFunction,
                       sign: str) -> EigenPair:
    """Shifted inverse power iteration from ``start`` until both the
    eigenvalue and the residual settle; every failure raises. The factors
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
        if not _sign_ok(w.values, sign):
            raise EigenIterationError(
                f"iterate lost its sign at iteration {it}; shift inadmissible")
        nrm = sup_norm(w)
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


def eigen_bisect_crosscheck(family: ControlFamily, grid: Grid, sign: str,
                            bracket: tuple[float, float]) -> float:
    """Locate the principal eigenvalue by 40 bisection steps on a sign
    classification.

    For sign '+': solve (F + lam)[u] = -phi_probe with a positive probe;
    lam below the eigenvalue yields a strictly positive solution, above
    it the solve diverges or the solution loses positivity. Sign '-'
    mirrors the test with +phi_probe and strictly negative solutions,
    steering the solver into the negative basin with a start ladder.
    Entirely independent of inverse iteration.
    """
    if sign not in ("+", "-"):
        raise UsageError("sign must be '+' or '-'")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"empty bracket ({lo}, {hi})")
    probe = eigen_bump(grid)

    def below(lam: float) -> bool:
        op = DiscreteOperator(family, grid, lam)
        if sign == "+":
            u, rep = solve(op, -probe, blowup_norm=1e10)
            return rep.converged and _sign_ok(u.values, "+")
        for s in (1.0, 10.0, 100.0):
            u, rep = solve(op, probe, u0=probe * (-s), blowup_norm=1e10)
            if rep.converged and _sign_ok(u.values, "-"):
                return True
        return False

    if not below(lo):
        raise BracketError(f"lower bracket endpoint {lo} does not classify below")
    if below(hi):
        raise BracketError(f"upper bracket endpoint {hi} does not classify above")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def subdomain_gap(family: ControlFamily, grid: Grid) -> tuple[float, float]:
    """Principal positive eigenvalue on the grid and on its half-domain grid
    (``grids.half_domain_grid``); shrinking the domain must raise it by a
    strictly positive gap."""
    full = principal_eigen(family, grid, "+")
    sub = principal_eigen(family, half_domain_grid(grid), "+")
    if not sub.lam > full.lam:
        raise EigenIterationError(
            f"expected strict subdomain gap, got {sub.lam} <= {full.lam}")
    return full.lam, sub.lam


def simplicity_probe(family: ControlFamily, grid: Grid, seed: int = 0) -> dict:
    """Run inverse iteration from ``_N_STARTS`` distinct seeded positive
    starts and measure the spread of the limits (discrete simplicity
    evidence); the probe passes when the spread is at most 1e-6. A start
    that does not converge raises ``EigenIterationError``."""
    tol = 1e-6
    rng = np.random.default_rng(seed)
    limits = []
    iters = []
    for _ in range(_N_STARTS):
        vals = 0.1 + rng.random(grid.num_nodes)
        u = GridFunction(grid, vals / vals.max(), check_finite=False)
        pair = _inverse_iteration(family, grid, u, "+")
        limits.append(pair.phi)
        iters.append(pair.iters)
    spread = max(sup_norm(a - b) for a in limits for b in limits)
    return {"spread": spread, "tol": tol, "passed": spread <= tol,
            "n_starts": _N_STARTS, "iters": iters}
