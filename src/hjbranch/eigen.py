"""Principal eigenvalues and signed eigenfunctions of the discrete operator.

Primary method: inverse power iteration with a properness shift. With
sigma large enough that F_h - sigma is strictly proper, the problem

    (F_h - sigma)[w] = -u_k,   u_{k+1} = w / ||w||,   lam_k = 1/||w|| - sigma

preserves the sign cone of the start (comparison principle of the
proper shifted operator), so a positive start converges to the positive
principal pair and a negative start to the negative one. Each inner
problem is uniquely solvable and handled by policy iteration.

An independent cross-check locates the eigenvalue by bisection on a
solvability/sign classification, which mirrors the variational
definition of the eigenvalues instead of the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, EigenIterationError, UsageError
from .grids import Grid, GridFunction, SubdomainMask, eigen_bump, sup_norm
from .howard import CONVERGED, SolveParams, solve
from .operators import ControlFamily, DiscreteOperator, MirroredOperator


@dataclass
class EigenParams:
    """Inverse-iteration controls.

    The shift resolves to delta + max(lam_guess_upper, 0) + shift_margin,
    which makes the shifted operator strictly proper (zeroth-order total
    <= -shift_margin for every control).
    """

    shift_margin: float = 1.0
    lam_guess_upper: float = 0.0
    tol: float = 1e-10
    residual_tol: float = 1e-9
    max_iters: int = 500

    def resolve_shift(self, family: ControlFamily) -> float:
        return family.envelope.delta + max(self.lam_guess_upper, 0.0) + self.shift_margin


@dataclass
class EigenPair:
    sign: str
    lam: float
    phi: GridFunction
    residual: float
    iters: int

    def as_dict(self) -> dict:
        return {"sign": self.sign, "lam": self.lam, "residual": self.residual,
                "iters": self.iters}


def _sign_ok(flat: np.ndarray, incl: np.ndarray | None, sign: str) -> bool:
    vals = flat if incl is None else flat[incl]
    return bool((vals > 0).all()) if sign == "+" else bool((vals < 0).all())


def principal_eigen(family: ControlFamily, grid: Grid, sign: str,
                    params: EigenParams | None = None,
                    mask: SubdomainMask | None = None,
                    operator_factory=None) -> EigenPair:
    """Compute (lam_1^+, phi_1^+) or (lam_1^-, phi_1^-) of the family on the grid.

    ``operator_factory(shift)`` may be supplied to iterate on a wrapped
    operator (used by the mirrored-operator oracle); it defaults to the
    plain discretization of the family.
    """
    if sign not in ("+", "-"):
        raise UsageError("sign must be '+' or '-'")
    params = params or EigenParams()
    sigma = params.resolve_shift(family)
    if operator_factory is None:
        def operator_factory(shift):
            return DiscreteOperator(family, grid, shift, mask)
    op_plain = operator_factory(0.0)
    op_shifted = operator_factory(-sigma)
    incl = getattr(op_plain, "_incl", None)

    start = np.ones(grid.num_nodes) if sign == "+" else -np.ones(grid.num_nodes)
    if incl is not None:
        start = np.where(incl, start, 0.0)
    u = GridFunction(grid, start, check_finite=False)
    return _inverse_iteration(op_plain, op_shifted, sigma, u, sign, incl, params)


def _inverse_iteration(op_plain, op_shifted, sigma: float, u: GridFunction, sign: str,
                       incl: np.ndarray | None, params: EigenParams) -> EigenPair:
    """Shifted inverse power iteration from the start ``u`` until both the
    eigenvalue and the residual settle; every failure raises."""
    lam = np.inf
    trace = []
    inner = SolveParams()
    for it in range(1, params.max_iters + 1):
        w, rep = solve(op_shifted, -u, params=inner)
        if rep.status != CONVERGED:
            raise EigenIterationError(
                f"inner proper solve failed with status {rep.status} at iteration {it}",
                trace)
        if not _sign_ok(w.values, incl, sign):
            raise EigenIterationError(
                f"iterate lost its sign at iteration {it}; shift inadmissible", trace)
        nrm = sup_norm(w)
        lam_new = 1.0 / nrm - sigma
        u = w * (1.0 / nrm)
        resid = float(np.abs(op_plain.apply_flat(u.values) + lam_new * u.values).max())
        trace.append((lam_new, resid))
        if abs(lam_new - lam) <= params.tol and resid <= params.residual_tol:
            return EigenPair(sign, lam_new, u, resid, it)
        lam = lam_new
    raise EigenIterationError(
        f"inverse iteration did not converge in {params.max_iters} iterations", trace)


def mirrored_plus_eigen(family: ControlFamily, grid: Grid,
                        params: EigenParams | None = None,
                        mask: SubdomainMask | None = None) -> EigenPair:
    """Positive-start iteration on the mirrored operator G[u] = -F[-u].

    Characterizes the same value as the negative principal eigenvalue of
    F; kept as an independent oracle for the mirror identity.
    """
    def factory(shift):
        return MirroredOperator(DiscreteOperator(family, grid, shift, mask))
    return principal_eigen(family, grid, "+", params=params, mask=mask,
                           operator_factory=factory)


def eigen_bisect_crosscheck(family: ControlFamily, grid: Grid, sign: str,
                            bracket: tuple[float, float], n_steps: int = 40,
                            mask: SubdomainMask | None = None,
                            blowup_norm: float = 1e10) -> float:
    """Locate the principal eigenvalue by bisection on a sign classification.

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
    if mask is not None:
        probe = GridFunction(grid, np.where(mask.included, probe.values, 0.0),
                             check_finite=False)
    incl = None if mask is None else mask.included
    params = SolveParams(blowup_norm=blowup_norm)

    def below(lam: float) -> bool:
        op = DiscreteOperator(family, grid, lam, mask)
        if sign == "+":
            u, rep = solve(op, -probe, params=params)
            return rep.converged and _sign_ok(u.values, incl, "+")
        for s in (1.0, 10.0, 100.0):
            u, rep = solve(op, probe, params=params, u0=probe * (-s))
            if rep.converged and _sign_ok(u.values, incl, "-"):
                return True
        return False

    if not below(lo):
        raise BracketError(f"lower bracket endpoint {lo} does not classify below")
    if below(hi):
        raise BracketError(f"upper bracket endpoint {hi} does not classify above")
    for _ in range(n_steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def subdomain_gap(family: ControlFamily, grid: Grid, mask: SubdomainMask,
                  params: EigenParams | None = None) -> tuple[float, float]:
    """Principal positive eigenvalue on the full domain and on the masked
    subdomain; the gap must be strictly positive for a proper mask."""
    full = principal_eigen(family, grid, "+", params=params)
    sub = principal_eigen(family, grid, "+", params=params, mask=mask)
    if not mask.is_full and not sub.lam > full.lam:
        raise EigenIterationError(
            f"expected strict subdomain gap, got {sub.lam} <= {full.lam}")
    return full.lam, sub.lam


def simplicity_probe(family: ControlFamily, grid: Grid, n_starts: int = 5,
                     seed: int = 0, tol: float = 1e-6,
                     params: EigenParams | None = None) -> dict:
    """Run inverse iteration from distinct seeded positive starts and
    measure the spread of the limits (discrete simplicity evidence).
    A start that does not converge raises ``EigenIterationError``."""
    params = params or EigenParams()
    rng = np.random.default_rng(seed)
    sigma = params.resolve_shift(family)
    op_plain = DiscreteOperator(family, grid, 0.0)
    op_shifted = DiscreteOperator(family, grid, -sigma)
    limits = []
    iters = []
    for _ in range(n_starts):
        vals = 0.1 + rng.random(grid.num_nodes)
        u = GridFunction(grid, vals / vals.max(), check_finite=False)
        pair = _inverse_iteration(op_plain, op_shifted, sigma, u, "+", None, params)
        limits.append(pair.phi)
        iters.append(pair.iters)
    spread = max(sup_norm(a - b) for a in limits for b in limits)
    return {"spread": spread, "tol": tol, "passed": spread <= tol,
            "n_starts": n_starts, "iters": iters}
