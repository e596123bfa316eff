"""Policy (Howard) iteration for the discrete Dirichlet problem F_h[u] = f.

Each policy step freezes the argmax control, solves the resulting linear
system exactly by a direct factorization, and re-optimizes. The linear
step is applied in update form,

    u_{k+1} = u_k + L_k^{-1} (f - F_h[u_k]),

which is algebraically the classical policy step (L_k u_k = F_h[u_k])
but performs iterative refinement for near-singular linearizations, so
spectral-parameter values close to an eigenvalue still reach tight
residuals.

A damped fallback keeps the accepted residual history nonincreasing
after the first step; if no damping factor achieves descent the run
stops with ``max_iters`` rather than reporting a non-monotone
"converged" trace. Divergence (iterate norm above a blow-up threshold)
is a first-class outcome consumed by the resonance detectors, not an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .grids import GridFunction, sup_norm

CONVERGED = "Converged"
DIVERGED = "Diverged"
MAX_ITERS = "MaxIters"
SINGULAR = "SingularLinearization"


BLOWUP_NORM = 1e8
_MAX_POLICY_ITERS = 200
_MAX_DAMPING_HALVINGS = 25
_GUARD_FACTOR = 8.0


def resolve_tol(f_norm: float) -> float:
    """Residual target for a right-hand side of sup norm ``f_norm``."""
    return max(1e-10 * f_norm, 1e-13)


def guard_tol(base_tol: float, matrix_scale: float, u_norm: float) -> float:
    """Residual target adjusted for what double precision can certify.

    Evaluating F_h[u] rounds at the level eps * |stencil| * |u|, so no
    algorithm can verify residuals below that; the guard keeps
    near-eigenvalue solves from spinning against an unreachable target.
    """
    eps = np.finfo(float).eps
    return max(base_tol, _GUARD_FACTOR * eps * matrix_scale * max(1.0, u_norm))


@dataclass
class SolveReport:
    status: str
    iters: int
    residual_history: list[float] = field(default_factory=list)
    active_control_changes: list[int] = field(default_factory=list)
    tol: float = 0.0
    final_residual: float = float("nan")
    damping_events: int = 0

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


# an overflowing iterate is an outcome (Diverged or SingularLinearization), not a fault
@np.errstate(over="ignore", invalid="ignore")
def solve(op, f: GridFunction, u0: GridFunction | None = None,
          blowup_norm: float = BLOWUP_NORM) -> tuple[GridFunction, SolveReport]:
    """Solve F_h[u] = f by policy iteration with damped fallback.

    Returns the last iterate together with a report; the caller decides
    what a non-``Converged`` status means in its regime. A ``Converged``
    result always satisfies a fresh-residual check against the resolved
    tolerance. An iterate with sup norm above ``blowup_norm`` ends the
    run as ``Diverged``.
    """
    if f.grid != op.grid:
        raise UsageError("right-hand side lives on a different grid")
    f_flat = f.values
    tol = resolve_tol(float(np.abs(f_flat).max()))

    if u0 is None:
        u = np.zeros(op.grid.num_nodes)
    else:
        if u0.grid != op.grid:
            raise UsageError("initial guess lives on a different grid")
        u = u0.values.copy()

    history: list[float] = []
    active_changes: list[int] = []
    prev_active = None
    status = MAX_ITERS
    iters = 0
    damping_events = 0
    mat_scale = op.matrix_scale()
    eff_tol = tol
    resid_vec = op.apply_flat(u) - f_flat
    resid = float(np.abs(resid_vec).max())

    for k in range(1, _MAX_POLICY_ITERS + 1):
        iters = k
        lin = op.linearize(u)
        try:
            delta = lin.solve(-resid_vec)
        except np.linalg.LinAlgError:
            status = SINGULAR
            break
        cand = u + delta
        cand_resid_vec = op.apply_flat(cand) - f_flat
        cand_resid = float(np.abs(cand_resid_vec).max())
        if not np.isfinite(cand_resid):
            status = SINGULAR
            break
        if history and cand_resid > history[-1]:
            # damped fallback: first halving that restores descent
            accepted = False
            theta = 1.0
            for _ in range(_MAX_DAMPING_HALVINGS):
                theta *= 0.5
                trial = u + theta * delta
                trial_vec = op.apply_flat(trial) - f_flat
                trial_resid = float(np.abs(trial_vec).max())
                if trial_resid <= history[-1]:
                    cand, cand_resid_vec, cand_resid = trial, trial_vec, trial_resid
                    accepted = True
                    damping_events += 1
                    break
            if not accepted:
                status = MAX_ITERS
                break
        u, resid_vec, resid = cand, cand_resid_vec, cand_resid
        history.append(resid)
        if prev_active is None:
            active_changes.append(int(lin.active.size))
        else:
            active_changes.append(int(np.count_nonzero(lin.active != prev_active)))
        prev_active = lin.active
        u_norm = float(np.abs(u).max())
        if u_norm > blowup_norm:
            status = DIVERGED
            break
        eff_tol = guard_tol(tol, mat_scale, u_norm)
        if resid <= eff_tol:
            status = CONVERGED
            break

    out = GridFunction(op.grid, np.where(np.isfinite(u), u, 0.0), check_finite=False)
    # fresh verification, independent of the inner solves
    final_resid = float(np.abs(op.apply_flat(out.values) - f_flat).max())
    if status == CONVERGED and final_resid > eff_tol:
        status = MAX_ITERS
    report = SolveReport(status, iters, history, active_changes, eff_tol, final_resid,
                         damping_events)
    return out, report


def solve_with_starts(op, f: GridFunction, starts, blowup_norm: float = BLOWUP_NORM
                      ) -> tuple[GridFunction, SolveReport]:
    """Solve from each start in turn and stop at the first that converges.

    Returns that result; if none converges, the first ``Diverged`` one,
    and if none diverged, the result of the first start. A ``None`` start
    is the zero start of ``solve``."""
    fallback = None
    for u0 in starts:
        u, rep = solve(op, f, u0=u0, blowup_norm=blowup_norm)
        if rep.converged:
            return u, rep
        if fallback is None or (rep.status == DIVERGED and fallback[1].status != DIVERGED):
            fallback = (u, rep)
    if fallback is None:
        raise UsageError("solve_with_starts needs at least one start")
    return fallback


def basin_census(op, f: GridFunction, starts, distinct_gap: float | None = None):
    """Solve from every start and cluster the converged results.

    Returns a list of (representative u, multiplicity), where two
    solutions are identified when their sup distance is below
    ``distinct_gap`` (default 10x the resolved tolerance).
    """
    gap = distinct_gap
    if gap is None:
        gap = 10.0 * resolve_tol(sup_norm(f))
    clusters: list[list] = []
    for u0 in starts:
        u, rep = solve(op, f, u0=u0)
        if not rep.converged:
            continue
        for entry in clusters:
            if sup_norm(u - entry[0]) <= gap:
                entry[1] += 1
                break
        else:
            clusters.append([u, 1])
    return [(u, count) for u, count in clusters]


@dataclass
class ComparisonReport:
    premise_gap: float
    worst_violation: float
    slack: float

    @property
    def premise_holds(self) -> bool:
        return self.premise_gap <= self.slack

    @property
    def holds(self) -> bool:
        return (not self.premise_holds) or self.worst_violation <= self.slack


def check_comparison(op, u: GridFunction, v: GridFunction) -> ComparisonReport:
    """Discrete comparison: F_h[u] <= F_h[v] pointwise should force u >= v.

    Report-only; the caller certifies the positive-eigenvalue regime.
    """
    Fu = op.apply_flat(u.values)
    Fv = op.apply_flat(v.values)
    scale = 1.0 + max(np.abs(Fu).max(), np.abs(Fv).max(), sup_norm(u), sup_norm(v))
    slack = 1e-10 * scale
    premise_gap = float((Fu - Fv).max())
    worst = float(np.maximum(v.values - u.values, 0.0).max())
    return ComparisonReport(premise_gap, worst, slack)


@dataclass
class AbpReport:
    side: str
    sup_part: float
    forcing_norm: float
    ratio: float


def check_abp(op, u: GridFunction, f: GridFunction, side: str) -> AbpReport:
    """One-sided bound bookkeeping: ratio of sup of the adverse part of u
    to the discrete L^N norm of the favorable part of f.

    side '-' pairs sup u^- with ||f^+||; side '+' pairs sup u^+ with
    ||f^-||. The 0/0 case reports ratio 0 by convention.
    """
    if side not in ("+", "-"):
        raise UsageError("side must be '+' or '-'")
    grid = op.grid
    if side == "-":
        sup_part = float(np.maximum(-u.values, 0.0).max())
        fav = np.maximum(f.values, 0.0)
    else:
        sup_part = float(np.maximum(u.values, 0.0).max())
        fav = np.maximum(-f.values, 0.0)
    w = grid.quad_weight()
    N = grid.dim
    forcing = float((w * np.sum(fav**N)) ** (1.0 / N))
    ratio = 0.0 if forcing == 0.0 and sup_part == 0.0 else (
        float("inf") if forcing == 0.0 else sup_part / forcing)
    return AbpReport(side, sup_part, forcing, ratio)
