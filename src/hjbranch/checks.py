"""Battery runner binding qualitative statements to executable checks.

Each check id names one statement about the operator family or its
solution set (uniqueness of the eigenfunction, comparison, sign
structure of branches, ...) and maps it to concrete computations in the
spectral, solver and branch modules. A run produces one result per
check with the exact invariant string that was evaluated, a pass/fail
status and key metrics for regression tracking. The only inputs of a
check are its grid and its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import branches as br
from .eigen import principal_eigen, simplicity_probe, subdomain_gap
from .errors import ConfigurationError, HJBError, RegimeMismatchError
from .grids import Grid, GridFunction, build_grid, sup_norm
from .howard import (
    basin_census,
    check_abp,
    check_comparison,
    solve,
)
from .operators import ControlFamily, DiscreteOperator


@dataclass
class CheckSpec:
    """One check on one grid (default: the interval [0, 1] with n=199);
    ``seed`` drives the seeded checks T1.6, T2.1 and T2.3."""

    theorem_id: str
    grid: Grid | None = None
    seed: int = 0

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise ConfigurationError(f"unknown theorem id {self.theorem_id!r}")
        if self.grid is None:
            self.grid = build_grid(1, (0.0, 1.0), 199)


@dataclass
class CheckResult:
    theorem_id: str
    status: str  # Pass | Fail
    invariant: str
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    message: str = ""


def _laplacian_lam_plus(grid: Grid) -> float:
    return principal_eigen(ControlFamily.laplacian(grid.dim), grid, "+").lam


# --- individual runners: each returns (invariant holds, metrics) -----------


def _run_t11(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    cfg = br.BranchConfig(ControlFamily.fucik(5.0, dim=g.dim), g, 0.0, (-5.0, 5.0), 21)
    branch = br.sweep_subcritical(cfg)
    lo, hi = branch.points[0], branch.points[-1]
    # sweep_subcritical raises unless the branch strictly decreases and is convex
    return lo.u.min() > 0 and hi.u.max() < 0, {
        "strict_decrease_gap": branch.diagnostics["strict_decrease_gap"],
        "lipschitz": branch.diagnostics["lipschitz"],
        "convexity_violation": branch.diagnostics["convexity_violation"],
        "min_at_tmin": lo.u.min(), "max_at_tmax": hi.u.max()}


def _run_t12(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    fam = ControlFamily.fucik(_laplacian_lam_plus(g), dim=g.dim)
    cfg = br.BranchConfig(fam, g, br.AT_LAM_PLUS, (-3.0, 12.0), 11)
    ctx = br.prepare(cfg)
    crit = br.locate_tstar_resonance(cfg, "+", ctx)
    branch = br.trace_resonant_branch(cfg, crit, ctx)
    d = branch.diagnostics
    pt_hi = max(branch.points, key=lambda q: q.t)
    # trace_resonant_branch raises on a disagreeing uniqueness probe and
    # labels the alternative "ii" only when every ray residual is within ray_tol
    return d.get("alternative") == "ii" and pt_hi.u.max() < 0, {
        "t_star": crit.t_star, "bracket_lo": crit.bracket[0],
        "bracket_hi": crit.bracket[1],
        "alternative": 2.0 if d.get("alternative") == "ii" else
        (1.0 if d.get("alternative") == "i" else 0.0),
        "max_ray_residual": max(d["ray_residuals"].values()),
        "ray_tol": d["ray_tol"],
        "max_at_large_t": pt_hi.u.max()}


def _run_t13(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    cfg = br.BranchConfig(ControlFamily.fucik(15.0, dim=g.dim), g, 0.0, (-1.0, 3.0), 17)
    ctx = br.prepare(cfg)
    minimal, second, crit = br.trace_fold(cfg, ctx)
    op = ctx.operator()
    census = basin_census(op, ctx.rhs(1.0), ctx.ladder(2.0), distinct_gap=1e-4)
    below = basin_census(op, ctx.rhs(crit.t_star - 0.5), ctx.ladder(2.0))
    ok = (len(census) >= 2 and len(below) == 0
          and minimal.diagnostics["branch_gap_min"] > 1e-4)
    return ok, {
        "t_star": crit.t_star, "n_solutions_above": len(census),
        "n_solutions_below": len(below),
        "branch_gap_min": minimal.diagnostics["branch_gap_min"],
        "merge_gap": minimal.diagnostics["merge_gap"],
        "minimal_convexity_violation": minimal.diagnostics["convexity_violation"]}


def _resonance_minus_family(g: Grid) -> tuple[ControlFamily, GridFunction]:
    lam1 = _laplacian_lam_plus(g)
    fam = ControlFamily.fucik(lam1 + 4.0, dim=g.dim)
    coords = g.coords()
    a, b = g.extents[0]
    xh = (coords[:, 0] - a) / (b - a)
    h_fun = GridFunction(g, xh * (1 - xh))
    return fam, h_fun


def _run_t14(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    fam, h_fun = _resonance_minus_family(g)
    cfg = br.BranchConfig(fam, g, br.AT_LAM_MINUS, (-3.0, 3.0), 11, h_fun=h_fun)
    ctx = br.prepare(cfg)
    crit = br.locate_tstar_resonance(cfg, "-", ctx)
    branch = br.trace_resonant_branch(cfg, crit, ctx)
    d = branch.diagnostics
    negative_ok = all(s["negative"] for s in d["negative_sector"] if s["s"] >= 2.0)
    ok = d["nonexistence_below"] and d["existence_above"] and negative_ok
    return ok, {
        "t_star": crit.t_star, "bracket_lo": crit.bracket[0],
        "bracket_hi": crit.bracket[1],
        # locate_tstar_resonance raises unless the boundary tail is monotone
        "monotone_tail": 1.0,
        "nonexistence_below": float(d["nonexistence_below"]),
        "existence_above": float(d["existence_above"]),
        "max_ray_residual": max(d["ray_residuals"].values()),
        "ray_tol": d["ray_tol"]}


def _run_t15(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    fam, h_fun = _resonance_minus_family(g)
    cfg = br.BranchConfig(fam, g, br.AT_LAM_MINUS, (-100.0, 100.0), 21, h_fun=h_fun,
                          lam_offset=0.1)
    branch = br.sweep_negative_regime(cfg)
    d = branch.diagnostics
    interior = d["interior_max"]
    neg_ts = sorted(t for t in interior if t < 0)[:3]
    trend = [interior[t] for t in neg_ts]
    # sweep_negative_regime raises unless every antimaximum solve is negative
    # and, as t_range[1] = 100 exceeds 10*(1 + sup|h|), sup_top > sup_mid > 0
    ok = len(trend) < 2 or all(trend[i] < trend[i + 1] for i in range(len(trend) - 1))
    return ok, {
        "n_points": float(len(branch.points)), "sup_top": d["sup_top"],
        "sup_mid": d["sup_mid"],
        "interior_max_most_negative_t": trend[0] if trend else float("nan"),
        "antimaximum_worst_max": max(st["max"] for st in d["antimaximum"].values())}


def _run_t16(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    fam, d0 = br.make_teo6_family(g)
    rep = br.uniqueness_probe_teo6(fam, g, seed=spec.seed, d0=d0)
    worst = max(c["n_solutions"] for c in rep["cases"])
    return rep["all_unique"], {
        "d0": rep["d0"], "lam_plus": rep["lam_plus"], "lam_minus": rep["lam_minus"],
        "n_cases": float(len(rep["cases"])), "max_solutions_per_case": float(worst)}


def _run_t21(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    fam = ControlFamily.fucik(5.0, dim=g.dim)
    probe = simplicity_probe(fam, g, seed=spec.seed)
    # isolation evidence: no nontrivial kernel just above the negative eigenvalue
    em = principal_eigen(fam, g, "-")
    nontrivial = 0
    for lam_off in (0.05, 0.15, 0.3):
        op = DiscreteOperator(fam, g, em.lam + lam_off)
        census = basin_census(op, g.zeros(),
                              [g.zeros(), em.phi * 2.0, em.phi * (-2.0),
                               br.mixed_mode(g) * 2.0])
        nontrivial += sum(1 for u, _ in census if sup_norm(u) > 1e-6)
    return probe["passed"] and nontrivial == 0, {
        "eigenfunction_spread": probe["spread"], "spread_tol": probe["tol"],
        "nontrivial_kernel_hits": float(nontrivial)}


def _run_t23(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    lap = ControlFamily.laplacian(g.dim)
    op = DiscreteOperator(lap, g, 0.0)
    u_minus1, _ = solve(op, g.ones() * (-1.0))
    comparison = check_comparison(op, u_minus1, g.zeros())
    u_plus1, _ = solve(op, g.ones())
    abp = check_abp(op, u_plus1, g.ones(), "-")
    # seeded comparison battery on an asymmetric family
    opf = DiscreteOperator(ControlFamily.fucik(5.0, dim=g.dim), g, 0.0)
    rng = np.random.default_rng(spec.seed)
    worst_violation = 0.0
    worst_ratio = abp.ratio
    for _ in range(20):
        base = rng.standard_normal(g.num_nodes)
        gap = np.abs(rng.standard_normal(g.num_nodes))
        f2 = GridFunction(g, base, check_finite=False)
        f1 = GridFunction(g, base - gap, check_finite=False)
        u1, r1 = solve(opf, f1)
        u2, r2 = solve(opf, f2)
        if r1.converged and r2.converged:
            worst_violation = max(worst_violation,
                                  float(np.maximum(u2.values - u1.values, 0.0).max()))
        ua, ra = solve(opf, GridFunction(g, np.abs(base), check_finite=False))
        if ra.converged:
            worst_ratio = max(worst_ratio, check_abp(opf, ua, GridFunction(
                g, np.abs(base), check_finite=False), "-").ratio)
    ok = comparison.holds and u_minus1.min() > 0 and abs(abp.ratio) < np.inf \
        and worst_violation <= 1e-8
    return ok, {
        "parabola_min": u_minus1.min(), "abp_ratio_f1": abp.ratio,
        "comparison_worst_violation": worst_violation,
        "abp_worst_ratio": worst_ratio}


def _run_t24(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    fam = ControlFamily.fucik(5.0, dim=g.dim)
    ep = principal_eigen(fam, g, "+")
    em = principal_eigen(fam, g, "-")
    hopf = _hopf_boundary_ratio(ep.phi)
    return ep.phi.min() > 0 and em.phi.max() < 0 and hopf > 0, {
        "min_phi_plus": ep.phi.min(), "max_phi_minus": em.phi.max(), "hopf_ratio": hopf}


def _hopf_boundary_ratio(phi: GridFunction) -> float:
    """Min over edge-interior boundary-adjacent nodes of phi / h."""
    g = phi.grid
    U = phi.reshaped()
    if g.dim == 1:
        return float(min(U[0], U[-1]) / g.h[0])
    vals = []
    nx, ny = g.n
    # edge-adjacent interior nodes, corners excluded
    vals.append((U[0, 1:-1] / g.h[0]).min())
    vals.append((U[-1, 1:-1] / g.h[0]).min())
    vals.append((U[1:-1, 0] / g.h[1]).min())
    vals.append((U[1:-1, -1] / g.h[1]).min())
    return float(min(vals))


def _run_l28(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    t0, t1, k = 0.0, 2.0, 0.5
    cfg = br.BranchConfig(ControlFamily.fucik(5.0, dim=g.dim), g, 0.0, (t0, t1 + 1.0))
    ctx = br.prepare(cfg)
    op = ctx.operator()
    u0, r0 = solve(op, ctx.rhs(t0))
    u1, r1 = solve(op, ctx.rhs(t1))
    mix = u1 * k + u0 * (1.0 - k)
    rhs_mix = ctx.rhs(t1) * k + ctx.rhs(t0) * (1.0 - k)
    excess = float((op.apply_flat(mix.values) - rhs_mix.values).max())
    scale = 1.0 + max(sup_norm(u0), sup_norm(u1))
    ok = r0.converged and r1.converged and excess <= 1e-10 * scale
    return ok, {"supersolution_excess": excess, "slack": 1e-10 * scale}


def _run_p44(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    fam = ControlFamily.fucik(3.0, dim=g.dim)
    em = principal_eigen(fam, g, "-")
    ep = principal_eigen(fam, g, "+")
    lam = em.lam + 0.1
    probe = br.antimaximum_probe(DiscreteOperator(fam, g, lam), ep.phi, 0.1)
    maxima = [st["max"] for st in probe.values() if st["converged"]]
    worst = max(maxima, default=-np.inf)
    return len(maxima) == len(probe) and worst < 0, {
        "worst_max": worst, "lam": lam, "lam_minus": em.lam}


def _run_p61(spec: CheckSpec) -> tuple[bool, dict]:
    g = spec.grid
    lam_full, lam_sub = subdomain_gap(ControlFamily.laplacian(g.dim), g)
    ratio = lam_sub / lam_full if lam_full != 0 else float("inf")
    return lam_sub > lam_full, {
        "lam_full": lam_full, "lam_sub": lam_sub, "gap": lam_sub - lam_full, "ratio": ratio}


# The battery: check id -> (the invariant its runner evaluates, the runner).
_CHECKS = {
    "T1.1": ("subcritical branch: t1 < t2 implies u(t1) > u(t2) pointwise; "
             "t -> u_t(x) convex; u > 0 at the low end and u < 0 at the high end",
             _run_t11),
    "T1.2": ("at the positive principal eigenvalue the branch exists only above a "
             "critical t*; solutions unique above t*; bounded alternative carries "
             "the ray u* + s*phi^+; large-t solutions negative", _run_t12),
    "T1.3": ("between the eigenvalues: no solution below the fold t*, at least two "
             "distinct solutions above, a decreasing convex minimal branch", _run_t13),
    "T1.4": ("at the negative principal eigenvalue: no solution below t*, "
             "solutions above; large-norm solutions near t* negative with "
             "interior max decreasing; t* brackets monotone over the gap ladder",
             _run_t14),
    "T1.5": ("slightly above the negative eigenvalue: solutions exist for every t; "
             "sup u grows with t; solutions negative for very negative t with "
             "interior max diverging down; antimaximum forcing gives u < 0", _run_t15),
    "T1.6": ("both eigenvalues slightly negative (within the half-domain gap "
             "margin): every right-hand side admits at most one solution across "
             "start basins", _run_t16),
    "T2.1": ("the positive eigenfunction is simple: distinct positive starts of the "
             "inverse iteration land on one function; no nontrivial kernel just "
             "above the negative eigenvalue", _run_t21),
    "T2.3": ("one-sided bound and comparison: F[u] <= F[v] forces u >= v when the "
             "positive eigenvalue is positive; sup of the adverse part of u is "
             "controlled by the forcing norm (empirical constant recorded)", _run_t23),
    "T2.4": ("strong positivity: the positive eigenfunction is strictly positive at "
             "every interior node and its boundary-adjacent values scale like the "
             "spacing (discrete interior normal derivative bounded below)", _run_t24),
    "L2.8": ("convex combinations of solutions are supersolutions: "
             "F_h[k*u1 + (1-k)*u0] <= k*rhs1 + (1-k)*rhs0 pointwise", _run_l28),
    "P4.4": ("antimaximum: just above the negative eigenvalue, nonpositive forcing "
             "k*f (f <= 0, k > 0) produces strictly negative solutions", _run_p44),
    "P6.1": ("restricting the domain raises the positive principal eigenvalue by a "
             "strictly positive gap (half-domain mask)", _run_p61),
}
THEOREM_IDS = tuple(_CHECKS)


def default_suite(grid: Grid | None = None, seed: int = 0) -> list[CheckSpec]:
    """One spec per check id on ``grid`` (default: see ``CheckSpec``)."""
    return [CheckSpec(tid, grid=grid, seed=seed) for tid in THEOREM_IDS]


def run_suite(specs: list[CheckSpec]) -> list[CheckResult]:
    """Run the specs in order; results are sorted by theorem id.

    Each spec gives one row with the invariant from the check table: Pass
    or Fail as the runner reports, or a Fail "runner aborted" row when a
    solver error stops it. A spec whose grid puts lam outside the regime
    its check is about (T1.1, T1.3, T1.5) re-raises its driver's
    ``RegimeMismatchError`` prefixed "<id> spec/regime mismatch: ".
    """
    results = []
    for spec in specs:
        invariant, run = _CHECKS[spec.theorem_id]
        try:
            ok, metrics = run(spec)
        except RegimeMismatchError as exc:
            raise RegimeMismatchError(
                f"{spec.theorem_id} spec/regime mismatch: {exc}") from exc
        except ConfigurationError:
            raise
        except HJBError as exc:
            results.append(CheckResult(spec.theorem_id, "Fail",
                                       "runner aborted", {}, [], str(exc)))
            continue
        results.append(CheckResult(spec.theorem_id, "Pass" if ok else "Fail",
                                   invariant, metrics))
    return sorted(results, key=lambda r: (r.theorem_id, r.status))


def emit_traceability(results: list[CheckResult]) -> str:
    """Markdown table: check id -> invariant -> status -> metrics."""
    if not results:
        raise ConfigurationError("no results to report")
    lines = ["| check | invariant | status | metrics |",
             "| --- | --- | --- | --- |"]
    for r in results:
        if r.metrics:
            metrics = "; ".join(f"{k}={_short(v)}" for k, v in sorted(r.metrics.items()))
        else:
            metrics = "—"
        inv = r.invariant.replace("|", "/")
        lines.append(f"| {r.theorem_id} | {inv} | {r.status} | {metrics} |")
    return "\n".join(lines) + "\n"


def _short(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
