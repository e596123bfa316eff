"""Tracing the solution set of F_h[u] + lam*u = t*phi_1^+ + h over t.

The solution set is explored in the regime the spectral position of lam
dictates; ``BranchContext.regime`` names it, and each driver first asks
the one gate ``BranchContext.require`` for its regime, before any solve:

* strictly below lam_1^+: a single decreasing convex curve, swept
  directly with warm starts (``sweep_subcritical``);
* at lam_1^+ or lam_1^-: the critical parameter t* is bracketed by
  approaching the eigenvalue through a ladder of gaps eps_k and
  classifying solves as blown-up or bounded
  (``locate_tstar_resonance``), and the branch structure near t* is
  sampled (``trace_resonant_branch``);
* between the eigenvalues: a minimal branch is produced by monotone
  iteration from a certified subsolution and the second branch by
  predictor-corrector continuation in the distance coordinate d, which
  turns the fold (``trace_fold``);
* slightly above lam_1^-: solutions exist for every t and the sweep
  checks the sign/growth asymptotics (``sweep_negative_regime``).

Blow-up classification is scale-aware: at gap eps the resonant response
grows like 1/eps while bounded solutions stay O(1), so the threshold
1/(10*sqrt(eps)) separates the two regardless of problem scale, and the
classification boundary converges to t* at rate sqrt(eps); the final
estimate extrapolates the boundary sequence (Richardson on the last
three levels).

In the non-uniqueness regimes the inner solver returns whichever
solution its basin reaches; all multi-solution statements here steer
basins explicitly through start ladders, and every emitted branch point
re-verifies its residual with a fresh operator application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import principal_eigen
from .errors import (
    BracketError,
    ConfigurationError,
    FoldTraceError,
    RegimeError,
    RegimeMismatchError,
    UnstableDetectionError,
)
from .grids import (
    Grid,
    GridFunction,
    direction_cosine,
    eigen_bump,
    sup_norm,
)
from .howard import (
    BLOWUP_NORM,
    CONVERGED,
    DIVERGED,
    SolveReport,
    basin_census,
    guard_tol,
    resolve_tol,
    solve,
    solve_with_starts,
)
from .operators import ControlFamily, DiscreteOperator, TwoPolicyFactors

AT_LAM_PLUS = "at_lam_plus"
AT_LAM_MINUS = "at_lam_minus"
_RESONANCE_REGIMES = {"+": "resonance_plus", "-": "resonance_minus"}


@dataclass
class BranchConfig:
    """Problem statement for one exploration run."""

    family: ControlFamily
    grid: Grid
    lam: float | str
    t_range: tuple[float, float]
    n_samples: int = 21
    h_fun: GridFunction | None = None
    lam_offset: float = 0.0
    # the resonance gap ladder is eps_k = 2^-k for k = 1..resonance_levels
    resonance_levels: int = 20

    def __post_init__(self):
        if not self.t_range[0] < self.t_range[1]:
            raise ConfigurationError("t_range must be increasing")
        if self.n_samples < 2:
            raise ConfigurationError("need at least two samples")
        if self.resonance_levels < 1:
            raise ConfigurationError("resonance_levels must be at least 1")
        if isinstance(self.lam, str) and self.lam not in (AT_LAM_PLUS, AT_LAM_MINUS):
            raise ConfigurationError(f"unknown symbolic lambda {self.lam!r}")


@dataclass
class BranchPoint:
    t: float
    u: GridFunction
    d: float
    regime_tags: frozenset[str]
    solve: SolveReport


@dataclass
class Branch:
    points: list[BranchPoint]
    reference: GridFunction
    lam: float
    diagnostics: dict = field(default_factory=dict)


@dataclass
class CriticalReport:
    t_star: float
    bracket: tuple[float, float]
    kind: str
    blowup_evidence: list[tuple] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo < self.t_star < hi):
            raise ConfigurationError("bracket must strictly contain t_star")


class BranchContext:
    """Resolved spectral data shared by the exploration modes."""

    def __init__(self, cfg: BranchConfig):
        self.grid = cfg.grid
        self.family = cfg.family
        self.eig_plus = principal_eigen(cfg.family, cfg.grid, "+")
        self.eig_minus = principal_eigen(cfg.family, cfg.grid, "-")
        self.h = cfg.h_fun if cfg.h_fun is not None else cfg.grid.zeros()
        if self.h.grid != cfg.grid:
            raise ConfigurationError("h_fun lives on a different grid")
        hn = sup_norm(self.h)
        if hn > 0:
            unit = self.h * (1.0 / hn)
            dist = min(sup_norm(unit - self.eig_plus.phi), sup_norm(unit + self.eig_plus.phi))
            if dist < 1e-6:
                raise ConfigurationError(
                    "h_fun is (numerically) a multiple of the positive eigenfunction")
        scale = 1.0 + abs(self.eig_minus.lam)
        if cfg.family.is_convex and self.eig_plus.lam > self.eig_minus.lam + 1e-8 * scale:
            raise RegimeError(
                "eigenvalue ordering lam_1^+ <= lam_1^- violated "
                f"({self.eig_plus.lam} > {self.eig_minus.lam}); broken stencil?")
        base = {AT_LAM_PLUS: self.eig_plus.lam, AT_LAM_MINUS: self.eig_minus.lam}.get(cfg.lam)
        self.lam = (float(cfg.lam) if base is None else base) + cfg.lam_offset

    @property
    def is_degenerate(self) -> bool:
        """Both eigenvalues (numerically) coincide: every member operator
        shares its principal pair, and resonance modes are refused."""
        return self.eig_minus.lam - self.eig_plus.lam <= 1e-6

    @property
    def regime(self) -> str:
        """Where lam sits against lam_1^+ <= lam_1^-, the one decision that
        picks an exploration mode: 'resonance_plus' or 'resonance_minus'
        within 1e-9*(1 + |lam_1^-|) of an eigenvalue, else 'subcritical'
        below lam_1^+, 'fold' between the two and 'negative' above lam_1^-."""
        lam = self.lam
        tol = 1e-9 * (1.0 + abs(self.eig_minus.lam))
        if abs(lam - self.eig_plus.lam) <= tol:
            return "resonance_plus"
        if abs(lam - self.eig_minus.lam) <= tol:
            return "resonance_minus"
        if lam < self.eig_plus.lam:
            return "subcritical"
        if lam < self.eig_minus.lam:
            return "fold"
        return "negative"

    @property
    def negative_window(self) -> tuple[float, float]:
        """The lam interval (lam_1^-, lam_1^- + 0.05*max(|lam_1^-|, 1)]
        that ``sweep_negative_regime`` explores, as (open, closed) ends."""
        lam_minus = self.eig_minus.lam
        return lam_minus, lam_minus + 0.05 * max(abs(lam_minus), 1.0)

    def require(self, *regimes: str) -> None:
        """The one regime gate of the exploration modes: raise
        ``RegimeMismatchError`` unless ``regime`` is among ``regimes``;
        'negative' also needs lam inside ``negative_window``."""
        lo, hi = self.negative_window
        beyond = self.regime == "negative" and self.lam > hi
        if self.regime not in regimes or beyond:
            where = f" beyond lam_1^- + {hi - lo:.3g}" if beyond else ""
            raise RegimeMismatchError(
                f"lam: needs the {' or '.join(regimes)} regime, got the {self.regime} "
                f"regime{where} (lam_1^+ / lam / lam_1^- = {self.eig_plus.lam} / {self.lam} "
                f"/ {self.eig_minus.lam})")

    @property
    def resonance_sign(self) -> str | None:
        """'+' or '-' at resonance with lam_1^+ or lam_1^-, None elsewhere."""
        return {"resonance_plus": "+", "resonance_minus": "-"}.get(self.regime)

    def rhs(self, t: float) -> GridFunction:
        return self.eig_plus.phi * t + self.h

    def operator(self, lam: float | None = None) -> DiscreteOperator:
        return DiscreteOperator(self.family, self.grid, self.lam if lam is None else lam)

    def ladder(self, scale: float) -> list[GridFunction]:
        """Deterministic basin-steering starts at a given magnitude scale."""
        phi = self.eig_plus.phi
        mixed = mixed_mode(self.grid)
        s = max(scale, 1.0)
        starts = [self.grid.zeros()]
        for mag in (0.5 * s, 5.0 * s, 50.0 * s):
            starts.append(phi * mag)
            starts.append(phi * (-mag))
        starts.append(mixed * (0.5 * s))
        return starts


def prepare(cfg: BranchConfig) -> BranchContext:
    return BranchContext(cfg)


def mixed_mode(grid: Grid) -> GridFunction:
    """Sign-changing second-mode profile along the first axis."""
    coords = grid.coords()
    a, b = grid.extents[0]
    vals = np.sin(2.0 * np.pi * (coords[:, 0] - a) / (b - a))
    if grid.dim == 2:
        a2, b2 = grid.extents[1]
        vals = vals * np.sin(np.pi * (coords[:, 1] - a2) / (b2 - a2))
    m = np.abs(vals).max()
    return GridFunction(grid, vals / m if m > 0 else vals, check_finite=False)


def _tags(u: GridFunction) -> frozenset[str]:
    if u.max() < 0.0:
        return frozenset(("Negative",))
    if u.min() > 0.0:
        return frozenset(("Positive",))
    return frozenset(("SignChanging",))


def interior_max(u: GridFunction) -> float:
    """Max of u over the middle third of the domain per axis."""
    U = u.reshaped()
    sl = []
    for n in u.grid.n:
        lo = n // 3
        hi = max(lo + 1, (2 * n) // 3)
        sl.append(slice(lo, hi))
    return float(U[tuple(sl)].max())


def diagram_coordinate(u: GridFunction, ref: GridFunction) -> float:
    """Signed sup-distance for the bifurcation diagram: sup|u - ref| with
    the sign of the largest deviation (the first one on a tie), so it is
    +-sup|u - ref| along ordered branches and 0.0 at ref."""
    u.same_grid(ref)
    diff = u.values - ref.values
    k = int(np.argmax(np.abs(diff)))
    return math.copysign(float(np.abs(diff).max()), diff[k])


def _residual(op: DiscreteOperator, u: GridFunction, f: GridFunction) -> float:
    """Fresh sup-norm residual of F_h[u] = f."""
    return float(np.abs(op.apply_flat(u.values) - f.values).max())


def _set_d(points: list[BranchPoint], ref: GridFunction) -> None:
    for p in points:
        p.d = diagram_coordinate(p.u, ref)


def _sweep(ctx: BranchContext, op: DiscreteOperator, ts, fallback, what: str,
           skip_unsolved: bool = False) -> list[BranchPoint]:
    """Warm-started sweep over ``ts``: each t starts from the previous
    solution, then from ``fallback(t)``. Every emitted point passed the
    fresh residual check of ``howard.solve``. A t where no start converges
    raises ``RegimeError`` naming ``what``, or is dropped when
    ``skip_unsolved``."""
    points: list[BranchPoint] = []
    for t in ts:
        t = float(t)
        f = ctx.rhs(t)
        warm = [points[-1].u] if points else []
        u, rep = solve_with_starts(op, f, warm + fallback(t))
        if not rep.converged:
            if skip_unsolved:
                continue
            raise RegimeError(f"{what} failed at t={t}: {rep.status}")
        points.append(BranchPoint(t, u, 0.0, _tags(u), rep))
    return points


def _ordering(points: list[BranchPoint]) -> dict:
    """Strict-decrease gap between consecutive points, worst pointwise
    violation of u(t_mid) <= chord interpolation, and the slack that
    violation is held to."""
    gaps = [float((p.u.values - q.u.values).min()) for p, q in zip(points, points[1:])]
    convexity = 0.0
    for p0, p1, p2 in zip(points, points[1:], points[2:]):
        w = (p2.t - p1.t) / (p2.t - p0.t)
        chord = p0.u.values * w + p2.u.values * (1.0 - w)
        convexity = max(convexity, float((p1.u.values - chord).max()))
    scale = 1.0 + max((sup_norm(p.u) for p in points), default=0.0)
    return {"strict_decrease_gap": min(gaps, default=float("nan")),
            "convexity_violation": convexity, "convexity_slack": 1e-9 * scale}


# ---------------------------------------------------------------------------
# 1. strictly subcritical sweep
# ---------------------------------------------------------------------------


def sweep_subcritical(cfg: BranchConfig, ctx: BranchContext | None = None) -> Branch:
    """Sweep the unique decreasing convex solution curve for lam < lam_1^+."""
    ctx = ctx or prepare(cfg)
    ctx.require("subcritical")
    op = ctx.operator()
    ts = np.linspace(cfg.t_range[0], cfg.t_range[1], cfg.n_samples)
    points = _sweep(ctx, op, ts, lambda t: ctx.ladder(abs(t) + 1.0), "subcritical sweep")

    ref = points[len(points) // 2].u
    _set_d(points, ref)

    order = _ordering(points)
    lipschitz = max(
        sup_norm(points[i].u - points[i + 1].u) / (points[i + 1].t - points[i].t)
        for i in range(len(points) - 1)
    )
    ds = [p.d for p in points]
    d_monotone = all(ds[i] > ds[i + 1] for i in range(len(ds) - 1))
    diagnostics = {**order, "lipschitz": lipschitz, "d_monotone": d_monotone}
    if order["strict_decrease_gap"] <= 0:
        raise RegimeError(
            f"branch not strictly decreasing (gap {order['strict_decrease_gap']})")
    if order["convexity_violation"] > order["convexity_slack"]:
        raise RegimeError(f"midpoint convexity violated by {order['convexity_violation']}")
    if not d_monotone:
        raise RegimeError("signed distance not strictly monotone along the branch")
    return Branch(points, ref, ctx.lam, diagnostics)


# ---------------------------------------------------------------------------
# 2. critical-parameter detection at resonance
# ---------------------------------------------------------------------------


def _richardson(boundaries: list[float], width: float) -> float:
    if len(boundaries) < 3:
        return boundaries[-1]
    m2, m1, m0 = boundaries[-3], boundaries[-2], boundaries[-1]
    d0 = m1 - m2
    d1 = m0 - m1
    if abs(d0) <= 5.0 * width or abs(d1) >= abs(d0):
        return m0
    r = d1 / d0
    if not 0.05 < r < 0.95:
        return m0
    return m0 + d1 * r / (1.0 - r)


def locate_tstar_resonance(cfg: BranchConfig, sign: str,
                           ctx: BranchContext | None = None) -> CriticalReport:
    """Bracket the critical t* at lam = lam_1^(sign) via the eps ladder.

    At each gap eps_k the problem is solved off resonance and bisection
    separates blown-up from bounded responses; the boundary sequence is
    extrapolated over the ladder. lam must sit at lam_1^(sign).
    """
    ctx = ctx or prepare(cfg)
    if ctx.is_degenerate:
        raise RegimeError(
            "family is spectrally degenerate (lam_1^+ ~= lam_1^-); resonance "
            "modes are refused for such families")
    if sign not in ("+", "-"):
        raise ConfigurationError("sign must be '+' or '-'")
    ctx.require(_RESONANCE_REGIMES[sign])
    lam_star = ctx.eig_plus.lam if sign == "+" else ctx.eig_minus.lam
    phi_dir = ctx.eig_plus.phi if sign == "+" else ctx.eig_minus.phi
    t_lo0, t_hi0 = cfg.t_range

    boundaries: list[float] = []
    widths: list[float] = []
    evidence: list[tuple] = []
    level_tables: list[dict] = []

    for eps in (2.0 ** (-k) for k in range(1, cfg.resonance_levels + 1)):
        lam_k = lam_star - eps if sign == "+" else lam_star + eps
        op_k = ctx.operator(lam_k)
        tau = min(1e7, 1.0 / (10.0 * math.sqrt(eps)))
        blowup_norm = max(1e8, 1e4 * tau)
        solutions: list[tuple[float, GridFunction]] = []

        def classify(t: float) -> tuple[bool, float, float]:
            f = ctx.rhs(t)
            starts: list[GridFunction | None] = []
            if solutions:
                nearest = min(solutions, key=lambda st: abs(st[0] - t))
                starts.append(nearest[1])
            starts.append(None)
            if sign == "-":
                starts.append(phi_dir * (0.5 * tau))
                starts.append(phi_dir * (2.0 * tau))
            u, rep = solve_with_starts(op_k, f, starts, blowup_norm)
            diverged = rep.status == DIVERGED
            if not (rep.converged or diverged):
                # no convergence, no clear blow-up: counted on the resonant side
                return True, float("nan"), float("nan")
            norm = sup_norm(u)
            cosine = direction_cosine(u, phi_dir)
            if rep.converged:
                solutions.append((t, u))
            return cosine >= 0.99 and (diverged or norm >= tau), norm, cosine

        # the bracket re-centred on the last boundaries first, then t_range;
        # each endpoint is classified once
        brackets = [(t_lo0, t_hi0)]
        if len(boundaries) >= 2:
            span = max(10.0 * abs(boundaries[-1] - boundaries[-2]), 1e-3)
            brackets.insert(0, (max(t_lo0, boundaries[-1] - span),
                                min(t_hi0, boundaries[-1] + span)))
        for lo, hi in brackets:
            blow_lo, norm_lo, cos_lo = classify(lo)
            blow_hi = classify(hi)[0]
            if blow_lo and not blow_hi:
                break
        if not blow_lo or blow_hi:
            raise BracketError(
                f"t_range does not straddle the critical value at eps={eps}: "
                f"low {'blow' if blow_lo else 'bounded'}, high "
                f"{'blow' if blow_hi else 'bounded'}")
        last_blow = (lo, norm_lo, cos_lo)
        width_target = max(1e-10, 1e-6 * math.sqrt(eps))
        for _ in range(60):
            if hi - lo <= width_target:
                break
            mid = 0.5 * (lo + hi)
            blow, norm, cosine = classify(mid)
            if blow:
                lo = mid
                last_blow = (mid, norm, cosine)
            else:
                hi = mid
        boundaries.append(0.5 * (lo + hi))
        widths.append(hi - lo)
        evidence.append((eps, last_blow[0], last_blow[1], last_blow[2]))
        level_tables.append({"eps": eps, "boundary": boundaries[-1],
                             "width": widths[-1], "tau": tau})

    # the boundary approaches t* from the blow-up side; the asymptotic tail
    # must be monotone within bracket tolerance
    tail = min(len(boundaries), 5)
    for i in range(len(boundaries) - tail, len(boundaries) - 1):
        if i < 0:
            continue
        slack = widths[i] + widths[i + 1] + 1e-12
        if boundaries[i + 1] < boundaries[i] - slack:
            raise UnstableDetectionError(
                "classification boundary non-monotone over the gap ladder")

    t_hat = _richardson(boundaries, widths[-1])
    halfw = max(3.0 * widths[-1], abs(t_hat - boundaries[-1]),
                0.75 * abs(boundaries[-1] - boundaries[-2]) if len(boundaries) > 1 else 0.0,
                1e-9)
    kind = "ResonancePlus" if sign == "+" else "ResonanceMinus"
    return CriticalReport(
        t_star=t_hat,
        bracket=(t_hat - halfw, t_hat + halfw),
        kind=kind,
        blowup_evidence=evidence,
        diagnostics={"boundaries": boundaries, "widths": widths,
                     "levels": level_tables, "lam_star": lam_star},
    )


# ---------------------------------------------------------------------------
# 3. branch structure at resonance
# ---------------------------------------------------------------------------


def _uniqueness_probe(op: DiscreteOperator, f: GridFunction, ctx: BranchContext,
                      scale: float, tol_gap: float) -> dict:
    """Solve from distant starts; all converged solutions must agree."""
    starts = [ctx.eig_plus.phi * (-0.01 * scale), ctx.eig_plus.phi * (-20.0 * scale),
              mixed_mode(ctx.grid) * scale, ctx.grid.zeros()]
    # a zero gap merges only bit-equal solutions, so the representatives
    # have the pairwise gaps of all converged solutions
    census = basin_census(op, f, starts, distinct_gap=0.0)
    converged = sum(count for _, count in census)
    gap = max((sup_norm(a - b) for a, _ in census for b, _ in census), default=0.0)
    return {"converged_starts": converged, "agree": converged > 0 and gap <= tol_gap,
            "max_gap": gap}


def trace_resonant_branch(cfg: BranchConfig, crit: CriticalReport,
                          ctx: BranchContext | None = None) -> Branch:
    """Sample the solution curve at exact resonance above t*.

    ``crit`` is the report of ``locate_tstar_resonance``: its kind gives
    the eigenvalue lam must sit at, t* is ``crit.t_star`` and the ray
    checks are held to a tolerance tied to the half-width of ``crit.bracket``.

    sign '+': warm sweep down to t* with uniqueness probes, then the
    bounded/unbounded dichotomy is classified; in the bounded case the
    limit u* is returned with a ray check (u* + s*phi_1^+ solves the t*
    equation within a tolerance tied to the t* bracket width).

    sign '-': the bounded sector t > t* is swept; near t* the large-norm
    negative sector is probed with eigen-direction ladders (negativity of
    large solutions, interior decay, and a ray check as evidence).
    """
    sign = {"ResonancePlus": "+", "ResonanceMinus": "-"}.get(crit.kind)
    if sign is None:
        raise RegimeError(f"resonance tracing needs a resonance report, got kind {crit.kind!r}")
    t_star = crit.t_star
    bracket_halfwidth = 0.5 * (crit.bracket[1] - crit.bracket[0])
    ctx = ctx or prepare(cfg)
    if ctx.is_degenerate:
        raise RegimeError("resonance tracing refused for spectrally degenerate families")
    ctx.require(_RESONANCE_REGIMES[sign])
    lam = ctx.eig_plus.lam if sign == "+" else ctx.eig_minus.lam
    op = ctx.operator(lam)
    phi_plus = ctx.eig_plus.phi
    phi_minus = ctx.eig_minus.phi
    t_max = cfg.t_range[1]
    if t_max <= t_star + 1.0:
        raise ConfigurationError("t_range must extend at least 1.0 above t_star")

    margins = [m for m in (2.0 ** (-j) for j in range(0, 11)) if t_star + m < t_max]
    outer = np.linspace(t_max, t_star + 1.0, max(cfg.n_samples, 5))
    ts_desc = sorted(set(list(outer) + [t_star + m for m in margins]), reverse=True)

    scale0 = 1.0 + abs(t_max) + sup_norm(ctx.h)
    # near t* the bounded sector of sign '-' may be unreachable
    points = _sweep(ctx, op, ts_desc, lambda t: ctx.ladder(scale0), "resonant sweep",
                    skip_unsolved=sign == "-")
    probes: dict[float, dict] = {}
    if sign == "+":
        for p in [p for p in points if p.t >= t_star + 0.05][:6]:
            probes[p.t] = _uniqueness_probe(op, ctx.rhs(p.t), ctx, scale0, 10.0 * p.solve.tol)

    points.sort(key=lambda p: p.t)
    ref_t = 1.0 + t_star
    ref = min(points, key=lambda p: abs(p.t - ref_t)).u
    _set_d(points, ref)

    diagnostics: dict = {"uniqueness_probes": probes, "t_star": t_star}

    near = [p for p in points if p.t <= t_star + margins[0] + 1e-12]
    norms_near = [(p.t - t_star, sup_norm(p.u)) for p in near]
    diagnostics["near_norms"] = norms_near

    if sign == "+":
        big = [p for p in points if p.t - t_star >= 0.4]
        if points and points[0].t - t_star <= 2.0 * margins[-1]:
            u_star = points[0].u
            ray, ray_tol = _ray_check(op, ctx, points, t_star, bracket_halfwidth, u_star,
                                      phi_plus, (1.0, 2.0, 5.0))
            bounded = sup_norm(u_star) <= 10.0 * (1.0 + max(sup_norm(p.u) for p in big)) \
                if big else True
            if bounded and all(r <= ray_tol for r in ray.values()):
                diagnostics["alternative"] = "ii"
                diagnostics["u_star_norm"] = sup_norm(u_star)
            elif not bounded and direction_cosine(u_star, phi_plus) >= 0.99 \
                    and u_star.min() > 0:
                diagnostics["alternative"] = "i"
            else:
                diagnostics["alternative"] = "open"
            diagnostics["ray_residuals"] = ray
            diagnostics["ray_tol"] = ray_tol
            # the dichotomy is only settled for the asymmetric-weight kind
            # with homogeneous h; elsewhere the label is evidence, not a
            # certificate
            diagnostics["alternative_certified"] = (
                ctx.family.kind == "fucik" and sup_norm(ctx.h) == 0.0
                and diagnostics["alternative"] == "ii")
    else:
        # unbounded negative sector: eigen-direction ladder at the smallest
        # bounded margin; large solutions must be negative with interior decay
        anchor = points[0].u if points else ctx.grid.zeros()
        scales = (1.0, 2.0, 5.0, 50.0)
        ray, ray_tol = _ray_check(op, ctx, points, t_star, bracket_halfwidth, anchor,
                                  phi_minus, scales)
        ladder_stats = []
        for s in scales:
            cand = anchor + phi_minus * s
            ladder_stats.append({
                "s": s,
                "norm": sup_norm(cand),
                "negative": cand.max() < 0,
                "interior_max": interior_max(cand),
            })
        diagnostics["ray_residuals"] = ray
        diagnostics["ray_tol"] = ray_tol
        diagnostics["negative_sector"] = ladder_stats
        # non-existence probe below / existence above the critical value
        census_below = basin_census(op, ctx.rhs(t_star - 0.5), ctx.ladder(scale0))
        census_above = basin_census(op, ctx.rhs(t_star + 0.5),
                                    ctx.ladder(scale0) + ([points[0].u] if points else []))
        diagnostics["nonexistence_below"] = len(census_below) == 0
        diagnostics["existence_above"] = len(census_above) >= 1

    # ordering and convexity along the swept (unique/minimal) part
    ordered = points if sign == "+" else [p for p in points if p.t >= t_star + 0.05]
    diagnostics.update(_ordering(ordered))
    if sign == "+":
        if diagnostics["strict_decrease_gap"] <= 0:
            raise RegimeError("resonant branch lost strict ordering")
        if diagnostics["convexity_violation"] > diagnostics["convexity_slack"]:
            raise RegimeError("resonant branch lost midpoint convexity")
        bad = [t for t, pr in probes.items() if not pr["agree"]]
        if bad:
            raise RegimeError(f"uniqueness probe failed at t={bad}")
    return Branch(points, ref, lam, diagnostics)


def _ray_check(op: DiscreteOperator, ctx: BranchContext, points: list[BranchPoint],
               t_star: float, bracket_halfwidth: float, anchor: GridFunction,
               phi: GridFunction, scales) -> tuple[dict, float]:
    """Residuals of anchor + s*phi in the t* equation for each s, and the
    tolerance they are held to: the t* bracket plus the distance of the
    first point from t* times the local Lipschitz estimate of the branch."""
    ray_tol = 1e-4
    if points:
        lip = 0.0
        if len(points) > 1:
            p, q = points[0], points[1]
            lip = sup_norm(p.u - q.u) / max(q.t - p.t, 1e-300)
        ray_tol = 2.0 * (bracket_halfwidth + (points[0].t - t_star) * max(lip, 1.0)) + 1e-8
    f_star = ctx.rhs(t_star)
    return {s: _residual(op, anchor + phi * s, f_star) for s in scales}, ray_tol


# ---------------------------------------------------------------------------
# 4. fold regime: minimal branch + continuation
# ---------------------------------------------------------------------------


def _negative_subsolution(ctx: BranchContext, op: DiscreteOperator, t: float
                          ) -> GridFunction:
    """Negative solution of (F+lam)[v] = max(t,1)*phi + h^+, scaled to a
    certified discrete subsolution below the solution set."""
    rhs = ctx.eig_plus.phi * max(t, 1.0) + GridFunction(
        ctx.grid, np.maximum(ctx.h.values, 0.0), check_finite=False)
    starts = [eigen_bump(ctx.grid) * (-s) for s in (1.0, 10.0, 100.0)]
    v, rep = solve_with_starts(op, rhs, starts)
    if not rep.converged or v.max() > 1e-12 * (1.0 + sup_norm(v)):
        raise FoldTraceError(f"could not construct the negative barrier at t={t}")
    f = ctx.rhs(t)
    k = 2.0
    for _ in range(40):
        u0 = v * k
        slack = 1e-10 * (1.0 + sup_norm(u0))
        if float((op.apply_flat(u0.values) - f.values).min()) >= -slack:
            return u0
        k *= 2.0
    raise FoldTraceError("subsolution scaling did not certify")


def _monotone_minimal(ctx: BranchContext, op: DiscreteOperator, op_proper: DiscreteOperator,
                      s0: float, t: float, u0: GridFunction) -> GridFunction | None:
    """Increasing fixed-point iteration from a subsolution, with inner
    solves on the proper operator ``op_proper`` = op - s0.

    Returns the minimal solution above u0, or None if the iterates blow
    up (no solution at this t)."""
    f = ctx.rhs(t)
    u = u0
    tol_fp = resolve_tol(sup_norm(f))
    for _ in range(1000):
        rhs = f - u * s0
        w, rep = solve(op_proper, rhs, u0=u)
        if rep.status == DIVERGED or (rep.converged and sup_norm(w) > BLOWUP_NORM):
            return None
        if not rep.converged:
            raise FoldTraceError(f"proper inner solve failed at t={t}: {rep.status}")
        drop = float((w.values - u.values).min())
        if drop < -1e-8 * (1.0 + sup_norm(u)):
            raise FoldTraceError(
                f"monotone iteration decreased by {drop} at t={t}; "
                "subsolution not certified or properness shift broken")
        step = sup_norm(w - u)
        u = w
        resid = _residual(op, u, f)
        if step <= 10.0 * tol_fp and resid <= guard_tol(tol_fp, op.matrix_scale(), sup_norm(u)):
            return u
    return None


def _fold_point(ctx: BranchContext, op: DiscreteOperator, t: float, u: GridFunction,
                base_tol: float | None = None) -> BranchPoint:
    """Branch point for a fold solution found outside ``solve``, reported
    with its fresh residual against rhs(t) and the conditioning-guarded
    tolerance; ``base_tol`` defaults to the solver's tolerance for rhs(t)."""
    f = ctx.rhs(t)
    resid = _residual(op, u, f)
    if base_tol is None:
        base_tol = resolve_tol(sup_norm(f))
    tol = guard_tol(base_tol, op.matrix_scale(), sup_norm(u))
    return BranchPoint(t, u, 0.0, _tags(u), SolveReport(CONVERGED, 0, [resid], [], tol, resid))


def _minimal_branch(ctx: BranchContext, op: DiscreteOperator, ts_desc: np.ndarray
                    ) -> tuple[list[BranchPoint], tuple[float, float] | None]:
    """Minimal solutions for decreasing t until existence fails; returns the
    points in increasing t and the (failed t, last solved t) bracket, or
    None if every t was solved. The proper operator of the monotone
    iteration is shared by every t and released on return."""
    s0 = ctx.family.max_zeroth + max(ctx.lam, 0.0) + 1.0
    op_proper = ctx.operator(ctx.lam - s0)
    points: list[BranchPoint] = []
    for t in ts_desc:
        u0 = _negative_subsolution(ctx, op, float(t))
        u = _monotone_minimal(ctx, op, op_proper, s0, float(t), u0)
        if u is None:
            prev_t = points[-1].t if points else float(t)
            return sorted(points, key=lambda p: p.t), (float(t), prev_t)
        points.append(_fold_point(ctx, op, float(t), u))
    return sorted(points, key=lambda p: p.t), None


def trace_fold(cfg: BranchConfig, ctx: BranchContext | None = None
               ) -> tuple[Branch, Branch, CriticalReport]:
    """Minimal branch, second branch and the fold for lam between the
    eigenvalues."""
    ctx = ctx or prepare(cfg)
    ctx.require("fold")
    op = ctx.operator()
    t_min, t_max = cfg.t_range
    minimal_points, fail_bracket = _minimal_branch(
        ctx, op, np.linspace(t_max, t_min, cfg.n_samples))
    if not minimal_points:
        raise FoldTraceError("no minimal solutions found anywhere in t_range")

    # second branch by continuation from the top
    t_top = minimal_points[-1].t
    f_top = ctx.rhs(t_top)
    gap_tol = max(1e-4, 10.0 * resolve_tol(sup_norm(f_top)))
    census = basin_census(op, f_top, ctx.ladder(1.0 + abs(t_top)), distinct_gap=gap_tol)
    u_min_top = minimal_points[-1].u
    others = [c for c in census if sup_norm(c[0] - u_min_top) > gap_tol]
    if not others:
        raise FoldTraceError("no second solution found at the top of the range")
    # the census may hold sign-changing solutions too (along whose rays d is
    # not monotone); the second branch is the one aligned with phi_1^+
    u2 = max(others, key=lambda c: direction_cosine(c[0], ctx.eig_plus.phi))[0]

    # reference strictly below both branches makes the d coordinate a
    # decreasing parameter along the folded path
    ref_tilde = u_min_top - eigen_bump(ctx.grid) * (0.05 * (1.0 + sup_norm(u_min_top)))
    second_points, fold_t, fold_step, fold_idx = _continue_in_d(
        ctx, op, u2, t_top, ref_tilde, n_samples=cfg.n_samples)

    t_star = fold_t
    halfw = max(fold_step, 1e-8)
    consistent = True
    if fail_bracket is not None:
        spacing = (t_max - t_min) / (cfg.n_samples - 1)
        consistent = fail_bracket[0] - spacing <= t_star <= fail_bracket[1] + spacing
        if not consistent:
            # continuation and existence scan disagree; widen to cover both
            halfw = max(halfw, abs(t_star - 0.5 * (fail_bracket[0] + fail_bracket[1]))
                        + 0.5 * (fail_bracket[1] - fail_bracket[0]))
    report = CriticalReport(
        t_star=t_star,
        bracket=(t_star - halfw, t_star + halfw),
        kind="Fold",
        diagnostics={
            "minimal_fail_bracket": fail_bracket,
            "continuation_fold": fold_t,
            "fold_step": fold_step,
            "consistent_with_existence_scan": consistent,
        },
    )

    ref = minimal_points[len(minimal_points) // 2].u
    _set_d(minimal_points, ref)
    _set_d(second_points, ref)

    order = _ordering(minimal_points)
    minimal = Branch(minimal_points, ref, ctx.lam, {
        k: order[k] for k in ("convexity_violation", "strict_decrease_gap")})
    # points kept in continuation (path) order so the folded polyline renders
    second = Branch(second_points, ref, ctx.lam, {"fold_index": fold_idx})

    # distinctness above the fold, on the pre-fold segment of the path
    margin = 0.1 * (t_max - t_star)
    gaps = []
    for p in second_points[: fold_idx + 1]:
        if p.t < t_star + margin:
            continue
        q = min(minimal_points, key=lambda m: abs(m.t - p.t))
        if abs(q.t - p.t) < 0.5 * (t_max - t_min) / cfg.n_samples:
            gaps.append(sup_norm(p.u - q.u))
    minimal.diagnostics["branch_gap_min"] = min(gaps) if gaps else float("nan")
    fold_point = second_points[fold_idx]
    q_near = min(minimal_points, key=lambda m: abs(m.t - fold_point.t))
    minimal.diagnostics["merge_gap"] = sup_norm(fold_point.u - q_near.u)
    if gaps and min(gaps) <= gap_tol:
        raise FoldTraceError("branches not distinct above the fold")
    return minimal, second, report


def _continue_in_d(ctx: BranchContext, op: DiscreteOperator, u_start: GridFunction,
                   t_start: float, ref_tilde: GridFunction, n_samples: int):
    """Continuation of (u, t) parameterized by the distance coordinate
    d(u) = ||u - ref||, which is strictly decreasing along the ordered
    folded path; the fold is where t reverses direction.

    Tangent-based arclength cannot turn the fold when the two legs are
    nearly antiparallel in (u, t) (sup-type problems produce genuine
    corners); pinning d instead keeps every corrector system square and
    well-posed on both legs. Returns (points, fold_t, step_at_fold,
    fold_index).
    """
    grid = ctx.grid
    N = grid.num_nodes
    phi = ctx.eig_plus.phi.values
    ref = ref_tilde.values

    def residual(u_flat, t):
        return op.apply_flat(u_flat) - (t * phi + ctx.h.values)

    def merit(u_flat, t, c):
        return float(np.abs(residual(u_flat, t)).max()) + abs(c) * op.matrix_scale()

    # the corrector's policy alternates between two values along the path;
    # each remembered linearization keeps the factor of its last bordered system
    factors = TwoPolicyFactors(op)
    column = -phi

    def correct(u0, t0, d_target):
        """Semismooth Newton on [F_h residual; (u - ref)[argmax] - d_target]."""
        u, t = u0.copy(), t0
        for _ in range(20):
            diff = u - ref
            jstar = int(np.argmax(diff))
            r = residual(u, t)
            c = diff[jstar] - d_target
            scale = 1.0 + np.abs(u).max()
            if np.abs(r).max() <= guard_tol(1e-10 * scale, op.matrix_scale(), np.abs(u).max()) \
                    and abs(c) <= 1e-11 * scale:
                return u, t, True
            lin = factors.linearize(u)
            try:
                delta = lin.solve_bordered(column, jstar, -np.concatenate([r, [c]]))
            except np.linalg.LinAlgError:
                return u, t, False
            base = merit(u, t, c)
            theta = 1.0
            accepted = False
            for _ in range(8):
                u_try = u + theta * delta[:N]
                t_try = t + theta * delta[N]
                c_try = (u_try - ref)[int(np.argmax(u_try - ref))] - d_target
                if merit(u_try, t_try, c_try) < base * (1.0 - 1e-4) or base == 0.0:
                    u, t = u_try, t_try
                    accepted = True
                    break
                theta *= 0.5
            if not accepted:
                return u, t, False
        return u, t, False

    def emit(u_flat, tv):
        return _fold_point(ctx, op, tv, GridFunction(grid, u_flat, check_finite=False),
                           1e-10 * (1.0 + np.abs(u_flat).max()))

    u = u_start.values.copy()
    t = t_start
    d_cur = float((u - ref).max())
    d_floor = 1e-3 * d_cur
    dstep = d_cur / (3.0 * max(n_samples, 4))
    dstep0 = dstep
    out_points = [emit(u, t)]
    fold_t = t
    fold_idx = 0
    step_at_fold = dstep
    fold_seen = False
    u_prev, t_prev, d_prev = u, t, d_cur

    for _ in range(600):
        if d_cur - d_floor <= 1e-14:
            break
        trial = min(dstep, d_cur - d_floor)
        ok = False
        while trial >= 1e-8 * max(d_cur, 1.0):
            d_target = d_cur - trial
            # secant predictor in d
            if d_prev != d_cur:
                w = trial / (d_cur - d_prev)
                u_pred = u + (u - u_prev) * w
                t_pred = t + (t - t_prev) * w
            else:
                u_pred, t_pred = u, t
            u_new, t_new, ok = correct(u_pred, t_pred, d_target)
            if ok:
                break
            trial *= 0.5
        if not ok:
            raise FoldTraceError("continuation step failed below minimal step size")
        u_prev, t_prev, d_prev = u, t, d_cur
        u, t, d_cur = u_new, t_new, d_target
        out_points.append(emit(u, t))
        if t < fold_t:
            fold_t = t
            fold_idx = len(out_points) - 1
            step_at_fold = max(abs(t - t_prev), 1e-9)
        elif t > fold_t:
            fold_seen = True
        dstep = min(trial * 1.3, 3.0 * dstep0)
        if fold_seen and t > fold_t + 0.3 * (t_start - fold_t):
            break
        if t > t_start + 1e-9:
            break

    # refine the fold: ternary search on the piecewise-smooth map d -> t(d)
    if fold_seen and 0 < fold_idx < len(out_points) - 1:
        ds = [float((p.u.values - ref).max()) for p in out_points]
        d_hi, d_lo = ds[fold_idx - 1], ds[fold_idx + 1]
        anchor = (out_points[fold_idx].u.values.copy(), out_points[fold_idx].t,
                  ds[fold_idx])
        evals = [anchor]

        def t_of(d_target):
            near = min(evals, key=lambda e: abs(e[2] - d_target))
            u_new, t_new, ok = correct(near[0], near[1], d_target)
            if not ok:
                return None
            evals.append((u_new, t_new, d_target))
            return t_new

        a, b = d_lo, d_hi
        refine_failed = False
        for _ in range(60):
            if b - a <= 1e-12 * max(1.0, d_hi):
                break
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            t1, t2 = t_of(m1), t_of(m2)
            if t1 is None or t2 is None:
                refine_failed = True
                break
            if t1 <= t2:
                b = m2
            else:
                a = m1
        if not refine_failed and evals:
            best = min(evals, key=lambda e: e[1])
            if best[1] <= fold_t:
                fold_t = best[1]
                near = sorted(evals, key=lambda e: abs(e[2] - best[2]))[:5]
                spread = max(e[1] for e in near) - fold_t
                step_at_fold = max(spread, 1e-10)
                out_points.insert(fold_idx + 1, emit(best[0], best[1]))
                fold_idx = fold_idx + 1
    return out_points, fold_t, step_at_fold, fold_idx


# ---------------------------------------------------------------------------
# 5. slightly-negative second eigenvalue: global existence sweep
# ---------------------------------------------------------------------------


def sweep_negative_regime(cfg: BranchConfig, ctx: BranchContext | None = None) -> Branch:
    """Sweep lam in (lam_1^-, lam_1^- + 0.05*max(|lam_1^-|, 1)]: solutions
    exist for every t; checks negativity for very negative t, growth of
    sup u for large t and the antimaximum property."""
    ctx = ctx or prepare(cfg)
    ctx.require("negative")
    op = ctx.operator()
    gap = ctx.lam - ctx.eig_minus.lam
    phi = ctx.eig_plus.phi

    def fallback(t: float) -> list[GridFunction | None]:
        scale = (1.0 + abs(t)) / max(gap, 1e-3)
        return [None, phi * (-scale), phi * scale, phi * (-0.1 * scale),
                mixed_mode(ctx.grid) * (0.1 * scale)]

    ts = np.linspace(cfg.t_range[0], cfg.t_range[1], cfg.n_samples)
    points = _sweep(ctx, op, ts, fallback, "existence inside the negative regime")

    ref = points[len(points) // 2].u
    _set_d(points, ref)

    # negativity threshold scan from below
    t_minus_probe = None
    for p in points:
        if "Negative" in p.regime_tags:
            t_minus_probe = p.t
        else:
            break

    # growth probes
    sup_top = points[-1].u.max()
    mid_idx = min(range(len(points)), key=lambda i: abs(points[i].t - points[-1].t / 2.0))
    sup_mid = points[mid_idx].u.max()

    antimax = antimaximum_probe(op, phi, gap)
    diagnostics = {
        "t_minus_probe": t_minus_probe,
        "sup_top": sup_top,
        "sup_mid": sup_mid,
        "interior_max": {p.t: interior_max(p.u) for p in points},
        "antimaximum": antimax,
        "gap": gap,
    }
    h_scale = 1.0 + sup_norm(ctx.h)
    if cfg.t_range[0] <= -5.0 * h_scale and (
            t_minus_probe is None or points[0].u.max() >= 0):
        raise RegimeError("very negative t did not produce a negative solution")
    if cfg.t_range[1] >= 10.0 * h_scale and not (sup_top > sup_mid > 0):
        raise RegimeError("sup u growth probe failed for large t")
    bad = [k for k, st in antimax.items() if not st["max"] < 0]  # NaN fails too
    if bad:
        raise RegimeError(f"antimaximum check failed for k={bad}")
    return Branch(points, ref, ctx.lam, diagnostics)


def antimaximum_probe(op: DiscreteOperator, phi: GridFunction, gap: float) -> dict:
    """Antimaximum probe at lam = lam_1^- + gap: the forcing -k*phi, phi > 0,
    must produce strictly negative solutions. Returns {k: {"converged",
    "max"}} for k in (0.5, 1, 2); "max" is NaN where no start converged."""
    antimax = {}
    for k in (0.5, 1.0, 2.0):
        u, rep = solve_with_starts(op, phi * (-k), [op.grid.zeros(),
                                                    phi * (-k / max(gap, 1e-3)),
                                                    phi * (-1.0)])
        antimax[k] = {"converged": rep.converged,
                      "max": u.max() if rep.converged else float("nan")}
    return antimax
