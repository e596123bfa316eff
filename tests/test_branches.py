from pathlib import Path

import numpy as np
import pytest

from conftest import FreshFactors, discrete_lam1, forgetful_linearize, uniqueness_probe_at
import hjbranch.branches
import hjbranch.checks
import hjbranch.cli
from hjbranch.checks import CheckSpec, _teo6_family, run_suite
from hjbranch.errors import ConfigurationError, RegimeError, RegimeMismatchError
from hjbranch.grids import GridFunction, build_grid, sup_norm
from hjbranch.branches import (
    AT_LAM_MINUS,
    AT_LAM_PLUS,
    BranchConfig,
    CriticalReport,
    diagram_coordinate,
    interior_max,
    locate_tstar_resonance,
    prepare,
    sweep_negative_regime,
    sweep_subcritical,
    trace_fold,
    trace_resonant_branch,
)
from hjbranch.howard import solve
from hjbranch.operators import ControlFamily, DiscreteOperator


@pytest.fixture(scope="module")
def fucik5_cfg(grid199):
    return BranchConfig(ControlFamily.fucik(5.0), grid199, 0.0, (-5.0, 5.0), 21)


def test_config_validation(grid199):
    fam = ControlFamily.fucik(5.0)
    with pytest.raises(ConfigurationError):
        BranchConfig(fam, grid199, 0.0, (1.0, -1.0))
    with pytest.raises(ConfigurationError):
        BranchConfig(fam, grid199, 0.0, (0.0, 1.0), n_samples=1)
    with pytest.raises(ConfigurationError):
        BranchConfig(fam, grid199, "at_lam_middle", (0.0, 1.0))


@pytest.mark.parametrize("levels", [0, -1])
def test_resonance_levels_below_one_refused(grid199, levels):
    with pytest.raises(ConfigurationError, match="resonance_levels"):
        BranchConfig(ControlFamily.fucik(5.0), grid199, "at_lam_minus", (0.0, 1.0),
                     resonance_levels=levels)


def test_h_fun_multiple_of_eigenfunction_rejected(grid199, sine):
    cfg = BranchConfig(ControlFamily.fucik(5.0), grid199, 0.0, (-1.0, 1.0),
                       h_fun=sine * 2.0)
    with pytest.raises(ConfigurationError):
        prepare(cfg)


def test_sweep_subcritical_laplacian_superposition(grid199, laplacian, sine, lam_h199):
    cfg = BranchConfig(laplacian, grid199, 0.0, (-1.0, 1.0), 3)
    branch = sweep_subcritical(cfg)
    for p in branch.points:
        expected = sine * (-p.t / lam_h199)
        assert sup_norm(p.u - expected) <= 1e-10
    mid = branch.points[1]
    assert mid.t == 0.0 and sup_norm(mid.u) <= 1e-12


def test_sweep_subcritical_properties(fucik5_cfg):
    branch = sweep_subcritical(fucik5_cfg)
    d = branch.diagnostics
    assert d["strict_decrease_gap"] > 0
    assert d["convexity_violation"] <= d["convexity_slack"]
    assert d["d_monotone"]
    assert np.isfinite(d["lipschitz"])
    assert branch.points[0].u.min() > 0  # t = -5
    assert branch.points[-1].u.max() < 0  # t = +5
    assert "Positive" in branch.points[0].regime_tags
    assert "Negative" in branch.points[-1].regime_tags


def test_sweep_subcritical_repeated_parameter(grid199):
    cfg = BranchConfig(ControlFamily.fucik(5.0), grid199, 0.0,
                       (1.0, 1.0 + 1e-12), 2)
    branch = sweep_subcritical(cfg)
    assert abs(branch.points[0].d - branch.points[1].d) <= 1e-9


def test_sweep_subcritical_wrong_regime(grid199):
    cfg = BranchConfig(ControlFamily.fucik(15.0), grid199, 0.0, (-1.0, 1.0))
    with pytest.raises(RegimeError):
        sweep_subcritical(cfg)  # lam_1^+ < 0 here


def test_locate_tstar_plus_homogeneous(grid199, lam_h199):
    fam = ControlFamily.fucik(lam_h199)
    cfg = BranchConfig(fam, grid199, AT_LAM_PLUS, (-3.0, 3.0), 11)
    crit = locate_tstar_resonance(cfg, "+")
    assert crit.kind == "ResonancePlus"
    lo, hi = crit.bracket
    assert lo < 0.0 < hi
    assert hi - lo <= 1e-3
    for eps, t, norm, cos in crit.blowup_evidence:
        assert cos >= 0.99


def test_locate_tstar_refuses_degenerate_family(grid199, laplacian):
    cfg = BranchConfig(laplacian, grid199, AT_LAM_PLUS, (-3.0, 3.0))
    with pytest.raises(RegimeError):
        locate_tstar_resonance(cfg, "+")


def test_trace_resonant_branch_refuses_a_degenerate_family_as_locate_does(
        grid199, laplacian, monkeypatch):
    cfg = BranchConfig(laplacian, grid199, AT_LAM_PLUS, (-3.0, 3.0))
    with pytest.raises(RegimeError) as located:
        locate_tstar_resonance(cfg, "+")
    calls = _count_solves(monkeypatch)
    with pytest.raises(RegimeError) as traced:
        trace_resonant_branch(cfg, CriticalReport(0.0, (-1e-4, 1e-4), "ResonancePlus"))
    assert str(traced.value) == str(located.value) == (
        "family is spectrally degenerate (lam_1^+ ~= lam_1^-); resonance modes are "
        "refused for such families")
    assert not isinstance(traced.value, ConfigurationError)
    assert calls == []


def test_locate_tstar_refuses_an_unknown_sign():
    with pytest.raises(ConfigurationError, match=r"^sign must be '\+' or '-'$") as exc:
        locate_tstar_resonance(_resonance_minus_cfg(), "x")
    assert not isinstance(exc.value, RegimeError)


def test_trace_resonant_plus(grid199, lam_h199):
    fam = ControlFamily.fucik(lam_h199)
    cfg = BranchConfig(fam, grid199, AT_LAM_PLUS, (-3.0, 12.0), 11)
    ctx = prepare(cfg)
    crit = CriticalReport(0.0, (-1e-4, 1e-4), "ResonancePlus")
    branch = trace_resonant_branch(cfg, crit, ctx)
    d = branch.diagnostics
    assert d["alternative"] == "ii"
    assert d["alternative_certified"]
    assert d["u_star_norm"] <= 1e-3
    assert all(v <= d["ray_tol"] for v in d["ray_residuals"].values())
    assert all(p["agree"] for p in d["uniqueness_probes"].values())
    top = max(branch.points, key=lambda p: p.t)
    assert top.u.max() < 0


def _resonance_minus_cfg(lam=AT_LAM_MINUS, lam_offset=0.0):
    """1D n=49 Fucik problem with lam_1^+ = lam_h - 4 < lam_1^- = lam_h."""
    g = build_grid(1, (0.0, 1.0), 49)
    x = g.coords()[:, 0]
    return BranchConfig(ControlFamily.fucik(discrete_lam1(49) + 4.0), g, lam, (-3.0, 3.0), 5,
                        h_fun=GridFunction(g, x * (1 - x)), lam_offset=lam_offset)


# the resonance band is 1e-9 * (1 + |lam_1^-|), about 1.1e-8 here
@pytest.mark.parametrize("lam, offset, regime", [
    (AT_LAM_PLUS, -1.0, "subcritical"),
    (AT_LAM_PLUS, -5e-9, "resonance_plus"),
    (AT_LAM_PLUS, 0.0, "resonance_plus"),
    (AT_LAM_PLUS, 5e-9, "resonance_plus"),
    (AT_LAM_PLUS, 2e-8, "fold"),
    (AT_LAM_PLUS, 2.0, "fold"),
    (AT_LAM_MINUS, 0.0, "resonance_minus"),
    (AT_LAM_MINUS, 0.5, "negative"),
])
def test_branch_context_regime(lam, offset, regime):
    ctx = prepare(_resonance_minus_cfg(lam, offset))
    assert ctx.regime == regime
    assert ctx.resonance_sign == {"resonance_plus": "+", "resonance_minus": "-"}.get(regime)


def test_locate_tstar_refuses_sign_off_the_regime():
    cfg = _resonance_minus_cfg()
    with pytest.raises(RegimeError, match="resonance_minus regime"):
        locate_tstar_resonance(cfg, "+")


def test_trace_resonant_branch_refuses_fold_report():
    crit = CriticalReport(0.0, (-1e-4, 1e-4), "Fold")
    with pytest.raises(RegimeError, match="'Fold'"):
        trace_resonant_branch(_resonance_minus_cfg(), crit)


def _count_solves(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(hjbranch.branches, "solve_with_starts",
                        lambda *args, **kwargs: calls.append(args))
    return calls


def test_trace_resonant_branch_refuses_a_context_off_its_resonance(monkeypatch):
    # lam = lam_1^+ - 1 = -5: the subcritical regime, not the report's resonance
    cfg = _resonance_minus_cfg(AT_LAM_PLUS, -1.0)
    calls = _count_solves(monkeypatch)
    crit = CriticalReport(0.0, (-1e-4, 1e-4), "ResonancePlus")
    with pytest.raises(RegimeMismatchError,
                       match="^lam: needs the resonance_plus regime, got the subcritical regime"):
        trace_resonant_branch(cfg, crit)
    assert calls == []


# each lam lies inside the resonance band of the eigenvalue it is offset from
@pytest.mark.parametrize("driver, lam, offset, needed, found", [
    (sweep_subcritical, AT_LAM_PLUS, -5e-9, "subcritical", "resonance_plus"),
    (trace_fold, AT_LAM_PLUS, 5e-9, "fold", "resonance_plus"),
    (sweep_negative_regime, AT_LAM_MINUS, 5e-9, "negative", "resonance_minus"),
])
def test_drivers_refuse_the_resonance_band_before_any_solve(monkeypatch, driver, lam, offset,
                                                            needed, found):
    cfg = _resonance_minus_cfg(lam, offset)
    calls = _count_solves(monkeypatch)
    with pytest.raises(RegimeMismatchError,
                       match=f"^lam: needs the {needed} regime, got the {found} regime") as exc:
        driver(cfg)
    assert isinstance(exc.value, ConfigurationError) and isinstance(exc.value, RegimeError)
    assert calls == []


def test_require_names_the_negative_window():
    ctx = prepare(_resonance_minus_cfg(AT_LAM_MINUS, 0.5))
    lo, hi = ctx.negative_window
    assert ctx.regime == "negative" and ctx.lam > hi
    with pytest.raises(RegimeMismatchError,
                       match=f"got the negative regime beyond lam_1\\^- \\+ {hi - lo:.3g} "):
        ctx.require("negative")
    assert prepare(_resonance_minus_cfg(AT_LAM_MINUS, 0.1)).require("negative") is None


def test_uniqueness_probe_at(grid199, lam_h199):
    fam = ControlFamily.fucik(lam_h199)
    cfg = BranchConfig(fam, grid199, AT_LAM_PLUS, (-3.0, 12.0), 11)
    ctx = prepare(cfg)
    for t in (0.5, 1.0, 5.0):
        probe = uniqueness_probe_at(ctx, t)
        assert probe["converged_starts"] >= 2
        assert probe["agree"]


def test_trace_fold_two_branches(grid199, lam_h199, sine):
    cfg = BranchConfig(ControlFamily.fucik(15.0), grid199, 0.0, (-1.0, 3.0), 17)
    minimal, second, crit = trace_fold(cfg)
    assert crit.kind == "Fold"
    assert crit.bracket[0] < 0.0 < crit.bracket[1] or abs(crit.t_star) < 1e-6
    # minimal branch at its top sample matches the negative closed form
    top = minimal.points[-1]
    assert sup_norm(top.u - sine * (-top.t / lam_h199)) <= 1e-8
    assert minimal.diagnostics["branch_gap_min"] > 1e-4
    assert minimal.diagnostics["merge_gap"] <= 1e-6
    assert minimal.diagnostics["strict_decrease_gap"] > 0


def test_trace_fold_continues_the_phi_aligned_second_solution():
    # on [0, 2] the census at t = 3 also finds a sign-changing solution, the
    # one farthest from the minimal one; d is not monotone along its ray
    grid = build_grid(1, (0.0, 2.0), 49)
    cfg = BranchConfig(ControlFamily.fucik(15.0), grid, 0.0, (-1.0, 3.0), 17)
    minimal, second, crit = trace_fold(cfg)
    assert crit.kind == "Fold" and abs(crit.t_star) < 1e-6
    assert second.points[0].u.max() > 0 and second.points[0].u.min() > -1e-8
    assert minimal.diagnostics["branch_gap_min"] > 1e-4


def test_trace_fold_refuses_a_minimal_branch_that_does_not_decrease(monkeypatch):
    minimal_branch = hjbranch.branches._minimal_branch
    census = []

    def flat_top(ctx, op, ts_desc):
        # the top point repeats the solution of its neighbour below
        points, fail_bracket = minimal_branch(ctx, op, ts_desc)
        points[-1].u = points[-2].u
        return points, fail_bracket

    monkeypatch.setattr(hjbranch.branches, "_minimal_branch", flat_top)
    monkeypatch.setattr(hjbranch.branches, "basin_census", lambda *args, **kw: census.append(1))
    cfg = BranchConfig(ControlFamily.fucik(15.0), build_grid(1, (0.0, 1.0), 49), 0.0,
                       (-1.0, 3.0), 9)
    with pytest.raises(RegimeError, match=r"^minimal branch not strictly decreasing \(gap 0\.0\)$"):
        trace_fold(cfg)
    assert census == []


def test_trace_fold_wrong_regime(grid199):
    cfg = BranchConfig(ControlFamily.fucik(5.0), grid199, 0.0, (-1.0, 3.0))
    with pytest.raises(RegimeError):
        trace_fold(cfg)


def test_locate_tstar_minus(grid199, lam_h199):
    fam = ControlFamily.fucik(lam_h199 + 4.0)
    x = grid199.coords()[:, 0]
    cfg = BranchConfig(fam, grid199, AT_LAM_MINUS, (-3.0, 3.0), 11,
                       h_fun=GridFunction(grid199, x * (1 - x)))
    crit = locate_tstar_resonance(cfg, "-")
    assert crit.kind == "ResonanceMinus"
    # the all-negative sector is linear here, so t* is the orthogonality value
    phi = np.sin(np.pi * x)
    t0 = -float(np.dot(x * (1 - x), phi) / np.dot(phi, phi))
    assert crit.bracket[0] < t0 < crit.bracket[1]


def test_locate_tstar_classifies_each_t_once_per_level():
    grid = build_grid(1, (0.0, 1.0), 49)
    fam = ControlFamily.fucik(discrete_lam1(49) + 4.0)
    x = grid.coords()[:, 0]
    cfg = BranchConfig(fam, grid, AT_LAM_MINUS, (-3.0, 3.0), 5,
                       h_fun=GridFunction(grid, x * (1 - x)),
                       resonance_levels=6)
    ctx = prepare(cfg)
    # every classify starts with ctx.rhs(t); each level builds one operator
    levels, calls = [], []
    operator, rhs = ctx.operator, ctx.rhs
    ctx.operator = lambda lam=None: levels.append(lam) or operator(lam)
    ctx.rhs = lambda t: calls.append((len(levels), t)) or rhs(t)
    locate_tstar_resonance(cfg, "-", ctx)
    assert len(levels) == 6
    assert len(calls) == len(set(calls))
    # the re-centred bracket was accepted: a level that never classified t_range
    assert any((k, -3.0) not in calls for k in range(3, 7))


def test_sweep_negative_regime(grid199, lam_h199):
    fam = ControlFamily.fucik(lam_h199 + 4.0)
    x = grid199.coords()[:, 0]
    cfg = BranchConfig(fam, grid199, AT_LAM_MINUS, (-100.0, 100.0), 21,
                       h_fun=GridFunction(grid199, x * (1 - x)), lam_offset=0.1)
    branch = sweep_negative_regime(cfg)
    d = branch.diagnostics
    assert len(branch.points) == 21
    assert d["sup_top"] > d["sup_mid"] > 0
    assert all(st["max"] < 0 for st in d["antimaximum"].values())
    assert branch.points[0].u.max() < 0  # t = -100


def test_sweep_negative_regime_homogeneous_through_zero(grid199, lam_h199):
    # with h = 0 the sweep passes through the trivial solution at t = 0
    fam = ControlFamily.fucik(lam_h199 + 4.0)
    cfg = BranchConfig(fam, grid199, AT_LAM_MINUS, (-2.0, 2.0), 5, lam_offset=0.1)
    branch = sweep_negative_regime(cfg)
    mid = min(branch.points, key=lambda p: abs(p.t))
    assert mid.t == 0.0
    assert sup_norm(mid.u) <= 1e-8


def test_sweep_negative_regime_wrong_lambda(grid199, lam_h199):
    fam = ControlFamily.fucik(lam_h199 + 4.0)
    cfg = BranchConfig(fam, grid199, 0.0, (-10.0, 10.0), 5)
    with pytest.raises(RegimeError):
        sweep_negative_regime(cfg)


def test_make_teo6_family(grid199, lam_h199):
    fam, d0 = _teo6_family(grid199)
    assert d0 == pytest.approx((discrete_lam1(99, 0.5) - lam_h199) / 2, rel=1e-6)
    # the two controls carry b_plus and b_minus as their zeroth-order terms
    bp, bm = (c.zeroth for c in fam.controls)
    assert bp == pytest.approx(lam_h199 + d0 / 2, rel=1e-9)
    assert bm == pytest.approx(lam_h199 + d0 / 4, rel=1e-9)


def test_uniqueness_probe_teo6(grid199):
    [row] = run_suite([CheckSpec("T1.6", grid=grid199, seed=5)])
    m = row.metrics
    assert -m["d0"] <= m["lam_plus"] <= m["lam_minus"] < 0
    # the seeded right-hand sides, phi^+ + h, zero and the constants +-50
    assert m["n_cases"] == hjbranch.checks._N_RHS + 4
    assert row.status == "Pass" and m["max_solutions_per_case"] == 1.0
    op = DiscreteOperator(_teo6_family(grid199)[0], grid199, 0.0)
    u_pos, rep_pos = solve(op, grid199.ones() * 50.0)
    assert rep_pos.converged and u_pos.min() > 0  # large positive forcing, positive solution
    u_neg, rep_neg = solve(op, grid199.ones() * (-50.0))
    assert rep_neg.converged and u_neg.max() < 0


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [99, 399])
def test_uniqueness_probe_teo6_counts_zero_once_on_any_grid(n, seed):
    # solve certifies the zero forcing only up to its conditioning guard,
    # which at these n exceeds the bare residual target; iterates of u = 0
    # within that guard are one solution, not several
    [row] = run_suite([CheckSpec("T1.6", grid=build_grid(1, (0.0, 1.0), n), seed=seed)])
    assert row.metrics["max_solutions_per_case"] == 1.0
    assert row.status == "Pass"


def test_uniqueness_probe_teo6_regime_guard(grid199, monkeypatch):
    # fucik(5) has both eigenvalues near 4.9, outside (-d0, 0)
    monkeypatch.setattr(hjbranch.checks, "_teo6_family",
                        lambda grid: (ControlFamily.fucik(5.0), 1.0))
    [row] = run_suite([CheckSpec("T1.6", grid=grid199)])
    assert (row.status, row.invariant) == ("Fail", "runner aborted")
    assert row.message.startswith("probe needs -d0 <= lam_1^+ <= lam_1^- < 0")


def test_2d_subcritical_sweep():
    from hjbranch.grids import build_grid
    g2 = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (24, 24))
    cfg = BranchConfig(ControlFamily.fucik(5.0, dim=2), g2, 0.0, (-3.0, 3.0), 7)
    branch = sweep_subcritical(cfg)
    assert branch.diagnostics["strict_decrease_gap"] > 0
    assert branch.diagnostics["convexity_violation"] <= \
        branch.diagnostics["convexity_slack"]


def test_2d_fold():
    from hjbranch.grids import build_grid
    g2 = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (24, 24))
    # weight above the 2D principal eigenvalue puts lam_1^+ < 0 < lam_1^-
    cfg = BranchConfig(ControlFamily.fucik(25.0, dim=2), g2, 0.0, (-1.0, 3.0), 9)
    minimal, second, crit = trace_fold(cfg)
    assert abs(crit.t_star) <= 1e-6  # homogeneous h folds at the origin
    assert minimal.diagnostics["branch_gap_min"] > 1e-4
    assert minimal.diagnostics["merge_gap"] <= 1e-6


def test_2d_resonance_minus_matches_orthogonality():
    from hjbranch.grids import build_grid
    from hjbranch.eigen import principal_eigen
    g2 = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (24, 24))
    em = principal_eigen(ControlFamily.fucik(5.0, dim=2), g2, "-")
    fam = ControlFamily.fucik(em.lam + 4.0, dim=2)
    c = g2.coords()
    hf = GridFunction(g2, c[:, 0] * (1 - c[:, 0]) * c[:, 1] * (1 - c[:, 1]))
    cfg = BranchConfig(fam, g2, AT_LAM_MINUS, (-2.0, 2.0), 9, h_fun=hf)
    ctx = prepare(cfg)
    crit = locate_tstar_resonance(cfg, "-", ctx)
    phi = ctx.eig_plus.phi
    t0 = -float(np.dot(hf.values, phi.values) / np.dot(phi.values, phi.values))
    assert crit.bracket[0] < t0 < crit.bracket[1]


def test_resonance_on_genuinely_nonlinear_family(grid199):
    # two-control sup family (distinct diffusions, drift, zeroth terms)
    # shifted so its positive eigenvalue is at the spectral parameter
    base = ControlFamily.finite_sup([((1.0,), (0.0,), 0.0),
                                     ((1.4,), (0.3,), 0.6)])
    x = grid199.coords()[:, 0]
    hf = GridFunction(grid199, 0.4 * np.sin(2 * np.pi * x) + 0.2)
    cfg = BranchConfig(base, grid199, AT_LAM_PLUS, (-5.0, 8.0), 9, h_fun=hf)
    ctx = prepare(cfg)
    crit = locate_tstar_resonance(cfg, "+", ctx)
    assert crit.bracket[1] - crit.bracket[0] <= 1e-2
    branch = trace_resonant_branch(cfg, crit, ctx)
    d = branch.diagnostics
    assert d["alternative"] in ("i", "ii", "open")
    assert not d["alternative_certified"]  # only the settled case certifies
    assert all(p["agree"] for p in d["uniqueness_probes"].values())


def test_diagram_coordinate_is_the_signed_sup_norm_of_ordered_differences():
    rng = np.random.default_rng(0)
    for grid in (build_grid(1, (0.0, 1.0), 49), build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (7, 5))):
        for _ in range(100):
            ref = GridFunction(grid, rng.standard_normal(grid.num_nodes))
            gap = np.abs(rng.standard_normal(grid.num_nodes)) * 10.0 ** rng.integers(-8, 8)
            gap[rng.random(grid.num_nodes) < 0.3] = 0.0  # ties with ref
            above = GridFunction(grid, ref.values + gap)
            below = GridFunction(grid, ref.values - gap)
            assert diagram_coordinate(above, ref) == sup_norm(above - ref)
            assert diagram_coordinate(below, ref) == -sup_norm(below - ref)
        # u == ref gives +0.0, the sign of x - x
        assert np.copysign(1.0, diagram_coordinate(ref, ref)) == 1.0


def test_diagram_coordinate_fallback(grid199):
    vals = np.zeros(grid199.num_nodes)
    vals[0], vals[3] = 2.0, -1.0
    u = GridFunction(grid199, vals)
    assert diagram_coordinate(u, grid199.zeros()) == 2.0


def test_interior_max_middle_third(grid199):
    x = grid199.coords()[:, 0]
    u = GridFunction(grid199, np.where((x > 0.4) & (x < 0.45), -1.0, -5.0))
    assert interior_max(u) == -1.0


def _never_converges_at(monkeypatch, bad_f):
    """Make ``solve`` and ``solve_with_starts`` in the branch module fail for
    the right-hand side ``bad_f`` and behave normally otherwise."""
    import hjbranch.branches as branches
    from hjbranch.howard import MAX_ITERS, SolveReport

    solve, solve_with_starts = branches.solve, branches.solve_with_starts

    def failing_solve(op, f, *args, **kwargs):
        if np.array_equal(f.values, bad_f.values):
            return f.grid.zeros(), SolveReport(MAX_ITERS, 0)
        return solve(op, f, *args, **kwargs)

    def failing_starts(op, f, *args, **kwargs):
        if np.array_equal(f.values, bad_f.values):
            return f.grid.zeros(), SolveReport(MAX_ITERS, 0)
        return solve_with_starts(op, f, *args, **kwargs)

    monkeypatch.setattr(branches, "solve", failing_solve)
    monkeypatch.setattr(branches, "solve_with_starts", failing_starts)


def test_sweep_driver_unsolved_parameter(monkeypatch):
    g = build_grid(1, (0.0, 1.0), 49)
    cfg = BranchConfig(ControlFamily.fucik(5.0), g, 0.0, (-5.0, 5.0), 5)
    ctx = prepare(cfg)
    _never_converges_at(monkeypatch, ctx.rhs(2.5))
    with pytest.raises(RegimeError, match=r"t=2\.5: MaxIters"):
        sweep_subcritical(cfg, ctx)


def test_resonant_sweep_that_solves_no_t_is_refused(monkeypatch):
    from hjbranch.howard import MAX_ITERS, SolveReport

    cfg = _resonance_minus_cfg()
    crit = CriticalReport(-0.26, (-0.2601, -0.2599), "ResonanceMinus")
    monkeypatch.setattr(hjbranch.branches, "solve_with_starts",
                        lambda op, f, *args, **kwargs: (f.grid.zeros(), SolveReport(MAX_ITERS, 0)))
    with pytest.raises(RegimeError, match=r"^resonant sweep solved no t in \[-0\.26, 3\.0\]$"):
        trace_resonant_branch(cfg, crit)


def test_sweep_driver_drops_unsolved_parameter_at_resonance_minus(monkeypatch):
    g = build_grid(1, (0.0, 1.0), 49)
    x = g.coords()[:, 0]
    cfg = BranchConfig(ControlFamily.fucik(discrete_lam1(49) + 4.0), g, AT_LAM_MINUS,
                       (-3.0, 3.0), 5, h_fun=GridFunction(g, x * (1 - x)))
    ctx = prepare(cfg)
    phi = np.sin(np.pi * x)
    t_star = -float(np.dot(x * (1 - x), phi) / np.dot(phi, phi))
    def traced_ts():
        crit = CriticalReport(t_star, (t_star - 1e-4, t_star + 1e-4), "ResonanceMinus")
        branch = trace_resonant_branch(cfg, crit, ctx)
        return [p.t for p in branch.points]

    full = traced_ts()
    bad_t = full[len(full) // 2]
    _never_converges_at(monkeypatch, ctx.rhs(bad_t))
    dropped = traced_ts()
    assert dropped == [t for t in full if t != bad_t]


def _small_fold_cfg():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (15, 15))
    return BranchConfig(ControlFamily.fucik(26.0, dim=2), g, 0.0, (-1.0, 3.0), 9)


def test_fold_with_reused_factors_matches_fresh_factors(monkeypatch):
    import scipy.sparse.linalg
    from hjbranch.operators import DiscreteOperator, TwoPolicyFactors

    shipped = trace_fold(_small_fold_cfg())

    # every linearization built anew, every solve on factors made for it
    monkeypatch.setattr(TwoPolicyFactors, "linearize", lambda memory, u: memory.op.linearize(u))
    monkeypatch.setattr(DiscreteOperator, "linearize", forgetful_linearize)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", FreshFactors)
    fresh = trace_fold(_small_fold_cfg())

    (min_a, second_a, crit_a), (min_b, second_b, crit_b) = shipped, fresh
    assert crit_a.t_star == crit_b.t_star
    assert crit_a.bracket == crit_b.bracket
    for a, b in ((min_a, min_b), (second_a, second_b)):
        assert [p.t for p in a.points] == [p.t for p in b.points]
        for p, q in zip(a.points, b.points):
            assert np.array_equal(p.u.values, q.u.values)


def test_fold_factorization_count_stays_below_policy_iterations(monkeypatch):
    import scipy.sparse.linalg
    import hjbranch.branches as branches
    import hjbranch.eigen as eigen
    import hjbranch.howard as howard

    splu, solve = scipy.sparse.linalg.splu, howard.solve
    cfg = _small_fold_cfg()
    factorizations, bordered, policy_iters = [0], [0], [0]

    def counting_splu(A, *args, **kwargs):
        factorizations[0] += 1
        # the corrector's bordered systems have one row and column more
        bordered[0] += A.shape[0] == cfg.grid.num_nodes + 1
        return splu(A, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        u, rep = solve(*args, **kwargs)
        policy_iters[0] += rep.iters
        return u, rep

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    for module in (howard, branches, eigen):
        monkeypatch.setattr(module, "solve", counting_solve)
    trace_fold(cfg)
    # the count is machine-independent; without reuse it exceeds policy_iters
    assert policy_iters[0] > 100
    assert factorizations[0] <= policy_iters[0] // 4
    # the corrector reuses its bordered factors: 2 on this path
    assert 1 <= bordered[0] <= 2


@pytest.fixture(scope="module", params=["fucik_fold", "fucik(26) 15x15"])
def fold_trace(request):
    """The shipped 1D fold scenario (n=199) and the small 2D fold."""
    if request.param == "fucik_fold":
        scenario = hjbranch.cli.parse_scenario(
            str(Path(hjbranch.cli.__file__).parent / "scenarios" / "fucik_fold.json"))
        cfg = scenario.branch_config()
    else:
        cfg = _small_fold_cfg()
    ctx = prepare(cfg)
    return ctx, trace_fold(cfg, ctx)


def test_every_fold_point_reports_its_fresh_residual_within_its_tolerance(fold_trace):
    ctx, (minimal, second, _) = fold_trace
    op = ctx.operator()
    for p in minimal.points + second.points:
        fresh = float(np.abs(op.apply_flat(p.u.values) - ctx.rhs(p.t).values).max())
        assert p.solve.final_residual == fresh
        assert p.solve.final_residual <= p.solve.tol


def test_fold_t_star_is_the_t_of_the_fold_point(fold_trace):
    _, (_, second, crit) = fold_trace
    assert crit.t_star == second.points[second.diagnostics["fold_index"]].t
