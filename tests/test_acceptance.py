"""Acceptance battery: one test per criterion, each printing a pass line.

Expected values come from closed forms of the three-point stencil
spectrum (lam_h = (2/h^2)(1 - cos(pi h)) = (4/h^2) sin^2(pi h/2), the
second form free of cancellation on fine grids), explicit ODE solutions, or
cross-checks between two independent methods, never from the code path
under test.
"""

import json
import time

import numpy as np

import hjbranch.cli as cli
from hjbranch.branches import (
    AT_LAM_MINUS,
    AT_LAM_PLUS,
    BranchConfig,
    locate_tstar_resonance,
    make_teo6_family,
    prepare,
    sweep_negative_regime,
    sweep_subcritical,
    trace_fold,
    trace_resonant_branch,
    uniqueness_probe_at,
    uniqueness_probe_teo6,
)
from hjbranch.eigen import eigen_bisect_crosscheck, principal_eigen
from hjbranch.grids import GridFunction, build_grid, sup_norm
from hjbranch.howard import basin_census, solve_with_starts
from hjbranch.operators import ControlFamily, DiscreteOperator, check_h0_h3

SCENARIOS = __import__("pathlib").Path(cli.__file__).parent / "scenarios"


def _report(num: int, text: str, started: float, budget: float):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"[PASS] criterion {num:2d} ({elapsed:6.2f}s): {text}")


def test_criterion_01_laplacian_eigen_oracle(grid199, laplacian, lam_h199):
    started = time.time()
    pair = principal_eigen(laplacian, grid199, "+")
    assert abs(pair.lam - lam_h199) <= 1e-9
    assert abs(pair.lam - np.pi**2) / np.pi**2 <= 5e-4
    errs, hs = [], []
    for n in (49, 99, 199, 399, 1599, 3199):
        g = build_grid(1, (0.0, 1.0), n)
        lam = principal_eigen(ControlFamily.laplacian(dim=1), g, "+").lam
        h = g.h[0]
        # the cancellation-free form of the closed-form lam_h
        assert abs(lam - 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2) <= 1e-9
        errs.append(abs(lam - np.pi**2))
        hs.append(h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1
    _report(1, f"lam={pair.lam:.12f}, order slope={slope:.3f}", started, 1.0)


def test_criterion_02_pucci_eigen_oracle(grid199, lam_h199, sine):
    started = time.time()
    fam = ControlFamily.pucci_plus(1.0, 2.0)
    plus = principal_eigen(fam, grid199, "+")
    minus = principal_eigen(fam, grid199, "-")
    assert abs(plus.lam - lam_h199) / lam_h199 <= 1e-8
    assert abs(minus.lam - 2.0 * lam_h199) / (2.0 * lam_h199) <= 1e-8
    assert sup_norm(plus.phi - sine) <= 1e-6
    assert sup_norm(minus.phi + sine) <= 1e-6
    _report(2, f"lam+={plus.lam:.9f} (1x), lam-={minus.lam:.9f} (2x)", started, 1.0)


def test_criterion_03_fucik_spectrum(grid199, lam_h199):
    started = time.time()
    for b in (1.0, 5.0, 8.0):
        fam = ControlFamily.fucik(b)
        assert abs(principal_eigen(fam, grid199, "+").lam - (lam_h199 - b)) <= 1e-8
        assert abs(principal_eigen(fam, grid199, "-").lam - lam_h199) <= 1e-8
    _report(3, "lam+ = lam_1 - b and lam- = lam_1 for b in {1, 5, 8}", started, 5.0)


def test_criterion_04_cross_method_agreement(grid199, laplacian, lam_h199):
    started = time.time()
    cases = [
        (laplacian, "+", (5.0, 15.0)),
        (laplacian, "-", (5.0, 15.0)),
        (ControlFamily.pucci_plus(1.0, 2.0), "+", (lam_h199 - 1, lam_h199 + 1)),
        (ControlFamily.pucci_plus(1.0, 2.0), "-", (2 * lam_h199 - 1, 2 * lam_h199 + 1)),
    ]
    for b in (1.0, 5.0, 8.0):
        fam = ControlFamily.fucik(b)
        cases.append((fam, "+", (lam_h199 - b - 1, lam_h199 - b + 1)))
        cases.append((fam, "-", (lam_h199 - 1, lam_h199 + 1)))
    worst = 0.0
    for fam, sign, bracket in cases:
        direct = principal_eigen(fam, grid199, sign).lam
        bisected = eigen_bisect_crosscheck(fam, grid199, sign, bracket)
        worst = max(worst, abs(direct - bisected))
    assert worst <= 1e-7
    worst_mirror = 0.0
    for fam in (ControlFamily.fucik(5.0), ControlFamily.pucci_plus(1.0, 2.0)):
        direct = principal_eigen(fam, grid199, "-")
        mirrored = principal_eigen(fam.mirror(), grid199, "+")
        worst_mirror = max(worst_mirror, abs(direct.lam - mirrored.lam))
        assert np.array_equal(mirrored.phi.values, -direct.phi.values)
        assert mirrored.iters == direct.iters
    assert worst_mirror == 0.0
    _report(4, f"bisect gap={worst:.2e}, mirror gap={worst_mirror:.2e}", started, 30.0)


def test_criterion_05_subcritical_branch(grid199):
    started = time.time()
    cfg = BranchConfig(ControlFamily.fucik(5.0), grid199, 0.0, (-5.0, 5.0), 21)
    branch = sweep_subcritical(cfg)
    d = branch.diagnostics
    assert d["strict_decrease_gap"] > 0.0
    assert d["convexity_violation"] <= d["convexity_slack"]
    assert np.isfinite(d["lipschitz"])
    assert branch.points[0].u.min() > 0
    assert branch.points[-1].u.max() < 0
    _report(5, f"monotone branch, Lipschitz C={d['lipschitz']:.4f}, "
               f"convexity slack used={d['convexity_violation']:.1e}", started, 10.0)


def test_criterion_06_resonance_plus(grid199, lam_h199):
    started = time.time()
    fam = ControlFamily.fucik(lam_h199)
    cfg = BranchConfig(fam, grid199, AT_LAM_PLUS, (-3.0, 12.0), 11)
    ctx = prepare(cfg)
    crit = locate_tstar_resonance(cfg, "+", ctx)
    lo, hi = crit.bracket
    assert lo < 0.0 < hi
    assert hi - lo <= 1e-3
    halfw = 0.5 * (hi - lo)
    branch = trace_resonant_branch(cfg, crit, ctx)
    diag = branch.diagnostics
    assert diag["alternative"] == "ii"
    assert diag["u_star_norm"] <= 10 * halfw + 1e-3
    assert set(diag["ray_residuals"]) == {1.0, 2.0, 5.0}
    assert all(v <= diag["ray_tol"] for v in diag["ray_residuals"].values())
    for t in (0.5, 1.0, 5.0):
        probe = uniqueness_probe_at(cfg, t, ctx=ctx)
        assert probe["converged_starts"] >= 2 and probe["agree"]
    p10 = min(branch.points, key=lambda p: abs(p.t - 10.0))
    assert p10.u.max() < 0
    _report(6, f"t*+ in [{lo:.2e}, {hi:.2e}], case (ii) with u*=0, "
               f"rays pass, u(10) < 0", started, 60.0)


def test_criterion_07_fold_multiplicity(grid199, lam_h199, sine):
    started = time.time()
    cfg = BranchConfig(ControlFamily.fucik(15.0), grid199, 0.0, (-1.0, 3.0), 17)
    ctx = prepare(cfg)
    minimal, second, crit = trace_fold(cfg, ctx)
    op = ctx.operator()
    census = basin_census(op, ctx.rhs(1.0), ctx.ladder(2.0), distinct_gap=1e-4)
    assert len(census) == 2  # exactly two basins, no third
    gaps = [sup_norm(a[0] - b[0]) for a in census for b in census if a is not b]
    assert min(gaps) > 1e-4
    target = sine * (-1.0 / lam_h199)
    best = min(census, key=lambda c: sup_norm(c[0] - target))
    assert sup_norm(best[0] - target) <= 1e-6
    assert crit.bracket[0] < crit.t_star < crit.bracket[1]
    below = basin_census(op, ctx.rhs(crit.t_star - 0.5), ctx.ladder(2.0))
    assert len(below) == 0
    _report(7, f"two solutions at t=1 (gap {min(gaps):.3f}), fold at "
               f"{crit.t_star:.2e}, none at t*-0.5", started, 60.0)


def test_criterion_08_antimaximum(grid199, lam_h199):
    started = time.time()
    fam = ControlFamily.fucik(3.0)
    minus = principal_eigen(fam, grid199, "-")
    plus = principal_eigen(fam, grid199, "+")
    op = DiscreteOperator(fam, grid199, minus.lam + 0.1)
    worst = -np.inf
    for k in (0.5, 1.0, 2.0):
        f = plus.phi * (-k)
        u, rep = solve_with_starts(op, f, [grid199.zeros(),
                                           plus.phi * (-10.0 * k),
                                           plus.phi * (-1.0)])
        assert rep.converged
        assert u.max() < 0
        worst = max(worst, u.max())
    _report(8, f"u < 0 for k in {{0.5, 1, 2}}, worst max = {worst:.4f}",
            started, 5.0)


def test_criterion_09_negative_regime_evidence(grid199, lam_h199):
    started = time.time()
    fam = ControlFamily.fucik(lam_h199 + 4.0)
    x = grid199.coords()[:, 0]
    h_fun = GridFunction(grid199, x * (1 - x))
    cfg = BranchConfig(fam, grid199, AT_LAM_MINUS, (-100.0, 100.0), 21,
                       h_fun=h_fun, lam_offset=0.1)
    branch = sweep_negative_regime(cfg)  # raises on any existence failure
    assert len(branch.points) == 21
    by_t = {p.t: p for p in branch.points}
    sups = [by_t[t].u.max() for t in (10.0, 50.0, 100.0)]
    assert sups[0] > 0 and sups[0] < sups[1] < sups[2]
    kmax = {t: branch.diagnostics["interior_max"][t] for t in (-10.0, -50.0, -100.0)}
    assert kmax[-10.0] < -10.0
    assert kmax[-10.0] > kmax[-50.0] > kmax[-100.0]

    cfg_res = BranchConfig(fam, grid199, AT_LAM_MINUS, (-3.0, 3.0), 11, h_fun=h_fun)
    ctx = prepare(cfg_res)
    crit = locate_tstar_resonance(cfg_res, "-", ctx)
    bounds = crit.diagnostics["boundaries"]
    widths = crit.diagnostics["widths"]
    tail = min(len(bounds), 5)
    for i in range(len(bounds) - tail, len(bounds) - 1):
        assert bounds[i + 1] >= bounds[i] - (widths[i] + widths[i + 1] + 1e-12)
    res = trace_resonant_branch(cfg_res, crit, ctx)
    assert res.diagnostics["nonexistence_below"]
    assert res.diagnostics["existence_above"]
    _report(9, f"existence across [-100, 100]; growth/decay trends hold; "
               f"t*- = {crit.t_star:.6f} bracketed monotonically", started, 120.0)


def test_criterion_10_uniqueness_when_both_negative(grid199):
    started = time.time()
    fam, d0 = make_teo6_family(grid199)
    rep = uniqueness_probe_teo6(fam, grid199, seed=0, d0=d0)
    assert -d0 <= rep["lam_plus"] <= rep["lam_minus"] < 0
    assert rep["all_unique"]
    seeded = [c for c in rep["cases"] if c["label"] == "seeded"]
    assert len(seeded) == 10
    assert all(c["n_solutions"] == 1 and c["converged_starts"] >= 2 for c in seeded)
    _report(10, f"d0={d0:.4f}, eigenvalues ({rep['lam_plus']:.3f}, "
                f"{rep['lam_minus']:.3f}), one solution per rhs", started, 60.0)


def test_criterion_11_operator_algebra(grid199):
    started = time.time()
    families = {
        "linear": ControlFamily.laplacian(dim=1),
        "fucik": ControlFamily.fucik(5.0),
        "pucci_plus": ControlFamily.pucci_plus(1.0, 2.0),
        "pucci_minus": ControlFamily.pucci_minus(1.0, 2.0),
        "finite_sup3": ControlFamily.finite_sup([
            ((1.0,), (0.0,), -1.0),
            ((1.5,), (0.5,), 0.5),
            ((2.0,), (-0.5,), -0.25),
        ]),
    }
    worst = 0.0
    for fam in families.values():
        rep = check_h0_h3(DiscreteOperator(fam, grid199, 0.0), trials=100, seed=0)
        worst = max(worst, rep.homogeneity, rep.additivity, rep.midpoint, rep.sandwich)
    assert worst <= 1e-10
    _report(11, f"H0/H3/midpoint/envelope sandwich, worst scaled violation "
                f"{worst:.2e}", started, 5.0)


def test_criterion_12_subdomain_gap_oracle(grid199, laplacian):
    started = time.time()
    from hjbranch.eigen import subdomain_gap
    lam_full, lam_sub = subdomain_gap(laplacian, grid199)
    ratio = lam_sub / lam_full
    assert abs(ratio - 4.0) / 4.0 <= 0.005
    _report(12, f"half-domain eigenvalue ratio {ratio:.6f}", started, 2.0)


def test_criterion_13_reproducibility(tmp_path):
    started = time.time()
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    scenario = str(SCENARIOS / "fucik_subcritical.json")
    assert cli.main(["branch", scenario, "--out", str(out1)]) == 0
    assert cli.main(["branch", scenario, "--out", str(out2)]) == 0
    assert (out1 / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()
    eigj = str(SCENARIOS / "laplacian_eigen.json")
    for out in (tmp_path / "e1", tmp_path / "e2"):
        assert cli.main(["eigen", eigj, "--out", str(out)]) == 0
    assert (tmp_path / "e1" / "eigen_plus.csv").read_bytes() == \
        (tmp_path / "e2" / "eigen_plus.csv").read_bytes()
    # exit-code contract: 0 ok / 2 schema / 3 admissibility
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"dim": 1, "extents": [[0, 1]], "n": [49]},
                               "family": {"kind": "linear"}, "typo_key": 1}))
    assert cli.main(["eigen", str(bad), "--out", str(tmp_path / "o1")]) == 2
    cfl = tmp_path / "cfl.json"
    cfl.write_text(json.dumps({
        "grid": {"dim": 1, "extents": [[0, 1]], "n": [199]},
        "family": {"kind": "finite_sup", "controls": [
            {"diffusion": [[1.0]], "drift": [5000.0], "zeroth": 0.0}]}}))
    assert cli.main(["eigen", str(cfl), "--out", str(tmp_path / "o2")]) == 3
    suite_out = tmp_path / "suite"
    assert cli.main(["suite", str(SCENARIOS / "laplacian_eigen.json"),
                     "--out", str(suite_out)]) == 0
    _report(13, "byte-identical CSVs across reruns; exit codes 0/2/3 verified; "
                "full check suite green (exit 0)", started, 120.0)
