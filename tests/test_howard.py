import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_problems
from hjbranch.checks import _abp_ratio
from hjbranch.eigen import principal_eigen
from hjbranch.errors import UsageError
from hjbranch.grids import GridFunction, build_grid, sup_norm
import hjbranch.howard as howard
from hjbranch.howard import (
    CONVERGED,
    DIVERGED,
    MAX_ITERS,
    SINGULAR,
    SolveReport,
    basin_census,
    solve,
    solve_with_starts,
)
from hjbranch.operators import ControlFamily, DiscreteOperator


def test_solve_laplacian_sine(grid199, laplacian, sine):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    f = sine * (-np.pi**2)
    u, rep = solve(op, f)
    assert rep.status == CONVERGED
    # exact solution of the ODE is sin(pi x); discrete error is O(h^2) with C <= 1
    h = grid199.h[0]
    assert sup_norm(u - sine) <= h**2


def test_solve_proper_zero_rhs_one_iteration(grid199):
    fam = ControlFamily.linear(1.0, zeroth=-2.0)
    op = DiscreteOperator(fam, grid199, 0.0)
    u, rep = solve(op, grid199.zeros())
    assert rep.status == CONVERGED
    assert rep.iters == 1
    assert sup_norm(u) == 0.0


def test_solve_fucik_negative_branch(grid199, sine, lam_h199):
    # between the eigenvalues the negative start lands on the negative
    # solution u = -sin(pi x)/lam_h of the inactive-weight branch
    op = DiscreteOperator(ControlFamily.fucik(15.0), grid199, 0.0)
    u, rep = solve(op, sine, u0=sine * (-10.0))
    assert rep.status == CONVERGED
    assert sup_norm(u - sine * (-1.0 / lam_h199)) <= 1e-10


def test_residual_history_monotone_after_first(grid199, lam_h199):
    op = DiscreteOperator(ControlFamily.fucik(15.0), grid199, 0.0)
    x = grid199.coords()[:, 0]
    f = GridFunction(grid199, np.sin(3 * np.pi * x) + 0.3)
    u, rep = solve(op, f, u0=GridFunction(grid199, np.sin(2 * np.pi * x)))
    hist = rep.residual_history
    assert all(hist[i + 1] <= hist[i] for i in range(1, len(hist) - 1))


def test_converged_runs_verify_freshly(grid199, laplacian, sine):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    u, rep = solve(op, sine)
    assert rep.final_residual <= rep.tol
    assert np.abs(op.apply_flat(u.values) - sine.values).max() <= rep.tol


@pytest.mark.parametrize("case", ["converged", "diverged", "non_finite"])
def test_final_residual_is_the_residual_of_the_returned_iterate(grid199, laplacian, sine,
                                                                 case):
    # a finite last iterate is returned as is, so its loop residual is final;
    # a start with a NaN is returned with that entry zeroed and re-evaluated
    op = DiscreteOperator(laplacian, grid199, 0.0)
    u0 = None
    if case == "non_finite":
        vals = sine.values.copy()
        vals[5] = np.nan
        u0 = GridFunction(grid199, vals, check_finite=False)
    blowup_norm = 1e-3 if case == "diverged" else howard.BLOWUP_NORM
    u, rep = solve(op, sine, u0=u0, blowup_norm=blowup_norm)
    want = {"converged": CONVERGED, "diverged": DIVERGED, "non_finite": SINGULAR}[case]
    assert rep.status == want
    assert rep.final_residual == float(np.abs(op.apply_flat(u.values) - sine.values).max())


def test_solve_deterministic(grid199):
    op = DiscreteOperator(ControlFamily.fucik(8.0), grid199, 0.0)
    x = grid199.coords()[:, 0]
    f = GridFunction(grid199, np.cos(2 * np.pi * x))
    u0 = GridFunction(grid199, np.sin(2 * np.pi * x))
    u1, r1 = solve(op, f, u0=u0)
    u2, r2 = solve(op, f, u0=u0)
    assert r1.residual_history == r2.residual_history
    assert np.array_equal(u1.values, u2.values)


def test_proper_case_unique_from_two_sides(grid199):
    fam = ControlFamily.finite_sup([((1.0,), (0.0,), -3.0), ((1.5,), (0.0,), -1.0)])
    op = DiscreteOperator(fam, grid199, 0.0)
    x = grid199.coords()[:, 0]
    f = GridFunction(grid199, np.sin(2 * np.pi * x) + 0.5)
    fn = sup_norm(f)
    ua, ra = solve(op, f, u0=grid199.ones() * fn)
    ub, rb = solve(op, f, u0=grid199.ones() * (-fn))
    assert ra.converged and rb.converged
    assert sup_norm(ua - ub) <= 10 * max(ra.tol, rb.tol)


def test_diverged_status(grid199, sine, lam_h199):
    # beyond the eigenvalue with a resonant start the iterates blow up
    op = DiscreteOperator(ControlFamily.laplacian(dim=1), grid199,
                          lam_h199 + 1e-13)
    u, rep = solve(op, sine * 1.0, blowup_norm=1e6)
    assert rep.status in (DIVERGED, SINGULAR)


def test_singular_linearization_status():
    g = build_grid(1, (0.0, 1.0), 3)
    # shift tuned so the frozen matrix has two identical rows (exactly singular)
    op = DiscreteOperator(ControlFamily.linear(1.0), g, 32.0)
    u, rep = solve(op, GridFunction(g, [1.0, 2.0, 1.0]))
    assert rep.status == SINGULAR


def test_grid_mismatch_rejected(grid199, laplacian):
    other = build_grid(1, (0.0, 1.0), 99)
    op = DiscreteOperator(laplacian, grid199, 0.0)
    with pytest.raises(UsageError):
        solve(op, other.zeros())


def comparison_gaps(op, u, v) -> tuple[float, float, float]:
    """(max F_h[u] - F_h[v], max v - u, slack): the first within slack forces the second."""
    Fu, Fv = op.apply_flat(u.values), op.apply_flat(v.values)
    slack = 1e-10 * (1.0 + max(np.abs(Fu).max(), np.abs(Fv).max(), sup_norm(u), sup_norm(v)))
    return float((Fu - Fv).max()), float(np.maximum(v.values - u.values, 0.0).max()), slack


def test_comparison_identity(grid199, laplacian, sine):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    premise_gap, violation, slack = comparison_gaps(op, sine, sine)
    assert premise_gap <= slack and violation == 0.0


def test_comparison_parabola(grid199, laplacian):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    u, _ = solve(op, grid199.ones() * (-1.0))
    premise_gap, violation, slack = comparison_gaps(op, u, grid199.zeros())
    assert premise_gap <= slack and violation <= slack
    # the stencil is exact on quadratics: u = x(1-x)/2 > 0
    x = grid199.coords()[:, 0]
    assert np.abs(u.values - x * (1 - x) / 2).max() <= 1e-12
    assert u.min() > 0


def test_comparison_seeded_battery(grid199):
    op = DiscreteOperator(ControlFamily.fucik(5.0), grid199, 0.0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        base = rng.standard_normal(grid199.num_nodes)
        gap = np.abs(rng.standard_normal(grid199.num_nodes))
        f2 = GridFunction(grid199, base)
        f1 = GridFunction(grid199, base - gap)
        u1, r1 = solve(op, f1)
        u2, r2 = solve(op, f2)
        assert r1.converged and r2.converged
        assert float((u2.values - u1.values).max()) <= 1e-9


def test_abp_zero_case(grid199):
    assert _abp_ratio(grid199.zeros(), grid199.zeros()) == 0.0


def test_abp_parabola_ratio(grid199, laplacian):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    u, _ = solve(op, grid199.ones())
    assert -u.min() == pytest.approx(0.125, abs=1e-12)  # sup of u^-
    # discrete L^1 weight of the unit forcing is n*h = 0.995
    assert _abp_ratio(u, grid199.ones()) == pytest.approx(0.125, abs=2e-3)


def test_abp_pucci_minus_battery_regression(grid199):
    op = DiscreteOperator(ControlFamily.pucci_minus(1.0, 2.0), grid199, 0.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        f = GridFunction(grid199, np.abs(rng.standard_normal(grid199.num_nodes)))
        u, rep = solve(op, f)
        assert rep.converged
        worst = max(worst, _abp_ratio(u, f))
    # regression bound fixed by the first recorded run (0.1359)
    assert worst <= 0.14


def test_basin_census_finds_both_fucik_solutions(grid199, sine, lam_h199):
    op = DiscreteOperator(ControlFamily.fucik(15.0), grid199, 0.0)
    starts = [grid199.zeros(), sine * 2.0, sine * (-2.0), sine * 20.0, sine * (-20.0)]
    census = basin_census(op, sine, starts, distinct_gap=1e-4)
    assert len(census) == 2
    assert sum(count for _, count in census) <= len(starts)


def _scripted_solve(monkeypatch, statuses):
    """Stand in for ``howard.solve``: the k-th call returns k*f with the k-th
    status. Returns the list of starts it was given."""
    starts = []

    def scripted(op, f, u0=None, blowup_norm=howard.BLOWUP_NORM):
        starts.append(u0)
        return f * float(len(starts)), SolveReport(statuses[len(starts) - 1], 1)

    monkeypatch.setattr(howard, "solve", scripted)
    return starts


def test_ladder_solves_no_start_after_the_first_converged(monkeypatch, sine):
    tried = _scripted_solve(monkeypatch, [MAX_ITERS, DIVERGED, CONVERGED, CONVERGED])
    ladder = [sine * float(k) for k in range(4)]
    u, rep = solve_with_starts(None, sine, ladder)
    assert rep.status == CONVERGED
    assert tried == ladder[:3]
    assert np.array_equal(u.values, (sine * 3.0).values)


@pytest.mark.parametrize("statuses, chosen", [
    ([MAX_ITERS, DIVERGED, DIVERGED, MAX_ITERS], 2),
    ([SINGULAR, MAX_ITERS, DIVERGED], 3),
    ([MAX_ITERS, SINGULAR, MAX_ITERS], 1),
])
def test_ladder_without_convergence_returns_first_diverged_else_first(
        monkeypatch, sine, statuses, chosen):
    tried = _scripted_solve(monkeypatch, statuses)
    u, rep = solve_with_starts(None, sine, [None] * len(statuses))
    assert len(tried) == len(statuses)
    assert rep.status == statuses[chosen - 1]
    assert np.array_equal(u.values, (sine * float(chosen)).values)


def test_ladder_needs_a_start(sine):
    with pytest.raises(UsageError):
        solve_with_starts(None, sine, [])


def test_ladder_counts_real_solves_and_forwards_blowup_norm(monkeypatch, grid199,
                                                            laplacian, sine):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("blowup_norm"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(howard, "solve", counting)
    op = DiscreteOperator(laplacian, grid199, 0.0)
    f = sine * (-np.pi**2)
    u, rep = solve_with_starts(op, f, [grid199.zeros(), sine, sine * 2.0])
    assert rep.converged and len(calls) == 1
    # every start leaves the unit ball in its first step
    u, rep = solve_with_starts(op, f, [grid199.zeros(), sine], blowup_norm=1e-3)
    assert rep.status == DIVERGED and calls[1:] == [1e-3, 1e-3]


@settings(max_examples=15, deadline=None)
@given(small_problems(), st.floats(0.5, 10.0), st.integers(0, 2**32 - 1))
def test_comparison_on_random_problems(problem, margin, seed):
    family, grid = problem
    # the shift lam_1^+ - margin moves the positive eigenvalue to margin > 0
    op = DiscreteOperator(family, grid, principal_eigen(family, grid, "+").lam - margin)
    rng = np.random.default_rng(seed)
    f2 = rng.standard_normal(grid.num_nodes)
    f1 = f2 - np.abs(rng.standard_normal(grid.num_nodes))
    u1, r1 = solve(op, GridFunction(grid, f1))
    u2, r2 = solve(op, GridFunction(grid, f2))
    assert r1.converged and r2.converged
    premise_gap, violation, slack = comparison_gaps(op, u1, u2)
    assert premise_gap <= slack and violation <= slack
