from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import discrete_lam1, eigen_bisect_crosscheck, small_problems
from hjbranch.errors import BracketError, EigenIterationError
import hjbranch.checks
import hjbranch.eigen
import hjbranch.howard
from hjbranch.checks import CheckSpec, _subdomain_gap, run_suite
from hjbranch.eigen import principal_eigen, proper_shift
from hjbranch.grids import build_grid, sup_norm
from hjbranch.howard import guard_tol
from hjbranch.operators import ControlFamily


def test_laplacian_eigenpair(grid199, laplacian, lam_h199, sine):
    ep = principal_eigen(laplacian, grid199, "+")
    assert abs(ep.lam - lam_h199) <= 1e-9
    assert abs(ep.lam - np.pi**2) / np.pi**2 <= 5e-4
    assert sup_norm(ep.phi - sine) <= 1e-6
    assert ep.residual <= 1e-9
    assert ep.phi.min() > 0


def test_laplacian_negative_pair(grid199, laplacian, lam_h199, sine):
    em = principal_eigen(laplacian, grid199, "-")
    assert abs(em.lam - lam_h199) <= 1e-9
    assert sup_norm(em.phi + sine) <= 1e-6
    assert em.phi.max() < 0


def test_pucci_eigen_scaling(grid199, lam_h199, sine):
    pp = ControlFamily.pucci_plus(1.0, 2.0)
    ep = principal_eigen(pp, grid199, "+")
    em = principal_eigen(pp, grid199, "-")
    assert abs(ep.lam - 1.0 * lam_h199) / lam_h199 <= 1e-8
    assert abs(em.lam - 2.0 * lam_h199) / (2 * lam_h199) <= 1e-8
    assert sup_norm(ep.phi - sine) <= 1e-6
    assert sup_norm(em.phi + sine) <= 1e-6


@pytest.mark.parametrize("b", [1.0, 5.0, 8.0])
def test_fucik_eigenvalue_shifts(grid199, lam_h199, b):
    fam = ControlFamily.fucik(b)
    ep = principal_eigen(fam, grid199, "+")
    em = principal_eigen(fam, grid199, "-")
    assert abs(ep.lam - (lam_h199 - b)) <= 1e-8
    assert abs(em.lam - lam_h199) <= 1e-8


def test_eigen_ordering_convex_kinds(grid199):
    for fam in (ControlFamily.fucik(5.0), ControlFamily.pucci_plus(1.0, 2.0),
                ControlFamily.finite_sup([((1.0,), (0.0,), 0.0),
                                          ((2.0,), (0.0,), 1.0)])):
        ep = principal_eigen(fam, grid199, "+")
        em = principal_eigen(fam, grid199, "-")
        assert ep.lam <= em.lam + 1e-10


def test_linear_family_equal_eigenvalues(grid199, laplacian):
    ep = principal_eigen(laplacian, grid199, "+")
    em = principal_eigen(laplacian, grid199, "-")
    assert abs(ep.lam - em.lam) <= 1e-9


def test_zeroth_shift_identity(grid199, laplacian):
    lam0 = principal_eigen(laplacian, grid199, "+").lam
    shifted = ControlFamily.linear(1.0, zeroth=-2.5)
    lam1 = principal_eigen(shifted, grid199, "+").lam
    assert abs(lam1 - (lam0 + 2.5)) <= 1e-9


def test_bisect_crosscheck_laplacian(grid199, laplacian):
    ep = principal_eigen(laplacian, grid199, "+")
    val = eigen_bisect_crosscheck(laplacian, grid199, "+", (5.0, 15.0))
    assert abs(val - ep.lam) <= 1e-8


def test_bisect_crosscheck_fucik_minus(grid199, lam_h199):
    fam = ControlFamily.fucik(5.0)
    val = eigen_bisect_crosscheck(fam, grid199, "-", (5.0, 15.0))
    assert abs(val - lam_h199) <= 1e-8


def test_bisect_rejects_bad_bracket(grid199, laplacian):
    with pytest.raises(BracketError):
        eigen_bisect_crosscheck(laplacian, grid199, "+", (20.0, 30.0))


def test_mirror_identity(grid199):
    for fam in (ControlFamily.fucik(5.0), ControlFamily.pucci_plus(1.0, 2.0)):
        em = principal_eigen(fam, grid199, "-")
        mir = principal_eigen(fam.mirror(), grid199, "+")
        assert mir.lam == em.lam
        assert np.array_equal(mir.phi.values, -em.phi.values)  # mirrored pair flips sign
        assert mir.iters == em.iters


def test_subdomain_gap_laplacian(grid199, laplacian, lam_h199):
    lam_full, lam_sub = _subdomain_gap(laplacian, grid199)
    assert abs(lam_full - lam_h199) <= 1e-9
    # the half-domain grid of (0,1) at this n is the (0, 1/2) grid with n=99
    assert abs(lam_sub - discrete_lam1(99, 0.5)) <= 1e-8
    assert abs(lam_sub / lam_full - 4.0) <= 0.02


def test_subdomain_gap_pucci(grid199):
    pp = ControlFamily.pucci_plus(1.0, 2.0)
    lam_full, lam_sub = _subdomain_gap(pp, grid199)
    assert abs(lam_sub / lam_full - 4.0) <= 0.02


def test_scaling_covariance():
    # doubling the interval divides pure-second-order eigenvalues by 4
    g1 = build_grid(1, (0.0, 1.0), 199)
    g2 = build_grid(1, (0.0, 2.0), 199)
    for fam in (ControlFamily.laplacian(dim=1), ControlFamily.pucci_plus(1.0, 2.0)):
        lam1 = principal_eigen(fam, g1, "+").lam
        lam2 = principal_eigen(fam, g2, "+").lam
        assert abs(lam1 / lam2 - 4.0) <= 4.0 * 1e-8


def test_simplicity_probe(grid199, monkeypatch):
    # T2.1 runs inverse iteration from _N_STARTS seeded positive starts
    spy = mock.Mock(wraps=hjbranch.eigen.inverse_iteration)
    monkeypatch.setattr(hjbranch.checks, "inverse_iteration", spy)
    [row] = run_suite([CheckSpec("T2.1", grid=grid199, seed=3)])
    assert row.status == "Pass"
    assert spy.call_count == hjbranch.checks._N_STARTS
    assert all(call.args[2].min() > 0 for call in spy.call_args_list)
    assert row.metrics["eigenfunction_spread"] <= 1e-6


def test_simplicity_probe_unconverged_start_raises(grid199, monkeypatch):
    monkeypatch.setattr(hjbranch.eigen, "_MAX_ITERS", 3)
    # the first of the _N_STARTS starts raises, and the T2.1 row reports it
    [row] = run_suite([CheckSpec("T2.1", grid=grid199)])
    assert (row.status, row.invariant) == ("Fail", "runner aborted")
    assert "in 3 iterations" in row.message


def test_slow_anisotropic_problem_converges_past_500_steps():
    # the gap lam_2 - lam_1 is small against lam_1 + sigma: rate 0.964 per step
    family = ControlFamily.finite_sup([(np.diag([0.5, 3.0]), [1.0, 0.0], 0.0)])
    grid = build_grid(2, ((0.0, 2.0), (0.0, 0.5)), (5, 3))
    pair = principal_eigen(family, grid, "-")
    assert pair.iters > 500
    assert principal_eigen(family.mirror(), grid, "+").lam == pair.lam


def test_repeated_iterate_raises_at_once(grid199, monkeypatch):
    # below the rounding floor the iteration reaches an exact fixed point; the
    # residual target is raised to that floor unless the guard is switched off
    monkeypatch.setattr(hjbranch.eigen, "_RESIDUAL_TOL", 0.0)
    monkeypatch.setattr(hjbranch.howard, "_GUARD_FACTOR", 0.0)
    with pytest.raises(EigenIterationError,
                       match=r"did not converge: iteration \d+ repeats the one before"):
        principal_eigen(ControlFamily.laplacian(), grid199, "+")


def test_hopf_boundary_positivity(grid199):
    ep = principal_eigen(ControlFamily.fucik(5.0), grid199, "+")
    h = grid199.h[0]
    first, last = ep.phi.values[0], ep.phi.values[-1]
    assert min(first, last) / h > 1.0  # discrete normal derivative bounded below


def test_2d_eigen():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (24, 24))
    ep = principal_eigen(ControlFamily.laplacian(dim=2), g, "+")
    assert abs(ep.lam - 2.0 * discrete_lam1(24)) <= 1e-8
    assert ep.phi.min() > 0


def test_proper_shift_is_proper(grid199):
    fam = ControlFamily.fucik(15.0)
    sigma = proper_shift(fam)
    assert sigma >= fam.max_zeroth + 1.0


@pytest.mark.parametrize("b_plus", [1e17, 1e300])
def test_proper_shift_keeps_its_margin_for_huge_coefficients(b_plus):
    # delta + 1.0 rounds to delta from about 2^53 on
    fam = ControlFamily.fucik(b_plus)
    assert proper_shift(fam) - fam.envelope.delta >= 1.0


def test_proper_shift_is_delta_plus_one_up_to_2_pow_20():
    for delta in (0.0, 15.0, 2.0**20):
        assert proper_shift(ControlFamily.fucik(delta)) == delta + 1.0


@settings(max_examples=15, deadline=None)
@given(small_problems())
def test_mirror_identity_on_random_problems(problem):
    family, grid = problem
    mirrored = principal_eigen(family.mirror(), grid, "+")
    assert mirrored.lam == principal_eigen(family, grid, "-").lam


GRID15 = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (15, 15))
two_policy_cases = pytest.mark.parametrize("family, sign", [
    (ControlFamily.fucik(26.0, 0.0, dim=2), "-"),
    (ControlFamily.pucci_plus(1.0, 2.0, dim=2), "+"),
], ids=["fucik_minus", "pucci_plus"])


@two_policy_cases
def test_principal_eigen_factors_two_policies_once(family, sign, monkeypatch):
    import scipy.sparse.linalg

    splu = scipy.sparse.linalg.splu
    factorizations = [0]

    def counting_splu(A, *args, **kwargs):
        factorizations[0] += 1
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    pair = principal_eigen(family, GRID15, sign)
    # the policy at u = 0 and the converged one; one slot refactors both
    # on every inverse step (2 * pair.iters)
    assert pair.iters > 10
    assert factorizations[0] <= 2


@two_policy_cases
def test_principal_eigen_with_remembered_factors_matches_fresh_factors(family, sign, monkeypatch):
    import scipy.sparse.linalg
    from hjbranch.operators import DiscreteOperator, TwoPolicyFactors

    shipped = principal_eigen(family, GRID15, sign)

    # no memory, every linearization built anew, every solve on factors made for it
    linearize, splu = DiscreteOperator.linearize, scipy.sparse.linalg.splu

    def forgetful_linearize(op, u):
        object.__setattr__(op, "_last", (None, None))
        return linearize(op, u)

    class FreshFactors:
        def __init__(self, A):
            self.A = A.copy()

        def solve(self, rhs):
            return splu(self.A).solve(rhs)

    monkeypatch.setattr(TwoPolicyFactors, "linearize", lambda memory, u: memory.op.linearize(u))
    monkeypatch.setattr(DiscreteOperator, "linearize", forgetful_linearize)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", FreshFactors)
    fresh = principal_eigen(family, GRID15, sign)

    assert shipped.lam == fresh.lam
    assert np.array_equal(shipped.phi.values, fresh.phi.values)
    assert shipped.iters == fresh.iters
    assert shipped.residual == fresh.residual


@two_policy_cases
def test_solve_through_factor_memory_linearizes_once_per_policy_iteration(family, sign,
                                                                          monkeypatch):
    from hjbranch.operators import DiscreteOperator

    linearize, solve = DiscreteOperator.linearize, hjbranch.eigen.solve
    calls, mismatches, solves = [0], [], [0]

    def counting_linearize(op, u):
        calls[0] += 1
        return linearize(op, u)

    def checking_solve(op, f, *args, **kwargs):
        before = calls[0]
        u, rep = solve(op, f, *args, **kwargs)
        solves[0] += 1
        if calls[0] - before != rep.iters:
            mismatches.append((calls[0] - before, rep.iters))
        return u, rep

    monkeypatch.setattr(DiscreteOperator, "linearize", counting_linearize)
    monkeypatch.setattr(hjbranch.eigen, "solve", checking_solve)
    pair = principal_eigen(family, GRID15, sign)
    assert solves[0] == pair.iters
    assert mismatches == []


def test_eigenvalue_change_test_scales_with_lam():
    """At |lam| ~ 1e301 one ulp of lam is about 2e285, so the change between
    steps cannot fall to an absolute 1e-10: this n=24 grid (the Richardson
    coarse grid of ``hjbranch eigen`` at n=49) ran 5000 steps. Below
    |lam| ~ 5.6e4 the scaled threshold is 1e-10 itself."""
    assert guard_tol(hjbranch.eigen._TOL, 5.6e4, 1.0) == 1e-10
    g = build_grid(1, (0.0, 1.0), 24)
    pair = principal_eigen(ControlFamily.linear(1e300), g, "+")
    assert pair.iters <= 50
    assert pair.residual <= pair.residual_tol
    assert abs(pair.lam / 1e300 - discrete_lam1(24)) <= 1e-9 * discrete_lam1(24)
