import numpy as np
import pytest

from conftest import discrete_lam1
from hjbranch.errors import BracketError, EigenIterationError
from hjbranch.eigen import (
    EigenParams,
    eigen_bisect_crosscheck,
    mirrored_plus_eigen,
    principal_eigen,
    simplicity_probe,
    subdomain_gap,
)
from hjbranch.grids import SubdomainMask, build_grid, half_domain_mask, sup_norm
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
    val = eigen_bisect_crosscheck(laplacian, grid199, "+", (5.0, 15.0), 40)
    assert abs(val - ep.lam) <= 1e-8


def test_bisect_crosscheck_fucik_minus(grid199, lam_h199):
    fam = ControlFamily.fucik(5.0)
    val = eigen_bisect_crosscheck(fam, grid199, "-", (5.0, 15.0), 40)
    assert abs(val - lam_h199) <= 1e-8


def test_bisect_rejects_bad_bracket(grid199, laplacian):
    with pytest.raises(BracketError):
        eigen_bisect_crosscheck(laplacian, grid199, "+", (20.0, 30.0), 10)


def test_mirror_identity(grid199):
    for fam in (ControlFamily.fucik(5.0), ControlFamily.pucci_plus(1.0, 2.0)):
        em = principal_eigen(fam, grid199, "-")
        mir = mirrored_plus_eigen(fam, grid199)
        assert abs(mir.lam - em.lam) <= 1e-9
        assert sup_norm(mir.phi + em.phi) <= 1e-8  # mirrored pair flips sign


def test_subdomain_gap_laplacian(grid199, laplacian, lam_h199):
    lam_full, lam_sub = subdomain_gap(laplacian, grid199, half_domain_mask(grid199))
    assert abs(lam_full - lam_h199) <= 1e-9
    # left-half mask of (0,1) at this n is an exact (0, 1/2) grid
    assert abs(lam_sub - discrete_lam1(99, 0.5)) <= 1e-8
    assert abs(lam_sub / lam_full - 4.0) <= 0.02


def test_subdomain_gap_pucci(grid199):
    pp = ControlFamily.pucci_plus(1.0, 2.0)
    lam_full, lam_sub = subdomain_gap(pp, grid199, half_domain_mask(grid199))
    assert abs(lam_sub / lam_full - 4.0) <= 0.02


def test_subdomain_full_mask_no_gap(grid199, laplacian):
    full = SubdomainMask(grid199, np.ones(grid199.num_nodes, dtype=bool))
    lam_full, lam_sub = subdomain_gap(laplacian, grid199, full)
    assert abs(lam_sub - lam_full) <= 1e-9


def test_scaling_covariance():
    # doubling the interval divides pure-second-order eigenvalues by 4
    g1 = build_grid(1, (0.0, 1.0), 199)
    g2 = build_grid(1, (0.0, 2.0), 199)
    for fam in (ControlFamily.laplacian(dim=1), ControlFamily.pucci_plus(1.0, 2.0)):
        lam1 = principal_eigen(fam, g1, "+").lam
        lam2 = principal_eigen(fam, g2, "+").lam
        assert abs(lam1 / lam2 - 4.0) <= 4.0 * 1e-8


def test_simplicity_probe(grid199):
    probe = simplicity_probe(ControlFamily.fucik(5.0), grid199, n_starts=5, seed=3)
    assert probe["passed"]
    assert probe["spread"] <= 1e-6


def test_simplicity_probe_unconverged_start_raises(grid199):
    with pytest.raises(EigenIterationError):
        simplicity_probe(ControlFamily.fucik(5.0), grid199, n_starts=2,
                         params=EigenParams(max_iters=3))


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


def test_eigen_params_shift_is_proper(grid199):
    fam = ControlFamily.fucik(15.0)
    sigma = EigenParams().resolve_shift(fam)
    assert sigma >= fam.max_zeroth + 1.0
