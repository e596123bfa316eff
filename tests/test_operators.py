import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import discrete_lam1
from hjbranch.errors import AdmissibilityError, ConfigurationError
from hjbranch.grids import Grid, GridFunction, SubdomainMask, build_grid, half_domain_mask, sup_norm
from hjbranch.operators import (
    ControlCoeffs,
    ControlFamily,
    DiscreteOperator,
    MirroredOperator,
    check_h0_h3,
    gradient_magnitude_flat,
    pucci_envelope_flat,
)

FAMILIES = {
    "linear": ControlFamily.laplacian(dim=1),
    "fucik": ControlFamily.fucik(5.0),
    "pucci_plus": ControlFamily.pucci_plus(1.0, 2.0),
    "pucci_minus": ControlFamily.pucci_minus(1.0, 2.0),
    "finite_sup": ControlFamily.finite_sup([
        ((1.0,), (0.0,), -1.0),
        ((1.5,), (0.5,), 0.5),
        ((2.0,), (-0.5,), -0.25),
    ]),
}

FAMILIES_2D = {
    "linear": ControlFamily.laplacian(dim=2),
    "fucik": ControlFamily.fucik(5.0, dim=2),
    "pucci_plus": ControlFamily.pucci_plus(1.0, 2.0, dim=2),
    "pucci_minus": ControlFamily.pucci_minus(1.0, 2.0, dim=2),
    "finite_sup": ControlFamily.finite_sup([
        (np.diag([1.0, 2.0]), (0.5, -0.3), -1.0),
        (np.diag([1.5, 1.0]), (-0.7, 0.0), 0.5),
        (np.diag([1.2, 1.2]), (0.0, 0.9), 0.1),
    ]),
}

STENCILS = {
    1: (build_grid(1, (0.0, 1.0), 199), FAMILIES),
    2: (build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (15, 11)), FAMILIES_2D),
}


def stencil_cases(dim, masked, shift, seed):
    """(operator, masked random argument) for every family of one dimension."""
    grid, families = STENCILS[dim]
    mask = half_domain_mask(grid) if masked else None
    rng = np.random.default_rng(seed)
    for fam in families.values():
        u = rng.standard_normal(grid.num_nodes)
        if mask is not None:
            u = np.where(mask.included, u, 0.0)
        yield DiscreteOperator(fam, grid, shift, mask), u


def assert_monotone_links(lin):
    """Off-diagonal weights are nonnegative and no link touches an excluded node."""
    M = lin.matrix.tocoo()
    off = M.row != M.col
    assert M.data[off].min(initial=0.0) >= 0.0
    if lin.included is not None:
        assert lin.included[M.row[off]].all() and lin.included[M.col[off]].all()


def test_apply_laplacian_matches_discrete_eigenvalue(grid199, laplacian, sine, lam_h199):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    out = op.apply(sine)
    # the three-point stencil reproduces the closed-form eigenvalue exactly
    assert sup_norm(out - sine * (-lam_h199)) <= 1e-10
    # and approximates -pi^2 u at second order
    h = grid199.h[0]
    assert sup_norm(out - sine * (-np.pi**2)) <= np.pi**4 * h**2 / 12 * sup_norm(sine) * 1.01


def test_apply_zero_is_zero(grid199):
    for fam in FAMILIES.values():
        op = DiscreteOperator(fam, grid199, 3.7)
        assert sup_norm(op.apply(grid199.zeros())) == 0.0


def test_pucci_plus_on_concave_function(grid199, sine):
    # sampled sine has strictly negative second differences
    op = DiscreteOperator(ControlFamily.pucci_plus(1.0, 2.0), grid199, 0.0)
    lap = DiscreteOperator(ControlFamily.laplacian(dim=1), grid199, 0.0)
    assert sup_norm(op.apply(sine) - lap.apply(sine)) <= 1e-12


def test_linearize_linear_family_single_control(grid199, laplacian):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    rng = np.random.default_rng(1)
    u = GridFunction(grid199, rng.standard_normal(grid199.num_nodes))
    lin = op.linearize(u)
    assert np.all(lin.active == 0)


def test_linearize_fucik_positive_branch(grid199, sine, lam_h199):
    fam = ControlFamily.fucik(7.0)
    op = DiscreteOperator(fam, grid199, 0.0)
    lin = op.linearize(sine)
    assert np.all(lin.active == 0)  # b_plus branch everywhere since u > 0
    # stencil = Laplacian + b*I on the diagonal
    h = grid199.h[0]
    assert lin.diag == pytest.approx([-2.0 / h**2 + 7.0] * grid199.num_nodes)


def test_linearize_pucci_sign_split(grid199):
    x = grid199.coords()[:, 0]
    u = GridFunction(grid199, np.sin(2 * np.pi * x))  # convex and concave halves
    op = DiscreteOperator(ControlFamily.pucci_plus(1.0, 2.0), grid199, 0.0)
    lin = op.linearize(u)
    padded = np.concatenate(([0.0], u.values, [0.0]))
    d2 = padded[2:] - 2.0 * padded[1:-1] + padded[:-2]
    assert np.array_equal(lin.active == 1, d2 >= 0)


@pytest.mark.parametrize("masked", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("dim", [1, 2])
def test_linearize_matches_apply(dim, masked):
    for op, u in stencil_cases(dim, masked, 0.35, 3):
        lin = op.linearize(u)
        assert np.abs(lin.matrix @ u - op.apply_flat(u)).max() <= 1e-9


@pytest.mark.parametrize("masked", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("dim", [1, 2])
def test_monotone_stencil_offdiagonals(dim, masked):
    for op, u in stencil_cases(dim, masked, 0.0, 4):
        assert_monotone_links(op.linearize(u))


@pytest.mark.parametrize("masked", [False, True], ids=["full", "half"])
def test_banded_solve_matches_sparse_matrix(masked):
    rng = np.random.default_rng(8)
    for op, u in stencil_cases(1, masked, -3.0, 5):
        lin = op.linearize(u)
        rhs = rng.standard_normal(op.grid.num_nodes)
        if masked:
            rhs = np.where(op.mask.included, rhs, 0.0)
        ref = scipy.sparse.linalg.spsolve(lin.matrix, rhs)
        assert np.abs(lin.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()


@st.composite
def finite_sup_operators(draw):
    """Random small grid, random finite_sup family passing the CFL check,
    random mask and shift."""
    dim = draw(st.integers(1, 2))
    n = tuple(draw(st.integers(3, 8)) for _ in range(dim))
    extents = tuple((0.0, draw(st.floats(0.5, 3.0))) for _ in range(dim))
    grid = Grid(dim, extents, n)
    coeff = st.floats(-2.0, 2.0, allow_subnormal=False)
    controls = [
        (np.diag([draw(st.floats(0.2, 3.0)) for _ in range(dim)]),
         [draw(coeff) for _ in range(dim)], draw(coeff))
        for _ in range(draw(st.integers(1, 4)))
    ]
    included = np.array(draw(st.lists(st.booleans(), min_size=grid.num_nodes,
                                      max_size=grid.num_nodes)))
    assume(included.any())
    mask = None if included.all() else SubdomainMask(grid, included)
    try:
        op = DiscreteOperator(ControlFamily.finite_sup(controls), grid,
                              draw(st.floats(-5.0, 5.0)), mask)
    except AdmissibilityError:
        assume(False)
    return op, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(finite_sup_operators())
def test_random_stencil_matrix_apply_and_algebra(case):
    op, seed = case
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(op.grid.num_nodes)
    if op.mask is not None:
        u = np.where(op.mask.included, u, 0.0)
    lin = op.linearize(u)
    scale = op.matrix_scale() * np.abs(u).max()
    assert np.abs(lin.matrix @ u - op.apply_flat(u)).max() <= 1e-9 * scale
    assert_monotone_links(lin)
    assert check_h0_h3(op, trials=10, seed=seed).passed


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_check_h0_h3(grid199, name):
    report = check_h0_h3(DiscreteOperator(FAMILIES[name], grid199, 0.0),
                         trials=100, seed=11)
    assert report.passed
    assert max(report.homogeneity, report.additivity,
               report.midpoint, report.sandwich) <= 1e-10


def test_homogeneity_exact_on_positive_eigenfunction(grid199, sine):
    op = DiscreteOperator(ControlFamily.fucik(5.0), grid199, 0.0)
    out1 = op.apply_flat(2.0 * sine.values)
    out2 = 2.0 * op.apply_flat(sine.values)
    assert np.abs(out1 - out2).max() <= 1e-12 * (1 + np.abs(out2).max())


def test_pucci_plus_dominates_members(grid199):
    rng = np.random.default_rng(5)
    fam = FAMILIES["finite_sup"]
    env = fam.envelope
    op = DiscreteOperator(fam, grid199, 0.0)
    for _ in range(20):
        u = rng.standard_normal(grid199.num_nodes)
        bound = pucci_envelope_flat(op, u, "+") \
            + env.gamma * gradient_magnitude_flat(grid199, u) + env.delta * np.abs(u)
        assert (op.apply_flat(u) - bound).max() <= 1e-10 * (1 + np.abs(bound).max())


def test_mirror_of_pucci_plus_is_pucci_minus(grid199):
    rng = np.random.default_rng(6)
    plus = DiscreteOperator(ControlFamily.pucci_plus(1.0, 2.0), grid199, 0.0)
    minus = DiscreteOperator(ControlFamily.pucci_minus(1.0, 2.0), grid199, 0.0)
    mir = MirroredOperator(plus)
    u = rng.standard_normal(grid199.num_nodes)
    assert np.abs(mir.apply_flat(u) - minus.apply_flat(u)).max() <= 1e-10


def test_2d_mixed_diffusion_rejected():
    with pytest.raises(ConfigurationError):
        ControlCoeffs.make([[1.0, 0.3], [0.3, 1.0]], [0.0, 0.0], 0.0)


def test_2d_apply_diagonal_family():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (31, 31))
    lam2 = 2.0 * discrete_lam1(31)
    coords = g.coords()
    u = GridFunction(g, np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1]))
    op = DiscreteOperator(ControlFamily.laplacian(dim=2), g, 0.0)
    assert sup_norm(op.apply(u) - u * (-lam2)) <= 1e-9


def test_cfl_admissibility_enforced(grid199):
    # drift too strong for the spacing: gamma/(2 h) exceeds lam/h^2
    fam = ControlFamily.finite_sup([((1.0,), (5000.0,), 0.0)])
    with pytest.raises(AdmissibilityError):
        DiscreteOperator(fam, grid199, 0.0)


def test_fucik_requires_ordered_weights():
    with pytest.raises(ConfigurationError):
        ControlFamily.fucik(1.0, 2.0)


def test_envelope_must_dominate_controls():
    from hjbranch.operators import Envelope
    ctrl = ControlCoeffs.make((3.0,), (0.0,), 0.0)
    with pytest.raises(ConfigurationError):
        ControlFamily("linear", (ctrl,), Envelope(1.0, 2.0, 0.0, 0.0), 1)


def test_argmax_tie_breaks_to_lowest_index(grid199):
    # at u = 0 every control ties; the first control must win everywhere
    op = DiscreteOperator(ControlFamily.fucik(5.0), grid199, 0.0)
    assert np.all(op.linearize(grid199.zeros()).active == 0)


def test_apply_grid_mismatch(grid199):
    from hjbranch.errors import UsageError
    other = build_grid(1, (0.0, 1.0), 99)
    op = DiscreteOperator(ControlFamily.laplacian(dim=1), grid199, 0.0)
    with pytest.raises(UsageError):
        op.apply(other.zeros())
