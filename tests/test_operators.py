import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import check_h0_h3, discrete_lam1, gradient_magnitude_flat, small_problems
from hjbranch.eigen import principal_eigen
from hjbranch.errors import AdmissibilityError, ConfigurationError
from hjbranch.grids import Grid, GridFunction, build_grid, half_domain_grid, sup_norm
from hjbranch.operators import (
    ControlCoeffs,
    ControlFamily,
    DiscreteOperator,
    TwoPolicyFactors,
    _factor,
    _neighbor_views,
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


def stencil_grid(dim, half):
    """The stencil grid of one dimension, or its half-domain grid."""
    grid, families = STENCILS[dim]
    return (half_domain_grid(grid) if half else grid), families


def stencil_cases(dim, half, shift, seed):
    """(operator, random argument) for every family of one dimension."""
    grid, families = stencil_grid(dim, half)
    rng = np.random.default_rng(seed)
    for fam in families.values():
        yield DiscreteOperator(fam, grid, shift), rng.standard_normal(grid.num_nodes)


def assert_monotone_links(lin):
    """Off-diagonal weights are nonnegative."""
    M = lin.matrix.tocoo()
    assert M.data[M.row != M.col].min(initial=0.0) >= 0.0


def test_apply_laplacian_matches_discrete_eigenvalue(grid199, laplacian, sine, lam_h199):
    op = DiscreteOperator(laplacian, grid199, 0.0)
    out = GridFunction(grid199, op.apply_flat(sine.values))
    # the three-point stencil reproduces the closed-form eigenvalue exactly
    assert sup_norm(out - sine * (-lam_h199)) <= 1e-10
    # and approximates -pi^2 u at second order
    h = grid199.h[0]
    assert sup_norm(out - sine * (-np.pi**2)) <= np.pi**4 * h**2 / 12 * sup_norm(sine) * 1.01


def test_apply_zero_is_zero(grid199):
    for fam in FAMILIES.values():
        op = DiscreteOperator(fam, grid199, 3.7)
        assert np.abs(op.apply_flat(grid199.zeros().values)).max() == 0.0


def test_pucci_plus_on_concave_function(grid199, sine):
    # sampled sine has strictly negative second differences
    op = DiscreteOperator(ControlFamily.pucci_plus(1.0, 2.0), grid199, 0.0)
    lap = DiscreteOperator(ControlFamily.laplacian(dim=1), grid199, 0.0)
    assert np.abs(op.apply_flat(sine.values) - lap.apply_flat(sine.values)).max() <= 1e-12


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
    # Lam = 2 where the second difference is >= 0, lam = 1 where it is < 0
    weight = np.where(d2 >= 0, 2.0, 1.0)
    h2 = grid199.h[0] ** 2
    assert (d2 >= 0).any() and (d2 < 0).any()
    assert np.array_equal(lin.diag, -2.0 * weight / h2)
    upper, lower = lin.bands[0]
    assert np.array_equal(upper, weight[:-1] / h2)
    assert np.array_equal(lower, weight[1:] / h2)


def pucci_reference(grid, lam_ell, Lam_ell, kind, shift, u):
    """Closed forms of M+/- + shift: per axis w+ (D2u)^+ - w- (D2u)^-, with
    (w+, w-) = (Lam, lam) for M+ and (lam, Lam) for M-, plus shift*u; and
    the diagonal of its linearization, whose weight on an axis is w+
    where the second difference is >= 0 (so a zero takes w+) and w- where
    it is < 0."""
    w_pos, w_neg = (Lam_ell, lam_ell) if kind == "pucci_plus" else (lam_ell, Lam_ell)
    U = u.reshape(grid.shape)
    acc = np.zeros_like(u)
    diag = np.full(u.size, shift)
    for ax in range(grid.dim):
        lead = (slice(None),) * ax
        padded = np.pad(U, [(1, 1) if a == ax else (0, 0) for a in range(grid.dim)])
        second = padded[lead + (slice(2, None),)] - 2.0 * U + padded[lead + (slice(None, -2),)]
        d2 = second.ravel() / grid.h[ax] ** 2
        acc += w_pos * np.maximum(d2, 0.0) - w_neg * np.maximum(-d2, 0.0)
        diag += -2.0 * np.where(d2 >= 0.0, w_pos, w_neg) / grid.h[ax] ** 2
    return acc + shift * u, diag


@pytest.mark.parametrize("kind", ["pucci_plus", "pucci_minus"])
@pytest.mark.parametrize("dim", [1, 2])
def test_pucci_families_match_closed_form(dim, kind):
    grid = STENCILS[dim][0]
    lam_ell, Lam_ell, shift = 0.7, 1.9, -0.3
    fam = getattr(ControlFamily, kind)(lam_ell, Lam_ell, dim=dim)
    assert len(fam.controls) == 2**dim
    rng = np.random.default_rng(17)
    N = grid.num_nodes
    # zero-heavy: integer values, mostly 0, so many second differences are exactly 0
    zero_heavy = rng.integers(-2, 3, N) * (rng.random(N) < 0.2)
    for u in (rng.standard_normal(N), zero_heavy.astype(float), np.zeros(N)):
        op = DiscreteOperator(fam, grid, shift)
        ref_apply, ref_diag = pucci_reference(grid, lam_ell, Lam_ell, kind, shift, u)
        assert np.array_equal(op.apply_flat(u), ref_apply)
        assert np.array_equal(op.linearize(u).diag, ref_diag)


@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("dim", [1, 2])
def test_linearize_matches_apply(dim, half):
    for op, u in stencil_cases(dim, half, 0.35, 3):
        lin = op.linearize(u)
        assert np.abs(lin.matrix @ u - op.apply_flat(u)).max() <= 1e-9


@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("dim", [1, 2])
def test_monotone_stencil_offdiagonals(dim, half):
    for op, u in stencil_cases(dim, half, 0.0, 4):
        assert_monotone_links(op.linearize(u))


@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
def test_banded_solve_matches_sparse_matrix(half):
    rng = np.random.default_rng(8)
    for op, u in stencil_cases(1, half, -3.0, 5):
        lin = op.linearize(u)
        rhs = rng.standard_normal(op.grid.num_nodes)
        ref = scipy.sparse.linalg.spsolve(lin.matrix, rhs)
        assert np.abs(lin.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("family", [
    ControlFamily.linear(diffusion=1.5, drift=[0.8]),
    ControlFamily.fucik(5.0),
    ControlFamily.pucci_minus(1.0, 2.0),
], ids=["linear_drift", "fucik", "pucci_minus"])
def test_1d_solve_equals_solve_banded_and_keeps_its_bands(family):
    grid = build_grid(1, (0.0, 1.0), 199)
    rng = np.random.default_rng(11)
    for shift in (-2.0, 0.0):
        lin = DiscreteOperator(family, grid, shift).linearize(rng.standard_normal(grid.num_nodes))
        (upper, lower), = lin.bands
        kept = [a.copy() for a in (lin.diag, upper, lower)]
        ab = np.zeros((3, grid.num_nodes))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, lin.diag, lower
        for _ in range(3):
            rhs = rng.standard_normal(grid.num_nodes)
            assert np.array_equal(lin.solve(rhs), scipy.linalg.solve_banded((1, 1), ab, rhs))
        (upper, lower), = lin.bands
        assert all(np.array_equal(a, b) for a, b in zip((lin.diag, upper, lower), kept))


def _two_array_views(grid, flat):
    """The neighbour views built as two zero arrays per axis, filled by slices."""
    U = flat.reshape(grid.shape)
    out = []
    for ax in range(grid.dim):
        lead = (slice(None),) * ax
        plus, minus = np.zeros_like(U), np.zeros_like(U)
        plus[lead + (slice(None, -1),)] = U[lead + (slice(1, None),)]
        minus[lead + (slice(1, None),)] = U[lead + (slice(None, -1),)]
        out.append((plus.ravel(), minus.ravel()))
    return out


@pytest.mark.parametrize("grid", [build_grid(1, (0.0, 1.0), 199),
                                  build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (5, 7))],
                         ids=["1d", "2d_5x7"])
def test_neighbor_views_equal_the_two_array_construction(grid):
    flat = np.random.default_rng(2).standard_normal(grid.num_nodes)
    flat[::3] = -0.0
    got, want = _neighbor_views(grid, flat), _two_array_views(grid, flat)
    assert len(got) == len(want) == grid.dim
    for pair, ref in zip(got, want):
        for a, b in zip(pair, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_num_nodes_is_a_python_int():
    for grid in (build_grid(1, (0.0, 1.0), 199), build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (5, 7))):
        assert type(grid.num_nodes) is int and grid.num_nodes == np.prod(grid.n)


def assert_same_csc(a, b):
    for part in ("data", "indices", "indptr"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("name", ["fucik", "finite_sup", "pucci_plus"])
@pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
@pytest.mark.parametrize("dim", [1, 2])
def test_linearize_reuses_linearization_while_policy_repeats(dim, half, name):
    grid, families = stencil_grid(dim, half)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(grid.num_nodes)
    rhs = rng.standard_normal(grid.num_nodes)
    first, last = u.copy(), u.copy()
    first[0] *= -1.0
    last[-1] *= -1.0
    op = DiscreteOperator(families[name], grid, -3.0)
    lin = op.linearize(u)
    x = lin.solve(rhs)

    # doubling u keeps every argmax and every sign of D2u: same policy
    assert op.linearize(2.0 * u) is lin
    assert np.array_equal(lin.solve(rhs), x)
    # a changed policy, even at one node, gets a fresh linearization, and
    # only the last one is kept; every one matches a fresh operator's
    prev = lin
    for v in (-u, first, last, u, 2.0 * u):
        got = op.linearize(v)
        fresh = DiscreteOperator(families[name], grid, -3.0).linearize(v)
        assert (got is prev) == np.array_equal(got.active, prev.active)
        assert np.array_equal(got.active, fresh.active)
        assert_same_csc(got.matrix, fresh.matrix)
        assert np.array_equal(got.solve(rhs), fresh.solve(rhs))
        prev = got
    assert prev is not lin
    assert np.array_equal(prev.solve(rhs), x)

    # operators differing only in shift share nothing
    lin_other = DiscreteOperator(families[name], grid, -2.0).linearize(u)
    assert lin_other is not op.linearize(u)
    assert not np.array_equal(lin_other.diag, lin.diag)


@st.composite
def finite_sup_operators(draw):
    """Random small grid, random finite_sup family passing the CFL check,
    random shift."""
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
    try:
        op = DiscreteOperator(ControlFamily.finite_sup(controls), grid,
                              draw(st.floats(-5.0, 5.0)))
    except AdmissibilityError:
        assume(False)
    return op, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(finite_sup_operators())
def test_random_stencil_matrix_apply_and_algebra(case):
    op, seed = case
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(op.grid.num_nodes)
    lin = op.linearize(u)
    scale = op.matrix_scale() * np.abs(u).max()
    assert np.abs(lin.matrix @ u - op.apply_flat(u)).max() <= 1e-9 * scale
    assert_monotone_links(lin)
    check_h0_h3(op, trials=10, seed=seed)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_check_h0_h3(grid199, name):
    check_h0_h3(DiscreteOperator(FAMILIES[name], grid199, 0.0), trials=100, seed=11)


def _singular_operator(dim):
    """The Laplacian on 3 nodes per axis shifted by dim * 2 / h^2: a zero
    diagonal on a bipartite stencil, exactly singular; SciPy reports the
    2D factorization as a ``RuntimeError``."""
    grid = build_grid(dim, ((0.0, 1.0),) * dim if dim == 2 else (0.0, 1.0), (3,) * dim)
    return DiscreteOperator(ControlFamily.laplacian(dim), grid, dim * 32.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_every_failed_solve_raises_linalg_error(dim):
    op = _singular_operator(dim)
    lin = op.linearize(op.grid.ones().values)
    rhs = np.ones(op.grid.num_nodes)
    # a singular matrix, or a non-finite solution of a regular one
    with pytest.raises(np.linalg.LinAlgError):
        lin.solve(rhs)
    regular = DiscreteOperator(ControlFamily.laplacian(dim), op.grid, 0.0).linearize(rhs)
    with pytest.raises(np.linalg.LinAlgError):
        regular.solve(np.full(op.grid.num_nodes, np.inf))


def test_bordered_solve_matches_dense_and_keeps_the_last_row_factor(monkeypatch):
    grid, families = stencil_grid(2, False)
    rng = np.random.default_rng(3)
    lin = DiscreteOperator(families["fucik"], grid, -3.0).linearize(
        rng.standard_normal(grid.num_nodes))
    N = grid.num_nodes
    column, rhs = -np.abs(rng.standard_normal(N)), rng.standard_normal(N + 1)
    splu, factors = scipy.sparse.linalg.splu, [0]

    def counting(A, *args, **kwargs):
        factors[0] += 1
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
    for row, expected in ((5, 1), (5, 1), (7, 2), (5, 3)):
        dense = np.zeros((N + 1, N + 1))
        dense[:N, :N] = lin.matrix.toarray()
        dense[:N, N] = column
        dense[N, row] = 1.0
        x = lin.solve_bordered(column, row, rhs)
        assert np.abs(x - np.linalg.solve(dense, rhs)).max() <= 1e-9 * np.abs(x).max()
        assert factors[0] == expected
    lin.solve_bordered(2.0 * column, 5, rhs)
    assert factors[0] == 4
    # a row of zeros in the matrix part makes the bordered system singular
    with pytest.raises(np.linalg.LinAlgError):
        lin.solve_bordered(np.zeros(N), 5, rhs)


def test_two_policy_factors_remember_the_last_two_policies():
    grid, families = stencil_grid(2, False)
    op = DiscreteOperator(families["fucik"], grid, -3.0)
    memory = TwoPolicyFactors(op)
    u = np.random.default_rng(4).standard_normal(grid.num_nodes)
    a, b, c = memory.linearize(u), memory.linearize(-u), memory.linearize(np.abs(u))
    assert memory.linearize(-u) is b and memory.linearize(np.abs(u)) is c
    assert memory.linearize(u) is not a  # evicted by the third policy
    assert memory.grid is grid and memory.matrix_scale() == op.matrix_scale()
    assert np.array_equal(memory.apply_flat(u), op.apply_flat(u))


def diags_matrix(lin):
    """L assembled the straightforward way: ``scipy.sparse.diags`` to CSC."""
    N = lin.diag.size
    diagonals, offsets = [lin.diag], [0]
    for upper, lower in lin.bands:
        s = N - upper.size  # the band at offset s has N - s entries
        diagonals += [upper, lower]
        offsets += [s, -s]
    return scipy.sparse.diags(diagonals, offsets, format="csc")


def _zero_diagonal_case(dim):
    """A two-control family whose first control has a diagonal of exactly 0
    (dyadic h and coefficients), and drift of both signs on every axis."""
    if dim == 1:
        grid = build_grid(1, (0.0, 1.0), 3)  # h = 1/4: -2/h^2 - 0.5/h = -34
        controls = [((1.0,), (0.5,), 34.0), ((1.0,), (-0.5,), -1.0)]
    else:
        grid = build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (3, 3))  # h = (1/4, 1/2): -34 - 9
        controls = [(np.diag([1.0, 1.0]), (0.5, -0.5), 43.0),
                    (np.diag([2.0, 1.0]), (-0.5, 0.5), -1.0)]
    return DiscreteOperator(ControlFamily.finite_sup(controls), grid, 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_matrix_on_the_fixed_pattern_equals_the_diags_assembly(dim):
    grid, families = stencil_grid(dim, False)  # the 2D grid has unequal h
    for seed, fam in enumerate(families.values()):
        u = np.random.default_rng(seed).standard_normal(grid.num_nodes)
        lin = DiscreteOperator(fam, grid, -3.0).linearize(u)
        assert_same_csc(lin.matrix, diags_matrix(lin))

    op = _zero_diagonal_case(dim)
    zero_rows = 0
    for seed in range(4):
        lin = op.linearize(np.random.default_rng(seed).standard_normal(op.grid.num_nodes))
        zero_rows += np.count_nonzero(lin.diag == 0.0)
        assert_same_csc(lin.matrix, diags_matrix(lin))
    assert zero_rows > 0  # eliminate_zeros dropped a diagonal entry


def _near_resonant_linearization():
    """A 47^2 Fucik linearization, both controls active, whose shift sits
    1e-3 * lam_h below lam_1^-: about 0.02 from singular."""
    n = 47
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (n, n))
    lam_h = 2.0 * discrete_lam1(n)
    x, y = grid.coords()[:, 0], grid.coords()[:, 1]
    u = -np.sin(np.pi * x) * np.sin(np.pi * y)
    u[[0, n - 1, n * n - n, n * n - 1]] = 1.0  # the b_plus control at the corners
    op = DiscreteOperator(ControlFamily.fucik(lam_h + 4.0, dim=2), grid, lam_h * (1.0 - 1e-3))
    lin = op.linearize(u)
    assert set(lin.active.tolist()) == {0, 1}
    return lin


def test_factor_ordering_fills_less_than_colamd():
    A = _near_resonant_linearization().matrix
    ordered, colamd = _factor(A), scipy.sparse.linalg.splu(A)
    # a count, not a timing: 59,832 against 100,782 entries with SciPy 1.17
    assert ordered.L.nnz + ordered.U.nnz <= 0.7 * (colamd.L.nnz + colamd.U.nnz)


def test_factor_ordering_solves_as_colamd_near_resonance():
    lin = _near_resonant_linearization()
    colamd = scipy.sparse.linalg.splu(lin.matrix)
    for rhs in (np.ones(lin.diag.size), np.random.default_rng(8).standard_normal(lin.diag.size)):
        x, ref = lin.solve(rhs), colamd.solve(rhs)
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


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
    envelope = DiscreteOperator(ControlFamily.pucci_plus(env.lam_ell, env.Lam_ell), grid199, 0.0)
    for _ in range(20):
        u = rng.standard_normal(grid199.num_nodes)
        bound = envelope.apply_flat(u) \
            + env.gamma * gradient_magnitude_flat(grid199, u) + env.delta * np.abs(u)
        assert (op.apply_flat(u) - bound).max() <= 1e-10 * (1 + np.abs(bound).max())


def test_mirror_of_pucci_plus_is_pucci_minus(grid199):
    rng = np.random.default_rng(6)
    plus = ControlFamily.pucci_plus(1.0, 2.0)
    minus = ControlFamily.pucci_minus(1.0, 2.0)
    mir = DiscreteOperator(plus.mirror(), grid199, 0.0)
    u = rng.standard_normal(grid199.num_nodes)
    # the min over the same control values, whatever their order
    assert np.array_equal(mir.apply_flat(u), DiscreteOperator(minus, grid199, 0.0).apply_flat(u))
    # the two control orders break ties differently, so the pairs agree to rounding
    lam_mir = principal_eigen(plus.mirror(), grid199, "+").lam
    assert abs(lam_mir - principal_eigen(minus, grid199, "+").lam) <= 1e-9 * lam_mir


def test_mirror_flips_orientation_only():
    for fam in (*FAMILIES.values(), *FAMILIES_2D.values()):
        mir = fam.mirror()
        assert mir.is_convex is not fam.is_convex
        assert (mir.kind, mir.controls, mir.envelope) == (fam.kind, fam.controls, fam.envelope)
        assert mir.mirror() == fam
    # pucci_minus keeps its (lam, Lam) control order, which decides ties
    flipped = ControlFamily.pucci_minus(1.0, 2.0).mirror()
    assert flipped.is_convex and flipped.kind == "pucci_minus"
    assert [c.diffusion[0][0] for c in flipped.controls] == [1.0, 2.0]


@settings(max_examples=40, deadline=None)
@given(small_problems(), st.floats(-5.0, 5.0), st.integers(0, 2**32 - 1), st.booleans())
def test_mirror_family_is_the_mirrored_operator(problem, shift, seed, integral):
    # reference: the mirror G[u] = -F[-u] with the shift s carried through,
    # -(F + s)[-u] = -F[-u] + s u; integer-valued u makes control ties common
    family, grid = problem
    rng = np.random.default_rng(seed)
    u = rng.integers(-2, 3, grid.num_nodes).astype(float) if integral \
        else rng.standard_normal(grid.num_nodes)
    op = DiscreteOperator(family, grid, shift)
    mir = DiscreteOperator(family.mirror(), grid, shift)
    assert np.array_equal(mir.apply_flat(u), -op.apply_flat(-u))
    assert np.array_equal(mir.linearize(u).active, op.linearize(-u).active)


def test_2d_mixed_diffusion_rejected():
    with pytest.raises(ConfigurationError):
        ControlCoeffs.make([[1.0, 0.3], [0.3, 1.0]], [0.0, 0.0], 0.0)


def test_2d_apply_diagonal_family():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (31, 31))
    lam2 = 2.0 * discrete_lam1(31)
    coords = g.coords()
    u = GridFunction(g, np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1]))
    op = DiscreteOperator(ControlFamily.laplacian(dim=2), g, 0.0)
    assert np.abs(op.apply_flat(u.values) + lam2 * u.values).max() <= 1e-9


def test_cfl_admissibility_enforced(grid199):
    # drift too strong for the spacing: gamma/(2 h) exceeds lam/h^2
    fam = ControlFamily.finite_sup([((1.0,), (5000.0,), 0.0)])
    with pytest.raises(AdmissibilityError):
        DiscreteOperator(fam, grid199, 0.0)


def test_fucik_requires_ordered_weights():
    with pytest.raises(ConfigurationError):
        ControlFamily.fucik(1.0, 2.0)


def test_envelope_and_dim_come_from_the_controls():
    from hjbranch.operators import Envelope
    # the tightest bounds over each family's controls; Pucci's are its (lam, Lam)
    want = {"linear": Envelope(1.0, 1.0, 0.0, 0.0), "fucik": Envelope(1.0, 1.0, 0.0, 5.0),
            "pucci_plus": Envelope(1.0, 2.0, 0.0, 0.0),
            "pucci_minus": Envelope(1.0, 2.0, 0.0, 0.0)}
    for dim, families, gamma in ((1, FAMILIES, 0.5), (2, FAMILIES_2D, 0.9)):
        want["finite_sup"] = Envelope(1.0, 2.0, gamma, 1.0)
        for name, fam in families.items():
            assert (name, fam.envelope, fam.dim) == (name, want[name], dim)
    with pytest.raises(ConfigurationError):
        ControlFamily.pucci_plus(2.0, 1.0)
    with pytest.raises(ConfigurationError):
        ControlFamily.pucci_minus(2.0, 1.0, dim=2)


@pytest.mark.filterwarnings("error")
def test_envelope_gamma_of_a_huge_drift():
    # the plain Euclidean norm overflows to inf
    assert ControlFamily.finite_sup([((1.0,), (1e300,), 0.0)]).envelope.gamma == 1e300
    fam = ControlFamily.finite_sup([(np.eye(2), (1e300, -1e300), 0.0),
                                    (np.eye(2), (0.0, 0.0), 0.0)])
    assert fam.envelope.gamma == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)


def test_argmax_tie_breaks_to_lowest_index(grid199):
    # at u = 0 every control ties; the first control must win everywhere
    op = DiscreteOperator(ControlFamily.fucik(5.0), grid199, 0.0)
    assert np.all(op.linearize(grid199.zeros()).active == 0)

