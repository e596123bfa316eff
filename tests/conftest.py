import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from hjbranch.branches import _uniqueness_probe
from hjbranch.errors import AdmissibilityError, BracketError
from hjbranch.grids import Grid, build_grid, eigen_bump, sup_norm
from hjbranch.howard import guard_tol, resolve_tol, solve
from hjbranch.operators import ControlFamily, DiscreteOperator, _neighbor_views


def discrete_lam1(n: int, length: float = 1.0) -> float:
    """Closed-form principal eigenvalue of the three-point Dirichlet stencil."""
    h = length / (n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(np.pi * h / length))


def eigen_bisect_crosscheck(family, grid, sign: str, bracket: tuple[float, float]) -> float:
    """The principal eigenvalue by 40 bisection steps on a sign
    classification, independent of inverse iteration.

    For sign '+': solve (F + lam)[u] = -phi_probe with a positive probe;
    lam below the eigenvalue yields a strictly positive solution, above
    it the solve diverges or the solution loses positivity. Sign '-'
    mirrors the test with +phi_probe and strictly negative solutions,
    steering the solver into the negative basin with a start ladder.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    probe = eigen_bump(grid)

    def below(lam: float) -> bool:
        op = DiscreteOperator(family, grid, lam)
        if sign == "+":
            u, rep = solve(op, -probe, blowup_norm=1e10)
            return rep.converged and bool((u.values > 0).all())
        ladder = (solve(op, probe, u0=probe * (-s), blowup_norm=1e10) for s in (1.0, 10.0, 100.0))
        return any(rep.converged and (u.values < 0).all() for u, rep in ladder)

    if not below(lo) or below(hi):
        raise BracketError(f"bracket ({lo}, {hi}) does not straddle the eigenvalue")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def gradient_magnitude_flat(grid: Grid, flat: np.ndarray) -> np.ndarray:
    """Discrete |Du|: per axis the larger of |forward|, |backward| difference,
    combined in the Euclidean norm. Chosen so that the Lipschitz sandwich
    holds exactly for upwinded stencils."""
    acc = np.zeros_like(flat)
    for ax, (plus, minus) in enumerate(_neighbor_views(grid, flat)):
        fwd = np.abs(plus - flat) / grid.h[ax]
        bwd = np.abs(flat - minus) / grid.h[ax]
        acc += np.maximum(fwd, bwd) ** 2
    return np.sqrt(acc)


def check_h0_h3(op: DiscreteOperator, trials: int = 100, seed: int = 0) -> float:
    """Assert positive 1-homogeneity, the difference bound, the midpoint
    inequality and the extremal-envelope sandwich on seeded random pairs,
    each to a scaled tolerance of 1e-10; returns the worst scaled violation.

    Sup-type families are checked as sup-forms; an inf-type family, such
    as ``pucci_minus`` or any ``mirror()``, is checked in the mirrored
    (super-additive) orientation.
    """
    rng = np.random.default_rng(seed)
    N = op.grid.num_nodes
    env = op.family.envelope
    orient = 1.0 if op.family.is_convex else -1.0
    # extremal envelopes M+/- of the family's (lam, Lam) bounds, same stencil
    bounds = (env.lam_ell, env.Lam_ell, op.grid.dim)
    m_plus = DiscreteOperator(ControlFamily.pucci_plus(*bounds), op.grid, 0.0)
    m_minus = DiscreteOperator(ControlFamily.pucci_minus(*bounds), op.grid, 0.0)
    worst = 0.0
    for _ in range(trials):
        u, v = rng.standard_normal(N), rng.standard_normal(N)
        t = abs(rng.standard_normal()) + 0.1
        k = rng.uniform(0.0, 1.0)
        Fu, Fv = op.apply_flat(u), op.apply_flat(v)
        scale = 1.0 + max(np.abs(Fu).max(), np.abs(Fv).max())
        d = u - v
        drift = env.gamma * gradient_magnitude_flat(op.grid, d)
        zeroth = env.delta * np.abs(d)
        upper = m_plus.apply_flat(d) + drift + zeroth + op.shift * d
        lower = m_minus.apply_flat(d) - drift - zeroth + op.shift * d
        violations = {
            "homogeneity": np.abs(op.apply_flat(t * u) - t * Fu).max()
            / (1.0 + t * np.abs(Fu).max()),
            "additivity": (orient * ((Fu - Fv) - op.apply_flat(d))).max() / scale,
            "midpoint": (orient * (op.apply_flat(k * u + (1.0 - k) * v)
                                   - (k * Fu + (1.0 - k) * Fv))).max() / scale,
            # holds for every uniformly elliptic kind
            "sandwich": max(((Fu - Fv) - upper).max(), (lower - (Fu - Fv)).max()) / scale,
        }
        assert max(violations.values()) <= 1e-10, (op.family.kind, violations)
        worst = max(worst, *violations.values())
    return worst


def uniqueness_probe_at(ctx, t: float) -> dict:
    """Distant-start agreement probe of ``branches`` at one parameter value,
    with the resolved gap tolerance of the rhs t*phi_1^+ + h."""
    op = ctx.operator()
    f = ctx.rhs(t)
    tol_gap = 10.0 * guard_tol(resolve_tol(sup_norm(f)), op.matrix_scale(), 1.0 + abs(t))
    return _uniqueness_probe(op, f, ctx, 1.0 + abs(t) + sup_norm(ctx.h), tol_gap)


@pytest.fixture(scope="session")
def grid199():
    return build_grid(1, (0.0, 1.0), 199)


@pytest.fixture(scope="session")
def lam_h199():
    return discrete_lam1(199)


@pytest.fixture(scope="session")
def laplacian():
    return ControlFamily.laplacian(dim=1)


@pytest.fixture(scope="session")
def sine(grid199):
    import hjbranch.grids as grids
    x = grid199.coords()[:, 0]
    return grids.GridFunction(grid199, np.sin(np.pi * x))


@st.composite
def small_problems(draw):
    """Random small 1D or 2D grid with a fucik, pucci_plus or finite_sup
    family that passes the CFL check on it."""
    dim = draw(st.integers(1, 2))
    n = tuple(draw(st.integers(3, 24 if dim == 1 else 8)) for _ in range(dim))
    grid = Grid(dim, tuple((0.0, draw(st.floats(0.5, 3.0))) for _ in range(dim)), n)
    kind = draw(st.sampled_from(["fucik", "pucci_plus", "finite_sup"]))
    if kind == "fucik":
        b_minus, b_plus = sorted([draw(st.floats(-20.0, 40.0)), draw(st.floats(-20.0, 40.0))])
        family = ControlFamily.fucik(b_plus, b_minus, dim=dim)
    elif kind == "pucci_plus":
        lam_ell, Lam_ell = sorted([draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))])
        family = ControlFamily.pucci_plus(lam_ell, Lam_ell, dim=dim)
    else:
        coeff = st.floats(-2.0, 2.0)
        family = ControlFamily.finite_sup([
            (np.diag([draw(st.floats(0.2, 3.0)) for _ in range(dim)]),
             [draw(coeff) for _ in range(dim)], draw(coeff))
            for _ in range(draw(st.integers(1, 3)))])
    try:
        DiscreteOperator(family, grid, 0.0)
    except AdmissibilityError:
        assume(False)
    return family, grid
