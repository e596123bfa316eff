import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from hjbranch.errors import AdmissibilityError
from hjbranch.grids import Grid, build_grid
from hjbranch.operators import ControlFamily, DiscreteOperator


def discrete_lam1(n: int, length: float = 1.0) -> float:
    """Closed-form principal eigenvalue of the three-point Dirichlet stencil."""
    h = length / (n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(np.pi * h / length))


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
