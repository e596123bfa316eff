import numpy as np
import pytest

from hjbranch.branches import diagram_coordinate
from hjbranch.errors import ConfigurationError, UsageError
from hjbranch.grids import (
    GridFunction,
    build_grid,
    direction_cosine,
    eigen_bump,
    euclidean_norm,
    half_domain_grid,
    sup_norm,
)


def test_build_grid_1d_spacing():
    g = build_grid(1, (0.0, 1.0), 3)
    assert g.h == (0.25,)
    assert np.allclose(g.axis_coords(0), [0.25, 0.5, 0.75])


def test_build_grid_2d_count():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (3, 3))
    assert g.num_nodes == 9
    assert g.h == (0.25, 0.25)


def test_build_grid_fine_spacing():
    g = build_grid(1, (0.0, 1.0), 199)
    assert g.h[0] == pytest.approx(0.005, abs=0.0)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        build_grid(1, (0.0, 1.0), 2)
    with pytest.raises(ConfigurationError):
        build_grid(1, (1.0, 1.0), 5)
    with pytest.raises(ConfigurationError):
        build_grid(3, ((0, 1), (0, 1), (0, 1)), (3, 3, 3))


def test_build_grid_deterministic_ordering():
    a = build_grid(2, ((0.0, 2.0), (-1.0, 1.0)), (4, 5))
    b = build_grid(2, ((0.0, 2.0), (-1.0, 1.0)), (4, 5))
    assert a == b
    assert np.array_equal(a.coords(), b.coords())


def test_sup_norm_zero_function(grid199):
    assert sup_norm(grid199.zeros()) == 0.0


def test_sup_norm_sampled_sine(grid199, sine):
    # grid has a node exactly at x = 1/2, so the sampled max is exact
    err = abs(sup_norm(sine) - 1.0)
    assert err <= (np.pi * grid199.h[0]) ** 2 / 2


def test_sup_norm_single_entry(grid199):
    vals = np.zeros(grid199.num_nodes)
    vals[7] = -2.0
    assert sup_norm(GridFunction(grid199, vals)) == 2.0


def test_sup_norm_is_a_norm(grid199):
    rng = np.random.default_rng(0)
    for _ in range(25):
        u = GridFunction(grid199, rng.standard_normal(grid199.num_nodes))
        v = GridFunction(grid199, rng.standard_normal(grid199.num_nodes))
        c = rng.standard_normal()
        assert sup_norm(u) >= 0
        assert sup_norm(u * c) == pytest.approx(abs(c) * sup_norm(u), rel=1e-15)
        assert sup_norm(u + v) <= sup_norm(u) + sup_norm(v) + 1e-15


# The signed sup-norm distance of the bifurcation diagram is
# branches.diagram_coordinate: +-max|u - ref|, signed by the node of the max.
def test_signed_distance_identity(grid199, sine):
    assert diagram_coordinate(sine, sine) == 0.0


def test_signed_distance_shifts(grid199, sine):
    phi = eigen_bump(grid199)
    assert diagram_coordinate(sine + phi * 0.3, sine) == pytest.approx(0.3, abs=1e-12)
    assert diagram_coordinate(sine - phi * 2.0, sine) == pytest.approx(-2.0, abs=1e-12)


def test_signed_distance_mixed_sign_takes_first_node_sign(grid199):
    vals = np.zeros(grid199.num_nodes)
    vals[0], vals[1] = 1.0, -1.0
    assert diagram_coordinate(GridFunction(grid199, vals), grid199.zeros()) == 1.0
    assert diagram_coordinate(GridFunction(grid199, -vals), grid199.zeros()) == -1.0


def test_half_domain_grid():
    """The sub-grid holds exactly the nodes with x below the midpoint, in
    the parent's order and with the parent's spacing, in 1D and 2D."""
    for extent in ((0.0, 1.0), (-1.0, 2.0), (0.3, 1.7)):
        # n = 8 and 97 on (0, 1): (x[k] - a) / (k + 1) rounds off the spacing
        for n in (6, 8, 49, 50, 97, 99, 199, 399, 799):
            for grid in (build_grid(1, extent, n), build_grid(2, (extent, (0.0, 2.0)), (n, 5))):
                a, b = extent
                keep = grid.coords()[:, 0] < 0.5 * (a + b)
                sub = half_domain_grid(grid)
                assert sub.h == grid.h
                assert sub.n[1:] == grid.n[1:] and sub.extents[1:] == grid.extents[1:]
                assert np.array_equal(sub.coords(), grid.coords()[keep])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_half_domain_grid_needs_six_nodes(n):
    for grid in (build_grid(1, (0.0, 1.0), n), build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (n, 9))):
        with pytest.raises(ConfigurationError, match=r"grid\.n.*6"):
            half_domain_grid(grid)


def test_grid_function_rejects_nan(grid199):
    vals = np.zeros(grid199.num_nodes)
    vals[0] = np.nan
    with pytest.raises(UsageError):
        GridFunction(grid199, vals)


def test_grid_function_grid_mismatch(grid199):
    other = build_grid(1, (0.0, 1.0), 99)
    with pytest.raises(UsageError):
        GridFunction(grid199, np.zeros(grid199.num_nodes)).same_grid(other.zeros())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
def test_direction_cosine_of_underflowing_vectors(scale):
    # the squares of these entries fall below the normal range, and from
    # about 1e-162 to zero
    phi = eigen_bump(build_grid(1, (0.0, 1.0), 49))
    for u, v in ((phi * scale, phi), (phi, phi * scale), (phi * scale, phi * scale)):
        assert 1.0 - 1e-15 <= direction_cosine(u, v) <= 1.0
        assert -1.0 <= direction_cosine(-u, v) <= -1.0 + 1e-15


def test_euclidean_norm_keeps_normal_range_values():
    x = np.random.default_rng(0).standard_normal(199)
    for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150):  # plain norms in [sqrt(tiny), inf)
        assert euclidean_norm(x * scale) == float(np.linalg.norm(x * scale))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_direction_cosine_of_overflowing_vectors(scale):
    phi = eigen_bump(build_grid(1, (0.0, 1.0), 49))
    assert abs(direction_cosine(phi * scale, phi) - 1.0) <= 1e-15
    assert abs(direction_cosine(phi * scale, phi * scale) - 1.0) <= 1e-15
    assert abs(direction_cosine(phi * -scale, phi * scale) + 1.0) <= 1e-15
