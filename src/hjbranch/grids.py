"""Uniform Cartesian grids on intervals and rectangles.

Interior nodes only are stored; homogeneous Dirichlet data is implicit
(a missing neighbour contributes the value 0). Node ordering is
row-major over the axes, fixed once so iteration traces are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UsageError

# a vector whose Euclidean norm is below this has squares below the normal range
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class Grid:
    """Uniform grid over an interval (dim 1) or axis-aligned rectangle (dim 2).

    extents[i] = (a_i, b_i); n[i] interior nodes per axis; spacing
    h[i] = (b_i - a_i) / (n[i] + 1).
    """

    dim: int
    extents: tuple[tuple[float, float], ...]
    n: tuple[int, ...]
    h: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.extents) != self.dim or len(self.n) != self.dim:
            raise ConfigurationError("extents and n must match dim")
        for (a, b) in self.extents:
            if not (np.isfinite(a) and np.isfinite(b) and b > a):
                raise ConfigurationError(f"degenerate extent ({a}, {b})")
        for ni in self.n:
            if ni < 3:
                raise ConfigurationError(f"need at least 3 interior nodes per axis, got {ni}")
        object.__setattr__(
            self,
            "h",
            tuple((b - a) / (ni + 1) for (a, b), ni in zip(self.extents, self.n)),
        )

    @property
    def num_nodes(self) -> int:
        return math.prod(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    def axis_coords(self, axis: int) -> np.ndarray:
        a, _ = self.extents[axis]
        return a + self.h[axis] * np.arange(1, self.n[axis] + 1)

    def coords(self) -> np.ndarray:
        """Interior node coordinates, shape (num_nodes, dim), row-major."""
        axes = [self.axis_coords(k) for k in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.num_nodes))

    def ones(self) -> "GridFunction":
        return GridFunction(self, np.ones(self.num_nodes))

    def quad_weight(self) -> float:
        """Per-node quadrature weight h^dim."""
        return float(np.prod(self.h))


def build_grid(dim: int, extents, n) -> Grid:
    """Construct a grid; extents is (a, b) in 1D or ((a1,b1),(a2,b2)) in 2D,
    n an int in 1D or a pair in 2D."""
    if dim == 1:
        ext = (tuple(float(v) for v in extents),)
        nn = (int(n),) if np.isscalar(n) else (int(n[0]),)
    elif dim == 2:
        ext = tuple(tuple(float(v) for v in e) for e in extents)
        nn = (int(n), int(n)) if np.isscalar(n) else tuple(int(v) for v in n)
    else:
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")
    return Grid(dim, ext, nn)


class GridFunction:
    """Real nodal values on the interior nodes of a grid.

    Values are held in a read-only array; arithmetic returns new
    functions. Construction rejects NaN/Inf so that any non-finite
    state is caught at the point it is produced.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values, check_finite: bool = True):
        vals = np.array(values, dtype=float, copy=True).reshape(-1)
        if vals.size != grid.num_nodes:
            raise UsageError(
                f"value count {vals.size} does not match grid ({grid.num_nodes} nodes)"
            )
        if check_finite and not np.all(np.isfinite(vals)):
            raise UsageError("GridFunction values must be finite")
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals

    def same_grid(self, other: "GridFunction") -> None:
        if self.grid is not other.grid and self.grid != other.grid:
            raise UsageError("grid mismatch between grid functions")

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self.same_grid(other)
            return GridFunction(self.grid, self.values + other.values, check_finite=False)
        return GridFunction(self.grid, self.values + other, check_finite=False)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self.same_grid(other)
            return GridFunction(self.grid, self.values - other.values, check_finite=False)
        return GridFunction(self.grid, self.values - other, check_finite=False)

    def __rsub__(self, other):
        return GridFunction(self.grid, other - self.values, check_finite=False)

    def __mul__(self, c):
        return GridFunction(self.grid, self.values * float(c), check_finite=False)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values, check_finite=False)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def __repr__(self):
        return f"GridFunction(n={self.grid.n}, sup={sup_norm(self):.3g})"


def sup_norm(u: GridFunction) -> float:
    """Max of |u| over interior nodes."""
    return float(np.abs(u.values).max())


def euclidean_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``; where that overflows for a finite x, or falls
    below sqrt(smallest normal double) so that the squares lost digits, the
    norm of x scaled to unit sup norm, scaled back."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if _SQRT_TINY <= norm < np.inf or not np.isfinite(x).all():
        return norm
    scale = float(np.abs(x).max())
    if scale == 0.0:
        return norm
    return scale * float(np.linalg.norm(np.asarray(x) / scale))


def direction_cosine(u: GridFunction, phi: GridFunction) -> float:
    """Cosine of the angle between u and phi as nodal vectors; 0 if either vanishes."""
    a = u.values
    b = phi.values
    na = euclidean_norm(a)
    nb = euclidean_norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    if min(na, nb) < _SQRT_TINY or not np.isfinite(na * nb):
        # the plain products underflow or overflow; the unit vectors do not
        return float(np.dot(a / na, b / nb))
    return float(np.dot(a, b) / (na * nb))


def half_domain_grid(grid: Grid) -> Grid:
    """The nodes with x below the first-axis midpoint, as a grid of their own.

    Its right end is the first excluded node, so the spacing is the
    parent's and the excluded nodes become its zero Dirichlet boundary.
    """
    a, b = grid.extents[0]
    x = grid.axis_coords(0)
    k = int(np.count_nonzero(x < 0.5 * (a + b)))
    if k < 3:
        raise ConfigurationError(
            f"grid.n: the half domain needs 3 nodes, so the first axis needs "
            f"at least 6 nodes, got n={grid.n[0]}")
    sub = Grid(grid.dim, ((a, float(x[k])),) + grid.extents[1:], (k,) + grid.n[1:])
    # (x[k] - a) / (k + 1) can round one ulp away from the parent's spacing;
    # the nodes are the parent's, so the spacing is too
    object.__setattr__(sub, "h", grid.h)
    return sub


def eigen_bump(grid: Grid) -> GridFunction:
    """Positive reference bump: product of first sine modes, sup-normalized.

    Vanishes at the boundary and has strictly positive interior values;
    used as a deterministic probe function.
    """
    vals = np.ones(grid.num_nodes)
    coords = grid.coords()
    for ax in range(grid.dim):
        a, b = grid.extents[ax]
        vals = vals * np.sin(np.pi * (coords[:, ax] - a) / (b - a))
    vals /= np.abs(vals).max()
    return GridFunction(grid, vals)
