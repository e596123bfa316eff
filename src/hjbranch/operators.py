"""Monotone finite-difference discretization of sup-type elliptic operators.

The operator family is F[u] = sup_a { tr(A_a D2u) + b_a . Du + c_a u }
over a finite control list, or the inf over it when the family's
``is_convex`` is false. ``ControlFamily.mirror`` flips that orientation,
giving the mirror G[u] = -F[-u]. Three kinds are built as lists:

* ``pucci_plus`` / ``pucci_minus``: the extremal operators over the
  ellipticity class [lam, Lam], as the sup (resp. inf) over the 2^dim
  diagonal controls with entries in {lam, Lam}; this is
  sum_i ( Lam (D2_ii u)^+ - lam (D2_ii u)^- ) and its mirror. In 1D this
  is exactly the extremal operator over [lam, Lam]; in 2D it is the
  axis-aligned restriction a five-point stencil can represent.
* ``fucik``: Laplacian plus weights on the positive/negative parts,
  the two-control sup family with c in {b_plus, b_minus}, which
  requires b_plus >= b_minus.

Second derivatives use central differences, drift uses upwind
differences, so every control's stencil has nonnegative off-diagonal
weights and the scheme is monotone. A CFL-type admissibility bound is
still enforced at construction so that inadmissible configurations fail
loudly instead of losing comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import AdmissibilityError, ConfigurationError
from .grids import Grid, GridFunction, euclidean_norm

KINDS = ("linear", "finite_sup", "fucik", "pucci_plus", "pucci_minus")

# LAPACK's tridiagonal solver, the routine solve_banded((1, 1), ...) calls:
# (lower, diag, upper, rhs) -> (_, _, _, solution, info)
_gtsv = scipy.linalg.get_lapack_funcs("gtsv", dtype=float)


@dataclass(frozen=True)
class Envelope:
    """Uniform bounds shared by every control: ellipticity interval
    [lam_ell, Lam_ell], drift bound gamma, zeroth-order bound delta."""

    lam_ell: float
    Lam_ell: float
    gamma: float
    delta: float

    def __post_init__(self):
        if not (0 < self.lam_ell <= self.Lam_ell):
            raise ConfigurationError("need 0 < lam_ell <= Lam_ell")
        if self.gamma < 0 or self.delta < 0:
            raise ConfigurationError("gamma and delta must be nonnegative")


@dataclass(frozen=True)
class ControlCoeffs:
    """One linear operator tr(A D2u) + b.Du + c u with constant coefficients."""

    diffusion: tuple[tuple[float, ...], ...]
    drift: tuple[float, ...]
    zeroth: float

    @classmethod
    def make(cls, diffusion, drift, zeroth) -> "ControlCoeffs":
        A = np.atleast_2d(np.asarray(diffusion, dtype=float))
        b = np.atleast_1d(np.asarray(drift, dtype=float))
        if A.shape[0] != A.shape[1] or A.shape[0] != b.size:
            raise ConfigurationError("diffusion/drift dimension mismatch")
        if not np.allclose(A, A.T):
            raise ConfigurationError("diffusion matrix must be symmetric")
        if A.shape[0] == 2 and abs(A[0, 1]) > 0:
            raise ConfigurationError(
                "2D diffusion must be diagonal: the five-point monotone "
                "stencil cannot represent mixed second derivatives"
            )
        if np.any(np.diag(A) <= 0):
            raise ConfigurationError("diffusion must be positive definite")
        return cls(
            tuple(tuple(row) for row in A.tolist()),
            tuple(b.tolist()),
            float(zeroth),
        )

    @property
    def dim(self) -> int:
        return len(self.drift)

    def diag_diffusion(self) -> np.ndarray:
        return np.array([self.diffusion[k][k] for k in range(self.dim)])


@dataclass(frozen=True)
class ControlFamily:
    """The sup over a finite control list, or the inf when ``is_convex``
    is false: ``kind`` names the control list, ``is_convex`` the orientation."""

    kind: str
    controls: tuple[ControlCoeffs, ...]
    is_convex: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown family kind {self.kind!r}")
        if not self.controls:
            raise ConfigurationError("control list must be nonempty")
        if any(c.dim != self.dim for c in self.controls):
            raise ConfigurationError("control dimension mismatch")

    @property
    def dim(self) -> int:
        return self.controls[0].dim

    @property
    def envelope(self) -> Envelope:
        """The tightest bounds that hold for every control."""
        diags = np.concatenate([c.diag_diffusion() for c in self.controls])
        gamma = max(euclidean_norm(c.drift) for c in self.controls)
        delta = max(abs(c.zeroth) for c in self.controls)
        return Envelope(float(diags.min()), float(diags.max()), gamma, delta)

    # -- constructors -------------------------------------------------

    @classmethod
    def linear(cls, diffusion=1.0, drift=None, zeroth=0.0, dim=1) -> "ControlFamily":
        if drift is None:
            drift = np.zeros(dim)
        if np.isscalar(diffusion):
            diffusion = np.eye(dim) * float(diffusion)
        ctrl = ControlCoeffs.make(diffusion, drift, zeroth)
        return cls("linear", (ctrl,))

    @classmethod
    def laplacian(cls, dim=1) -> "ControlFamily":
        return cls.linear(diffusion=1.0, dim=dim)

    @classmethod
    def finite_sup(cls, controls) -> "ControlFamily":
        ctrls = tuple(
            c if isinstance(c, ControlCoeffs) else ControlCoeffs.make(*c) for c in controls
        )
        return cls("finite_sup", ctrls)

    @classmethod
    def fucik(cls, b_plus: float, b_minus: float = 0.0, dim: int = 1) -> "ControlFamily":
        """Laplacian + b_plus*u^+ + b_minus*u^- with u^- = min(u, 0).

        Equals sup over the two linear operators with c = b_plus and
        c = b_minus, hence convex iff b_plus >= b_minus.
        """
        if b_plus < b_minus:
            raise ConfigurationError("fucik requires b_plus >= b_minus (sup form)")
        eye = np.eye(dim)
        zero = np.zeros(dim)
        ctrls = (
            ControlCoeffs.make(eye, zero, float(b_plus)),
            ControlCoeffs.make(eye, zero, float(b_minus)),
        )
        return cls("fucik", ctrls)

    @classmethod
    def pucci_plus(cls, lam_ell: float, Lam_ell: float, dim: int = 1) -> "ControlFamily":
        """M+ over [lam_ell, Lam_ell]: the sup over the diagonal controls."""
        return cls._diagonal("pucci_plus", lam_ell, Lam_ell, dim)

    @classmethod
    def pucci_minus(cls, lam_ell: float, Lam_ell: float, dim: int = 1) -> "ControlFamily":
        """M- over [lam_ell, Lam_ell]: the inf over the diagonal controls."""
        return cls._diagonal("pucci_minus", lam_ell, Lam_ell, dim).mirror()

    @classmethod
    def _diagonal(cls, kind: str, lam_ell: float, Lam_ell: float,
                  dim: int) -> "ControlFamily":
        """The 2^dim diagonal controls with entries in {lam_ell, Lam_ell}.
        The first control wins a tie, so an axis whose second difference is
        zero takes the coefficient of (D2u)^+: Lam_ell for M+, lam_ell for M-."""
        if not 0 < lam_ell <= Lam_ell:
            raise ConfigurationError("need 0 < lam_ell <= Lam_ell")
        weights = (Lam_ell, lam_ell) if kind == "pucci_plus" else (lam_ell, Lam_ell)
        zero = np.zeros(dim)
        ctrls = tuple(ControlCoeffs.make(np.diag(w), zero, 0.0)
                      for w in itertools.product(weights, repeat=dim))
        return cls(kind, ctrls)

    def mirror(self) -> "ControlFamily":
        """The mirror G[u] = -F[-u]: the same controls, the other orientation."""
        return replace(self, is_convex=not self.is_convex)

    @property
    def max_zeroth(self) -> float:
        return max(c.zeroth for c in self.controls)


# ---------------------------------------------------------------------------
# stencil core
# ---------------------------------------------------------------------------


def _neighbor_views(grid: Grid, flat: np.ndarray):
    """Zero-padded neighbour values per axis: list of (plus, minus) flat arrays."""
    U = flat.reshape(grid.shape)
    out = []
    for ax in range(grid.dim):
        lead = (slice(None),) * ax
        # U with one zero layer on each side along ax; plus and minus are its shifts
        pad = np.zeros(grid.shape[:ax] + (1,) + grid.shape[ax + 1:])
        padded = np.concatenate((pad, U, pad), axis=ax)
        out.append((padded[lead + (slice(2, None),)].ravel(),
                    padded[lead + (slice(None, -2),)].ravel()))
    return out


class _Stencil:
    """The monotone stencil of one operator, built once from the family,
    the grid and the shift; apply, linearize and both matrix forms all
    read it.

    Per control (m of them): diagonal diffusion and split drift
    b+ = max(b, 0), b- = min(b, 0), each (m, dim), and the zeroth-order
    coefficient (m,); from those the frozen-control weights, per axis the
    links up (to k+s) and low (to k-s) and the diagonal including the
    shift. Per axis with stride s: the gate of length N - s marking the
    linked pairs (k, k+s), i.e. both nodes on one grid line.
    """

    def __init__(self, family: ControlFamily, grid: Grid, shift: float):
        m, dim = len(family.controls), grid.dim
        self.diffusion = np.array([c.diag_diffusion() for c in family.controls]).reshape(m, dim)
        drift = np.array([c.drift for c in family.controls]).reshape(m, dim)
        self.b_plus = np.maximum(drift, 0.0)
        self.b_minus = np.minimum(drift, 0.0)
        self.zeroth = np.array([c.zeroth for c in family.controls])
        # controls that upwind forward (b > 0) and backward (b < 0) per axis
        self.upwind = [(np.flatnonzero(self.b_plus[:, ax] > 0),
                        np.flatnonzero(self.b_minus[:, ax] < 0)) for ax in range(dim)]
        self.diag = shift + self.zeroth
        self.links = []
        for ax in range(dim):
            h = grid.h[ax]
            w, bp, bm = self.diffusion[:, ax], self.b_plus[:, ax], self.b_minus[:, ax]
            self.links.append((w / h**2 + bp / h, w / h**2 - bm / h))
            self.diag = self.diag + (-2.0 * w / h**2 - (bp - bm) / h)

        self.strides = [int(np.prod(grid.n[ax + 1:])) for ax in range(dim)]
        self.gates = []
        for ax, s in enumerate(self.strides):
            # the last node of each grid line along ax has no + neighbour
            gate = np.ones(grid.shape, dtype=bool)
            gate[(slice(None),) * ax + (-1,)] = False
            self.gates.append(gate.ravel()[:-s])

    def bands(self, links: list[tuple[np.ndarray, np.ndarray]]) -> list:
        """Gate per-node (up, low) link weights into per-axis (upper, lower)
        bands: upper[k] is the entry (k, k+s), lower[k] the entry (k+s, k),
        and both are 0 where the pair is not linked."""
        return [(np.where(gate, up[:-s], 0.0), np.where(gate, low[s:], 0.0))
                for s, gate, (up, low) in zip(self.strides, self.gates, links)]


def _factor(A):
    """``splu(A)``, looked up at call time; a singular A raises ``LinAlgError``."""
    try:
        return scipy.sparse.linalg.splu(A)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(str(exc)) from None


class Linearization:
    """Frozen-control linear map L with L u = apply(op, u) at the base point.

    Held as the diagonal plus one gated (upper, lower) band pair per axis
    (see ``_Stencil.bands``); the 1D solve runs LAPACK gtsv on these bands
    and the sparse matrix (2D) is built from them. A singular system or
    non-finite solution raises ``np.linalg.LinAlgError``
    (``scipy.linalg.LinAlgError``).
    """

    def __init__(self, diag: np.ndarray, bands: list[tuple[np.ndarray, np.ndarray]],
                 active: np.ndarray):
        self.active = active
        self.diag = diag
        self.bands = bands
        self._matrix = None
        self._lu = None
        self._bordered = (None, None, None)  # (column, row, LU) of the last bordered solve

    @property
    def matrix(self) -> scipy.sparse.csc_matrix:
        """L in CSC form, exact zeros dropped."""
        if self._matrix is None:
            N = self.diag.size
            diagonals, offsets = [self.diag], [0]
            for upper, lower in self.bands:
                s = N - upper.size  # the band at offset s has N - s entries
                diagonals += [upper, lower]
                offsets += [s, -s]
            self._matrix = scipy.sparse.diags(diagonals, offsets, format="csc")
        return self._matrix

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if len(self.bands) == 1:
            upper, lower = self.bands[0]
            # gtsv works on copies of the bands; a non-finite rhs gives a
            # non-finite solution, refused below
            sol, info = _gtsv(lower, self.diag, upper, rhs)[3:]
            if info > 0:
                raise np.linalg.LinAlgError("singular tridiagonal matrix")
        else:
            if self._lu is None:
                self._lu = _factor(self.matrix)
            sol = self._lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite solution from direct solve")
        return sol

    def solve_bordered(self, column: np.ndarray, row: int, rhs: np.ndarray) -> np.ndarray:
        """Solve the bordered system [[L, column], [e_row, 0]] x = rhs, where
        e_row is the unit row vector at node ``row``. The factor of the last
        (column, row) pair is kept."""
        last_column, last_row, lu = self._bordered
        if last_row != row or not np.array_equal(last_column, column):
            e_row = scipy.sparse.csc_matrix(np.eye(1, self.diag.size, row))
            lu = _factor(scipy.sparse.bmat([[self.matrix, scipy.sparse.csc_matrix(column[:, None])],
                                            [e_row, None]], format="csc"))
            self._bordered = (column, row, lu)
        sol = lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite solution from bordered solve")
        return sol


class TwoPolicyFactors:
    """An operator remembering the ``Linearization`` of its last two
    policies with the factors each holds, for the length of one call.

    Inverse iteration (each inner solve starts at u = 0, whose policy is
    not the converged one) and the fold corrector alternate between two
    policies, so one remembered policy would refactor both on every step.
    ``linearize`` still asks the wrapped operator for the policy; the same
    policy gives the same matrix. Everything else is the wrapped operator's.
    """

    def __init__(self, op):
        self.op = op
        self.grid = op.grid
        self.apply_flat = op.apply_flat
        self.matrix_scale = op.matrix_scale
        self._lins: dict[bytes, Linearization] = {}

    def linearize(self, u: GridFunction | np.ndarray) -> Linearization:
        lin = self.op.linearize(u)
        key = lin.active.tobytes()
        lin = self._lins.pop(key, lin)
        self._lins[key] = lin
        if len(self._lins) > 2:
            del self._lins[next(iter(self._lins))]
        return lin


@dataclass(frozen=True)
class DiscreteOperator:
    """F_h + shift, the discretized family plus a spectral shift lambda*u."""

    family: ControlFamily
    grid: Grid
    shift: float = 0.0
    _stencil: _Stencil = field(init=False, default=None, repr=False, compare=False)
    # (active.tobytes(), Linearization) of the last linearize call
    _last: tuple = field(init=False, default=(None, None), repr=False, compare=False)
    _scale: float = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.family.dim != self.grid.dim:
            raise ConfigurationError("family and grid dimension mismatch")
        env = self.family.envelope
        h = np.array(self.grid.h)
        # huge but finite coefficients can overflow at this h; the scale
        # check below reports that, so the overflow itself stays silent
        with np.errstate(over="ignore"):
            # CFL-type admissibility: diffusion must dominate the drift at this h.
            if min(env.lam_ell / h**2) < env.gamma / (2.0 * h.min()) - 1e-15:
                raise AdmissibilityError(
                    f"stencil not monotone: min(lam/h^2)={min(env.lam_ell / h**2):.3g} "
                    f"< gamma/(2 min h)={env.gamma / (2 * h.min()):.3g}"
                )
            scale = float(np.sum(4.0 * env.Lam_ell / h**2 + 2.0 * env.gamma / h)
                          + env.delta + abs(self.shift))
        # every stencil weight and diagonal entry is at most the matrix scale
        # in size, so a finite scale keeps them all finite
        if not np.isfinite(scale):
            raise ConfigurationError(
                "coefficients too large for this grid: the stencil weights, diagonal "
                "or matrix scale overflow")
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_stencil", _Stencil(self.family, self.grid, self.shift))

    # -- evaluation ----------------------------------------------------

    def _control_values(self, flat: np.ndarray) -> np.ndarray:
        """(n_controls, N) array of L_a u, vectorized over the control list."""
        st = self._stencil
        vals = st.zeroth[:, None] * flat
        for ax, (plus, minus) in enumerate(_neighbor_views(self.grid, flat)):
            h = self.grid.h[ax]
            # the undivided second difference, scaled once for every control
            d2 = (plus - 2.0 * flat + minus) / h**2
            vals = vals + st.diffusion[:, ax, None] * d2
            fwd, bwd = st.upwind[ax]
            if fwd.size:
                vals[fwd] += st.b_plus[fwd, ax, None] * (plus - flat) / h
            if bwd.size:
                vals[bwd] += st.b_minus[bwd, ax, None] * (flat - minus) / h
        return vals

    def apply_flat(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=float)
        vals = self._control_values(flat)
        best = vals.max(axis=0) if self.family.is_convex else vals.min(axis=0)
        return best + self.shift * flat

    def linearize(self, u: GridFunction | np.ndarray) -> Linearization:
        """Linear stencil of the active control at each node: the argmax,
        or the argmin for an inf-type family.

        Ties select the lowest control index; for the extremal kinds that
        is the coefficient of (D2u)^+ on an axis whose second difference
        is exactly zero.

        The policy ``active`` determines the matrix, so an unchanged
        policy returns the previous ``Linearization`` itself, with the
        factorization it already holds.
        """
        flat = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
        st = self._stencil
        vals = self._control_values(flat)
        active = np.argmax(vals, axis=0) if self.family.is_convex else np.argmin(vals, axis=0)
        key = active.tobytes()
        last_key, lin = self._last
        if last_key == key:
            return lin
        diag = st.diag[active]
        links = [(up[active], low[active]) for up, low in st.links]
        lin = Linearization(diag, st.bands(links), active)
        object.__setattr__(self, "_last", (key, lin))
        return lin

    def matrix_scale(self) -> float:
        """Rough inf-norm of any linearization, for conditioning-aware
        tolerances; computed once at construction."""
        return self._scale

