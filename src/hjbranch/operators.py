"""Monotone finite-difference discretization of sup-type elliptic operators.

The operator family is F[u] = sup_a { tr(A_a D2u) + b_a . Du + c_a u }
over a finite control list, together with three closed-form kinds:

* ``pucci_plus`` / ``pucci_minus``: axis-wise extremal operators
  sum_i ( Lam (D2_ii u)^+ - lam (D2_ii u)^- ) and its mirror. In 1D this
  is exactly the extremal operator over [lam, Lam]; in 2D it is the
  axis-aligned restriction a five-point stencil can represent.
* ``fucik``: Laplacian plus weights on the positive/negative parts,
  represented internally as a two-control sup family with
  c in {b_plus, b_minus}, which requires b_plus >= b_minus.

Second derivatives use central differences, drift uses upwind
differences, so every control's stencil has nonnegative off-diagonal
weights and the scheme is monotone. A CFL-type admissibility bound is
still enforced at construction so that inadmissible configurations fail
loudly instead of losing comparison.

``pucci_minus`` is an inf-type (concave) operator; it is provided as
the envelope/mirror tool. Algebraic checks run in the orientation that
matches the kind (sub- vs super-additivity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    AdmissibilityError,
    ConfigurationError,
    PropertyFailureError,
    UsageError,
)
from .grids import Grid, GridFunction, SubdomainMask

CONVEX_KINDS = ("linear", "finite_sup", "fucik", "pucci_plus")
ALL_KINDS = CONVEX_KINDS + ("pucci_minus",)


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
    """A sup-type (or closed-form extremal) operator family."""

    kind: str
    controls: tuple[ControlCoeffs, ...]
    envelope: Envelope
    dim: int
    fucik_weights: tuple[float, float] | None = None
    pucci_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ConfigurationError(f"unknown family kind {self.kind!r}")
        if self.kind in ("linear", "finite_sup", "fucik"):
            if not self.controls:
                raise ConfigurationError("control list must be nonempty")
            for c in self.controls:
                if c.dim != self.dim:
                    raise ConfigurationError("control dimension mismatch")
                diag = c.diag_diffusion()
                if diag.min() < self.envelope.lam_ell - 1e-12 or diag.max() > self.envelope.Lam_ell + 1e-12:
                    raise ConfigurationError("control diffusion escapes the envelope")
                if np.linalg.norm(c.drift) > self.envelope.gamma + 1e-12:
                    raise ConfigurationError("control drift escapes the envelope")
                if abs(c.zeroth) > self.envelope.delta + 1e-12:
                    raise ConfigurationError("control zeroth coefficient escapes the envelope")

    # -- constructors -------------------------------------------------

    @classmethod
    def linear(cls, diffusion=1.0, drift=None, zeroth=0.0, dim=1, envelope=None) -> "ControlFamily":
        if drift is None:
            drift = np.zeros(dim)
        if np.isscalar(diffusion):
            diffusion = np.eye(dim) * float(diffusion)
        ctrl = ControlCoeffs.make(diffusion, drift, zeroth)
        env = envelope or cls._tight_envelope([ctrl])
        return cls("linear", (ctrl,), env, ctrl.dim)

    @classmethod
    def laplacian(cls, dim=1) -> "ControlFamily":
        return cls.linear(diffusion=1.0, dim=dim)

    @classmethod
    def finite_sup(cls, controls, envelope=None) -> "ControlFamily":
        ctrls = tuple(
            c if isinstance(c, ControlCoeffs) else ControlCoeffs.make(*c) for c in controls
        )
        env = envelope or cls._tight_envelope(ctrls)
        return cls("finite_sup", ctrls, env, ctrls[0].dim)

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
        env = cls._tight_envelope(ctrls)
        return cls("fucik", ctrls, env, dim, fucik_weights=(float(b_plus), float(b_minus)))

    @classmethod
    def pucci_plus(cls, lam_ell: float, Lam_ell: float, dim: int = 1) -> "ControlFamily":
        env = Envelope(float(lam_ell), float(Lam_ell), 0.0, 0.0)
        return cls("pucci_plus", (), env, dim, pucci_bounds=(float(lam_ell), float(Lam_ell)))

    @classmethod
    def pucci_minus(cls, lam_ell: float, Lam_ell: float, dim: int = 1) -> "ControlFamily":
        env = Envelope(float(lam_ell), float(Lam_ell), 0.0, 0.0)
        return cls("pucci_minus", (), env, dim, pucci_bounds=(float(lam_ell), float(Lam_ell)))

    @staticmethod
    def _tight_envelope(ctrls) -> Envelope:
        diags = np.concatenate([c.diag_diffusion() for c in ctrls])
        gamma = max(float(np.linalg.norm(c.drift)) for c in ctrls)
        delta = max(abs(c.zeroth) for c in ctrls)
        return Envelope(float(diags.min()), float(diags.max()), gamma, delta)

    # -- properties ----------------------------------------------------

    @property
    def is_convex(self) -> bool:
        return self.kind != "pucci_minus"

    @property
    def max_zeroth(self) -> float:
        if self.kind in ("pucci_plus", "pucci_minus"):
            return 0.0
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
        plus = np.zeros_like(U)
        minus = np.zeros_like(U)
        plus[lead + (slice(None, -1),)] = U[lead + (slice(1, None),)]
        minus[lead + (slice(1, None),)] = U[lead + (slice(None, -1),)]
        out.append((plus.ravel(), minus.ravel()))
    return out


class _Stencil:
    """The monotone stencil of one operator, built once from the family,
    the grid, the shift and the mask; apply, linearize and both matrix
    forms all read it.

    Per control (m of them): diagonal diffusion and split drift
    b+ = max(b, 0), b- = min(b, 0), each (m, dim), and the zeroth-order
    coefficient (m,); from those the frozen-control weights, per axis the
    links up (to k+s) and low (to k-s) and the diagonal including the
    shift. Per axis with stride s: the gate of length N - s marking the
    linked pairs (k, k+s), i.e. both nodes on one grid line and both
    included. The extremal kinds have no controls; their weights depend
    on the argument, and ``pucci`` holds the weights of the second
    difference where it is >= 0 and where it is < 0 (None for the other
    kinds).
    """

    def __init__(self, family: ControlFamily, grid: Grid, shift: float,
                 included: np.ndarray | None):
        m, dim = len(family.controls), grid.dim
        self.diffusion = np.array([c.diag_diffusion() for c in family.controls]).reshape(m, dim)
        drift = np.array([c.drift for c in family.controls]).reshape(m, dim)
        self.b_plus = np.maximum(drift, 0.0)
        self.b_minus = np.minimum(drift, 0.0)
        self.zeroth = np.array([c.zeroth for c in family.controls])
        # controls that upwind forward (b > 0) and backward (b < 0) per axis
        self.upwind = [(np.flatnonzero(self.b_plus[:, ax] > 0),
                        np.flatnonzero(self.b_minus[:, ax] < 0)) for ax in range(dim)]
        self.pucci = None
        if family.kind in ("pucci_plus", "pucci_minus"):
            lam, Lam = family.pucci_bounds
            self.pucci = (Lam, lam) if family.kind == "pucci_plus" else (lam, Lam)
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
            gate = gate.ravel()[:-s]
            if included is not None:
                gate &= included[:-s] & included[s:]
            self.gates.append(gate)

    def bands(self, links: list[tuple[np.ndarray, np.ndarray]]) -> list:
        """Gate per-node (up, low) link weights into per-axis (upper, lower)
        bands: upper[k] is the entry (k, k+s), lower[k] the entry (k+s, k),
        and both are 0 where the pair is not linked."""
        return [(np.where(gate, up[:-s], 0.0), np.where(gate, low[s:], 0.0))
                for s, gate, (up, low) in zip(self.strides, self.gates, links)]


class Linearization:
    """Frozen-control linear map L with L u = apply(op, u) at the base point.

    Held as the diagonal plus one gated (upper, lower) band pair per axis
    (see ``_Stencil.bands``); the banded solve (1D) and the sparse matrix
    (2D) are both built from these bands. Excluded (masked) nodes carry
    identity rows.
    """

    def __init__(self, grid: Grid, included: np.ndarray | None, diag: np.ndarray,
                 bands: list[tuple[np.ndarray, np.ndarray]], active: np.ndarray):
        self.grid = grid
        self.included = included
        self.active = active
        self.diag = diag
        self.bands = bands
        self._matrix = None
        self._banded = None
        self._lu = None

    @property
    def matrix(self) -> scipy.sparse.csc_matrix:
        """L in CSC form, exact zeros dropped."""
        if self._matrix is None:
            N = self.grid.num_nodes
            diagonals, offsets = [self.diag], [0]
            for upper, lower in self.bands:
                s = N - upper.size  # the band at offset s has N - s entries
                diagonals += [upper, lower]
                offsets += [s, -s]
            self._matrix = scipy.sparse.diags(diagonals, offsets, format="csc")
        return self._matrix

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if self.included is not None:
            rhs = np.where(self.included, rhs, 0.0)
        if self.grid.dim == 1:
            if self._banded is None:
                upper, lower = self.bands[0]
                ab = np.zeros((3, self.grid.num_nodes))
                ab[0, 1:] = upper
                ab[1] = self.diag
                ab[2, :-1] = lower
                self._banded = ab
            sol = scipy.linalg.solve_banded((1, 1), self._banded, rhs)
        else:
            if self._lu is None:
                self._lu = scipy.sparse.linalg.splu(self.matrix)
            sol = self._lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise scipy.linalg.LinAlgError("non-finite solution from direct solve")
        return sol


@dataclass(frozen=True)
class DiscreteOperator:
    """F_h + shift, the discretized family plus a spectral shift lambda*u."""

    family: ControlFamily
    grid: Grid
    shift: float = 0.0
    mask: SubdomainMask | None = None
    _incl: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    _stencil: _Stencil = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.family.dim != self.grid.dim:
            raise ConfigurationError("family and grid dimension mismatch")
        env = self.family.envelope
        h = np.array(self.grid.h)
        # CFL-type admissibility: diffusion must dominate the drift at this h.
        if min(env.lam_ell / h**2) < env.gamma / (2.0 * h.min()) - 1e-15:
            raise AdmissibilityError(
                f"stencil not monotone: min(lam/h^2)={min(env.lam_ell / h**2):.3g} "
                f"< gamma/(2 min h)={env.gamma / (2 * h.min()):.3g}"
            )
        if self.mask is not None and self.mask.grid != self.grid:
            raise ConfigurationError("mask grid mismatch")
        incl = None if self.mask is None else self.mask.included
        object.__setattr__(self, "_incl", incl)
        object.__setattr__(self, "_stencil", _Stencil(self.family, self.grid, self.shift, incl))

    # -- evaluation ----------------------------------------------------

    def _masked(self, flat: np.ndarray) -> np.ndarray:
        if self._incl is None:
            return flat
        return np.where(self._incl, flat, 0.0)

    def _differences(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per axis (plus, minus, plus - 2u + minus): the neighbour values
        and the undivided second difference."""
        return [(plus, minus, plus - 2.0 * flat + minus)
                for plus, minus in _neighbor_views(self.grid, flat)]

    def _control_values(self, flat: np.ndarray) -> np.ndarray:
        """(n_controls, N) array of L_a u, vectorized over the control list."""
        st = self._stencil
        vals = st.zeroth[:, None] * flat
        for ax, (plus, minus, second) in enumerate(self._differences(flat)):
            h = self.grid.h[ax]
            vals = vals + st.diffusion[:, ax, None] * second / h**2
            fwd, bwd = st.upwind[ax]
            if fwd.size:
                vals[fwd] += st.b_plus[fwd, ax, None] * (plus - flat) / h
            if bwd.size:
                vals[bwd] += st.b_minus[bwd, ax, None] * (flat - minus) / h
        return vals

    def apply_flat(self, flat: np.ndarray) -> np.ndarray:
        flat = self._masked(np.asarray(flat, dtype=float))
        if self._stencil.pucci is None:
            vals = self._control_values(flat)
            out = vals.max(axis=0) + self.shift * flat
        else:
            w_pos, w_neg = self._stencil.pucci
            acc = np.zeros_like(flat)
            for ax, (_, _, second) in enumerate(self._differences(flat)):
                d2 = second / self.grid.h[ax] ** 2
                acc += w_pos * np.maximum(d2, 0.0) - w_neg * np.maximum(-d2, 0.0)
            out = acc + self.shift * flat
        if self._incl is not None:
            out = np.where(self._incl, out, 0.0)
        return out

    def apply(self, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise UsageError("grid mismatch between operator and argument")
        return GridFunction(self.grid, self.apply_flat(u.values), check_finite=False)

    def linearize(self, u: GridFunction | np.ndarray) -> Linearization:
        """Linear stencil of the argmax control at each node.

        Ties select the lowest control index; the extremal kinds select
        the upper-coefficient branch of (D2u)^+ when the second
        difference is exactly zero.
        """
        flat = self._masked(u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float))
        st = self._stencil
        if st.pucci is None:
            active = np.argmax(self._control_values(flat), axis=0)
            diag = st.diag[active]
            links = [(up[active], low[active]) for up, low in st.links]
        else:
            w_pos, w_neg = st.pucci
            diag = np.full(flat.size, self.shift)
            active = np.zeros(flat.size, dtype=int)
            links = []
            for ax, (_, _, second) in enumerate(self._differences(flat)):
                h2 = self.grid.h[ax] ** 2
                upper = second / h2 >= 0.0
                w = np.where(upper, w_pos, w_neg)
                links.append((w / h2, w / h2))
                diag += -2.0 * w / h2
                active = active | (upper.astype(int) << ax)
        if self._incl is not None:
            diag = np.where(self._incl, diag, 1.0)
        return Linearization(self.grid, self._incl, diag, st.bands(links), active)

    def with_shift(self, shift: float) -> "DiscreteOperator":
        return DiscreteOperator(self.family, self.grid, shift, self.mask)

    def matrix_scale(self) -> float:
        """Rough inf-norm of any linearization, for conditioning-aware tolerances."""
        env = self.family.envelope
        h = np.array(self.grid.h)
        return float(np.sum(4.0 * env.Lam_ell / h**2 + 2.0 * env.gamma / h) + env.delta + abs(self.shift))


class MirroredOperator:
    """G + shift with G[u] = -F[-u]; shares grid, mask and solve machinery.

    The mirrored operator of a sup family is the corresponding inf
    family; its positive principal eigenpair coincides with the negative
    one of the original operator. Used as an independent test oracle.
    """

    def __init__(self, inner: DiscreteOperator):
        self.inner = inner
        self.family = inner.family
        self.grid = inner.grid
        self.mask = inner.mask
        self.shift = inner.shift
        self._incl = inner._incl

    def apply_flat(self, flat: np.ndarray) -> np.ndarray:
        # -(F + s)(-u) = -F(-u) + s*u: the shift mirrors onto itself.
        return -self.inner.apply_flat(-np.asarray(flat, dtype=float))

    def apply(self, u: GridFunction) -> GridFunction:
        return GridFunction(self.grid, self.apply_flat(u.values), check_finite=False)

    def linearize(self, u: GridFunction | np.ndarray) -> Linearization:
        flat = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
        return self.inner.linearize(-flat)

    def with_shift(self, shift: float) -> "MirroredOperator":
        return MirroredOperator(self.inner.with_shift(shift))

    def matrix_scale(self) -> float:
        return self.inner.matrix_scale()


# ---------------------------------------------------------------------------
# envelope evaluations and algebraic property checks
# ---------------------------------------------------------------------------


def pucci_envelope_flat(op: DiscreteOperator, flat: np.ndarray, side: str) -> np.ndarray:
    """Extremal envelope M+/- of the family's (lam, Lam) bounds, same stencil."""
    env = op.family.envelope
    kind = "pucci_plus" if side == "+" else "pucci_minus"
    fam = ControlFamily(kind, (), Envelope(env.lam_ell, env.Lam_ell, 0.0, 0.0),
                        op.grid.dim, pucci_bounds=(env.lam_ell, env.Lam_ell))
    return DiscreteOperator(fam, op.grid, 0.0, op.mask).apply_flat(flat)


def gradient_magnitude_flat(grid: Grid, flat: np.ndarray) -> np.ndarray:
    """Discrete |Du|: per axis the larger of |forward|, |backward| difference,
    combined in the Euclidean norm. Chosen so that the Lipschitz sandwich
    holds exactly for upwinded stencils."""
    views = _neighbor_views(grid, flat)
    acc = np.zeros_like(flat)
    for ax, (plus, minus) in enumerate(views):
        fwd = np.abs(plus - flat) / grid.h[ax]
        bwd = np.abs(flat - minus) / grid.h[ax]
        acc += np.maximum(fwd, bwd) ** 2
    return np.sqrt(acc)


@dataclass
class PropertyReport:
    """Max scaled violations of the exact stencil algebra over random trials."""

    kind: str
    trials: int
    homogeneity: float
    additivity: float
    midpoint: float
    sandwich: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.homogeneity, self.additivity, self.midpoint, self.sandwich) <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "trials": self.trials,
            "homogeneity": self.homogeneity,
            "additivity": self.additivity,
            "midpoint": self.midpoint,
            "sandwich": self.sandwich,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_h0_h3(op: DiscreteOperator, trials: int = 100, seed: int = 0,
                tolerance: float = 1e-10) -> PropertyReport:
    """Verify positive 1-homogeneity, the difference bound, the midpoint
    inequality and the extremal-envelope sandwich on seeded random pairs.

    Convex kinds are checked as sup-forms; the inf-type ``pucci_minus``
    is checked with the mirrored (super-additive) orientation. The random
    pairs vanish at masked-out nodes, where the operator reads zero.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    N = op.grid.num_nodes
    env = op.family.envelope
    convex = op.family.is_convex
    worst = dict(h=0.0, a=0.0, m=0.0, s=0.0)
    for _ in range(trials):
        u = op._masked(rng.standard_normal(N))
        v = op._masked(rng.standard_normal(N))
        t = abs(rng.standard_normal()) + 0.1
        k = rng.uniform(0.0, 1.0)
        Fu = op.apply_flat(u)
        Fv = op.apply_flat(v)
        scale = 1.0 + max(np.abs(Fu).max(), np.abs(Fv).max())
        # H0
        viol = np.abs(op.apply_flat(t * u) - t * Fu).max() / (1.0 + t * np.abs(Fu).max())
        worst["h"] = max(worst["h"], viol)
        # difference bound / additivity
        Fd = op.apply_flat(u - v)
        gap = (Fu - Fv) - Fd
        viol = (gap if convex else -gap).max() / scale
        worst["a"] = max(worst["a"], max(viol, 0.0))
        # midpoint (convexity or concavity per kind)
        Fm = op.apply_flat(k * u + (1.0 - k) * v)
        gap = Fm - (k * Fu + (1.0 - k) * Fv)
        viol = (gap if convex else -gap).max() / scale
        worst["m"] = max(worst["m"], max(viol, 0.0))
        # envelope sandwich (holds for every uniformly elliptic kind)
        d = u - v
        upper = pucci_envelope_flat(op, d, "+") + env.gamma * gradient_magnitude_flat(op.grid, d) \
            + env.delta * np.abs(d) + op.shift * d
        lower = pucci_envelope_flat(op, d, "-") - env.gamma * gradient_magnitude_flat(op.grid, d) \
            - env.delta * np.abs(d) + op.shift * d
        viol = max(((Fu - Fv) - upper).max(), (lower - (Fu - Fv)).max()) / scale
        worst["s"] = max(worst["s"], max(viol, 0.0))
    report = PropertyReport(op.family.kind, trials, worst["h"], worst["a"],
                            worst["m"], worst["s"], tolerance)
    if not report.passed:
        raise PropertyFailureError(
            f"stencil algebra violated beyond {tolerance:g}: {report.as_dict()}", report
        )
    return report
