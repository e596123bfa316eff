"""Seeded workloads: inputs, the ops of one pass, and their correctness gates.

Every input is drawn from the workload seed; the package only ever sees the
generated grid, family, forcing arrays and scenario files. Each gate checks a
result against an oracle recomputed from those inputs (closed-form stencil
spectra, the Fredholm orthogonality value, the package's own exit-code
contract) at the tolerances of the repository's tests.

Workloads (names are cited by later changes, keep them stable):

* ``fold2d``  -- 2D Fucik fold at 63^2, h = 0: ``trace_fold`` (which runs
  ``prepare`` itself). Factorization-bound with a working set of a handful
  of distinct matrices, so factor reuse shows here first.
* ``tstar2d`` -- 2D resonance at lam_1^- at 47^2 with a seeded smooth
  forcing: ``locate_tstar_resonance("-")``. Same factor layer, but many
  distinct shifted matrices and blow-up solves.
* ``cli1d``   -- in-process ``hjbranch.cli.main`` on the five shipped
  scenarios (seed-perturbed) at n=199 and n=799, ``suite`` with one and two
  jobs, and a last ``eigen`` at n=3199 that probes the known fine-grid
  defect. The 1D banded path barely factors: the no-change control.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hjbranch.branches as br
import hjbranch.cli as cli
from hjbranch.grids import GridFunction, build_grid
from hjbranch.operators import ControlFamily, DiscreteOperator

SCENARIO_DIR = Path(cli.__file__).parent / "scenarios"

# Oracle tolerances, as the acceptance criteria of the test suite set them.
TOL_LAPLACIAN_ABS = 1e-9   # criterion 01
TOL_PUCCI_REL = 1e-8       # criterion 02
TOL_FUCIK_ABS = 1e-8       # criterion 03
TOL_FOLD_TSTAR = 1e-6      # test_2d_fold
TOL_FOLD_GAP_MIN = 1e-4
TOL_FOLD_MERGE = 1e-6

# Seed outcome of the fine-grid probe (eigen at n=3199): exit 4 with an
# EigenIterationError, because the absolute residual_tol sits below the
# rounding floor of the n=3199 stencil.
PROBE_N = 3199
PROBE_EXPECTED_EXIT = 4
PROBE_EXPECTED_MESSAGE = "inverse iteration did not converge"


def probe_failed_as_recorded(result) -> bool:
    code, err = result
    return code == PROBE_EXPECTED_EXIT and PROBE_EXPECTED_MESSAGE in err


def lam_h(n: int, length: float = 1.0) -> float:
    """Principal eigenvalue of the three-point Dirichlet stencil on [0, length]."""
    h = length / (n + 1)
    return (2.0 / h**2) * (1.0 - math.cos(math.pi * h / length))


def lam_h_square(n: int) -> float:
    """Principal eigenvalue of the five-point stencil on the unit square."""
    return 2.0 * lam_h(n)


@dataclass
class Op:
    """One user-visible call. ``run(out_dir)`` returns the raw result,
    ``gate(result, out_dir)`` returns (ok, detail), ``digest`` hashes the
    numeric payload.

    A probe op (one with ``expected_failure``) counts in attempted/failed but
    stays out of every time metric, so fixing its defect reads as fewer
    failures rather than as a slowdown; ``expected_failure(result)`` tells
    the recorded known failure from any other."""

    label: str
    run: Callable[[Path], Any]
    gate: Callable[[Any, Path], tuple[bool, str]]
    digest: Callable[[Any, Path], str]
    expected_failure: Callable[[Any], bool] | None = None

    @property
    def probe(self) -> bool:
        return self.expected_failure is not None


@dataclass
class Workload:
    name: str
    inputs: dict
    min_passes: int
    ops: list[Op] = field(default_factory=list)


def _hash_arrays(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(np.asarray(p, dtype=float)).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# fold2d
# ---------------------------------------------------------------------------


def _fold2d(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    n = 15 if smoke else 63
    # fold regime needs b > lam_h(square) ~ 2 pi^2 ~ 19.7; a narrow window
    # keeps the continuation path (and the work) alike across seeds
    b = float(25.5 + rng.uniform(0.0, 1.0))
    inputs = {"n": n, "b_plus": b, "t_range": [-1.0, 3.0], "n_samples": 9}
    return Workload("fold2d", inputs, min_passes=1 if smoke else 2)


def _build_fold2d(wl: Workload) -> None:
    p = wl.inputs
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), p["n"])
    family = ControlFamily.fucik(p["b_plus"], 0.0, dim=2)
    DiscreteOperator(family, grid, 0.0)
    cfg = br.BranchConfig(family, grid, 0.0, tuple(p["t_range"]), p["n_samples"])

    def gate(result, out):
        minimal, second, crit = result
        gap = minimal.diagnostics["branch_gap_min"]
        merge = minimal.diagnostics["merge_gap"]
        ok = (abs(crit.t_star) <= TOL_FOLD_TSTAR and gap > TOL_FOLD_GAP_MIN
              and merge <= TOL_FOLD_MERGE)
        return ok, f"t*={crit.t_star:.3e} branch_gap_min={gap:.3e} merge_gap={merge:.3e}"

    def digest(result, out):
        minimal, second, crit = result
        parts = [[crit.t_star, *crit.bracket]]
        for branch in (minimal, second):
            for pt in branch.points:
                parts += [[pt.t, pt.d], pt.u.values]
        return _hash_arrays(*parts)

    wl.ops = [Op("trace_fold", lambda out: br.trace_fold(cfg), gate, digest)]


# ---------------------------------------------------------------------------
# tstar2d
# ---------------------------------------------------------------------------


def _tstar2d(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    n = 11 if smoke else 47
    inputs = {
        "n": n,
        "b_plus": lam_h_square(n) + 4.0,
        "bubble": float(rng.uniform(0.5, 1.0)),
        "modes": {f"{j},{k}": float(rng.uniform(-0.3, 0.3))
                  for j, k in ((2, 1), (1, 2), (2, 2))},
        "t_range": [-2.0, 2.0],
        "n_samples": 9,
    }
    return Workload("tstar2d", inputs, min_passes=1 if smoke else 2)


def _tstar2d_forcing(grid, p: dict) -> np.ndarray:
    x, y = grid.coords()[:, 0], grid.coords()[:, 1]
    vals = p["bubble"] * 16.0 * x * (1 - x) * y * (1 - y)
    for key, amp in p["modes"].items():
        j, k = (int(v) for v in key.split(","))
        vals = vals + amp * np.sin(j * np.pi * x) * np.sin(k * np.pi * y)
    return vals


def _build_tstar2d(wl: Workload) -> None:
    p = wl.inputs
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), p["n"])
    family = ControlFamily.fucik(p["b_plus"], 0.0, dim=2)
    h_vals = _tstar2d_forcing(grid, p)
    DiscreteOperator(family, grid, 0.0)
    cfg = br.BranchConfig(family, grid, br.AT_LAM_MINUS, tuple(p["t_range"]),
                          p["n_samples"], h_fun=GridFunction(grid, h_vals))
    # the negative sector is linear at lam_1^- (b_minus = 0), so t* is the
    # Fredholm value; the sampled sine product is the exact discrete phi^+
    x, y = grid.coords()[:, 0], grid.coords()[:, 1]
    s = np.sin(np.pi * x) * np.sin(np.pi * y)
    t_orth = -float(np.dot(h_vals, s) / np.dot(s, s))

    def gate(crit, out):
        lo, hi = crit.bracket
        return lo < t_orth < hi, f"t_orth={t_orth:.9f} bracket=({lo:.9f}, {hi:.9f})"

    def digest(crit, out):
        d = crit.diagnostics
        return _hash_arrays([crit.t_star, *crit.bracket], d["boundaries"], d["widths"],
                            np.asarray(crit.blowup_evidence, dtype=float).ravel())

    wl.ops = [Op("locate_tstar_resonance(-)",
                 lambda out: br.locate_tstar_resonance(cfg, "-"), gate, digest)]


# ---------------------------------------------------------------------------
# cli1d
# ---------------------------------------------------------------------------


def _cli1d(seed: int, smoke: bool) -> Workload:
    rng = np.random.default_rng(seed)
    shipped = {p.stem: json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(SCENARIO_DIR.glob("*.json"))}
    if sorted(shipped) != ["fucik_fold", "fucik_subcritical", "laplacian_eigen",
                           "pucci_eigen", "resonance_minus"]:
        raise RuntimeError(f"unexpected shipped scenarios: {sorted(shipped)}")
    # small seeded moves that keep every scenario inside its regime
    shipped["fucik_fold"]["family"]["b_plus"] *= float(rng.uniform(0.95, 1.05))
    shipped["fucik_subcritical"]["family"]["b_plus"] *= float(rng.uniform(0.9, 1.1))
    s = float(rng.uniform(0.8, 1.2))
    shipped["pucci_eigen"]["family"].update(lam_ell=s, Lam_ell=2.0 * s)
    res = shipped["resonance_minus"]
    res["family"]["b_plus"] += float(rng.uniform(-0.5, 0.5))
    c = float(rng.uniform(0.8, 1.2))
    res["h_fun"]["coeffs"] = [0.0, c, -c]
    scenarios = {}
    for n in ((49,) if smoke else (199, 799)):
        for name, data in shipped.items():
            copy = json.loads(json.dumps(data))
            copy["grid"]["n"] = [n]
            scenarios[f"{name}_{n}"] = copy
    probe = json.loads(json.dumps(shipped["laplacian_eigen"]))
    probe["grid"]["n"] = [PROBE_N]
    scenarios[f"laplacian_eigen_{PROBE_N}"] = probe
    inputs = {"scenarios": scenarios, "probe_scenario": f"laplacian_eigen_{PROBE_N}",
              "suite_scenario": f"laplacian_eigen_{49 if smoke else 199}", "suite_seed": seed}
    # six passes put at least 11 suite latencies in the pool, so op_tail_s
    # always lands on a suite op rather than flipping with the pass count
    return Workload("cli1d", inputs, min_passes=1 if smoke else 6)


def write_scenarios(wl: Workload, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, data in wl.inputs["scenarios"].items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True), encoding="utf-8")
        paths[key] = path
    return paths


def _eigen_oracle(data: dict) -> tuple[float, float, Callable[[float, float], bool]]:
    """(lam_plus, lam_minus, within_tolerance) from the closed-form spectrum."""
    (a, b), = data["grid"]["extents"]
    lh = lam_h(data["grid"]["n"][0], b - a)
    fam = data["family"]
    if fam["kind"] == "linear":
        d = fam.get("diffusion", 1.0)
        return d * lh, d * lh, lambda got, want: abs(got - want) <= TOL_LAPLACIAN_ABS
    if fam["kind"] == "pucci_plus":
        return (fam["lam_ell"] * lh, fam["Lam_ell"] * lh,
                lambda got, want: abs(got - want) <= TOL_PUCCI_REL * abs(want))
    if fam["kind"] == "fucik":
        return (lh - fam["b_plus"], lh - fam.get("b_minus", 0.0),
                lambda got, want: abs(got - want) <= TOL_FUCIK_ABS)
    raise ValueError(f"no eigen oracle for family kind {fam['kind']!r}")


def _payload_digest(result, out: Path) -> str:
    """sha256 over every output file except run.json (it carries wall time)."""
    h = hashlib.sha256()
    h.update(str(result[0]).encode())
    if out.is_dir():
        for f in sorted(out.rglob("*")):
            if f.is_file() and f.name != "run.json":
                h.update(f.relative_to(out).as_posix().encode() + b"\0")
                h.update(f.read_bytes())
    return h.hexdigest()


def _cli_run(argv: list[str]) -> Callable[[Path], tuple[int, str]]:
    def run(out: Path) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([argv[0], argv[1], "--out", str(out), *argv[2:]])
        return code, err.getvalue().strip()
    return run


def _exit_detail(result) -> str:
    code, err = result
    return f"exit {code}" + (f" ({err})" if err else "")


def _eigen_op(key: str, path: Path, data: dict, probe: bool = False) -> Op:
    lam_plus, lam_minus, close = _eigen_oracle(data)

    def gate(result, out):
        if result[0] != 0:
            return False, _exit_detail(result)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        got_p, got_m = summary["plus"]["lam"], summary["minus"]["lam"]
        ok = close(got_p, lam_plus) and close(got_m, lam_minus)
        return ok, f"lam+ err {got_p - lam_plus:.2e}, lam- err {got_m - lam_minus:.2e}"

    return Op(f"eigen {key}", _cli_run(["eigen", str(path)]), gate, _payload_digest,
              probe_failed_as_recorded if probe else None)


def _tstar_op(key: str, path: Path, data: dict) -> Op:
    # at lam_1^- with b_minus = 0 the negative sector is linear: t* is the
    # Fredholm value against the exact discrete phi^+ = sin(pi x)
    x = np.linspace(0.0, 1.0, data["grid"]["n"][0] + 2)[1:-1]
    hx = sum(cf * x**k for k, cf in enumerate(data["h_fun"]["coeffs"]))
    s = np.sin(np.pi * x)
    t_orth = -float(np.dot(hx, s) / np.dot(s, s))

    def gate(result, out):
        if result[0] != 0:
            return False, _exit_detail(result)
        lo, hi = json.loads((out / "tstar.json").read_text(encoding="utf-8"))["bracket"]
        return lo < t_orth < hi, f"t_orth={t_orth:.9f} bracket=({lo:.9f}, {hi:.9f})"

    return Op(f"tstar {key}", _cli_run(["tstar", str(path)]), gate, _payload_digest)


def _build_cli1d(wl: Workload, paths: dict[str, Path]) -> None:
    scenarios = wl.inputs["scenarios"]
    for path in paths.values():
        cli.parse_scenario(path)  # validates, builds grid and operator
    ops: list[Op] = []
    for key, data in scenarios.items():
        if key == wl.inputs["probe_scenario"]:
            continue
        ops.append(_eigen_op(key, paths[key], data))
        ops.append(Op(f"branch {key}", _cli_run(["branch", str(paths[key])]),
                      lambda r, out: (r[0] == 0, _exit_detail(r)), _payload_digest))
        if key.startswith("resonance_minus"):
            ops.append(_tstar_op(key, paths[key], data))

    def suite_gate(result, out):
        if result[0] != 0:
            return False, _exit_detail(result)
        rows = json.loads((out / "results.json").read_text(encoding="utf-8"))["results"]
        failed = [r["theorem_id"] for r in rows if r["status"] == "Fail"]
        return not failed, f"{len(rows)} checks, Fail rows: {failed or 'none'}"

    suite_path = str(paths[wl.inputs["suite_scenario"]])
    seed = str(wl.inputs["suite_seed"])
    for jobs in (1, 2):
        ops.append(Op(f"suite --jobs {jobs}",
                      _cli_run(["suite", suite_path, "--jobs", str(jobs), "--seed", seed]),
                      suite_gate, _payload_digest))
    probe = wl.inputs["probe_scenario"]
    ops.append(_eigen_op(probe, paths[probe], scenarios[probe], probe=True))
    wl.ops = ops


# ---------------------------------------------------------------------------

WORKLOADS = {"fold2d": _fold2d, "tstar2d": _tstar2d, "cli1d": _cli1d}


def make(name: str, seed: int, smoke: bool) -> Workload:
    """Inputs of one workload, drawn from the seed (no package calls)."""
    return WORKLOADS[name](seed, smoke)


def build(wl: Workload, workdir: Path) -> None:
    """Set-up before the first timed op: scenario files, grid, family,
    operator; fills ``wl.ops``."""
    if wl.name == "fold2d":
        _build_fold2d(wl)
    elif wl.name == "tstar2d":
        _build_tstar2d(wl)
    else:
        _build_cli1d(wl, write_scenarios(wl, workdir / "scenarios"))
