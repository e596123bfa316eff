"""Command-line frontend: scenario files, subcommands, artifact output.

Scenario files are JSON with a strict schema (unknown keys rejected,
all defaults echoed back into the run log). Subcommands:

    eigen | solve | branch | tstar | suite | diagram  <scenario> --out DIR

Exit codes: 0 success, 1 assertion failure (suite check failed),
2 schema/configuration error (also a lam outside the command's regime
and a scenario, output directory or earlier output that cannot be read
or created), 3 inadmissible discretization (CFL), 4 solver/regime/runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import branches as br
from .artifacts import (
    svg_diagram,
    write_branch,
    write_csv,
    write_grid_function,
    write_json,
    write_jsonl,
)
from .checks import default_suite, emit_traceability, run_suite
from .eigen import principal_eigen, proper_shift
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    HJBError,
)
from .grids import Grid, GridFunction
from .howard import solve_with_starts
from .operators import ControlFamily, DiscreteOperator

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_SCHEMA = 2
EXIT_ADMISSIBILITY = 3
EXIT_RUNTIME = 4

# Cap on the total node count, 65 times the finest grid of the 2D size
# ladder (127^2 = 16129 nodes)
_MAX_NODES = 2**20


@dataclass
class Scenario:
    """Validated scenario: ``data`` with all defaults materialized, and the
    grid, family, sampled h_fun and (lam, offset) that validation built."""

    data: dict
    grid: Grid
    family: ControlFamily
    h_fun: GridFunction
    lam: tuple

    @property
    def name(self) -> str:
        return self.data["name"]

    def branch_config(self) -> br.BranchConfig:
        b = self.data["branch"]
        lam, offset = self.lam
        return br.BranchConfig(
            self.family, self.grid, lam, tuple(b["t_range"]), b["n_samples"],
            h_fun=self.h_fun, lam_offset=offset,
            resonance_levels=b["resonance_levels"])


def _err(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


def _require_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    _expect(isinstance(obj, dict), path, "must be an object")
    for key in obj:
        if key not in required and key not in optional:
            raise _err(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise _err(f"{path}.{key}", "missing required key")


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with ``path`` prefixed to a
    ``ConfigurationError`` other than ``AdmissibilityError``."""
    try:
        return make(*args, **kwargs)
    except AdmissibilityError:
        raise
    except ConfigurationError as exc:
        raise _err(path, str(exc)) from exc


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise _err(path, message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value, path: str) -> float:
    """A finite real number; JSON booleans are not numbers."""
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max, path, "must be a finite number")
    return float(value)


def _reals(value, path: str, length: int | None = None) -> None:
    """A list of finite reals, with ``length`` entries when given."""
    _expect(isinstance(value, list) and length in (None, len(value)), path,
            "must be a list of numbers" if length is None else f"must be a list of length {length}")
    for i, v in enumerate(value):
        _real(v, f"{path}[{i}]")


def _validate_coeffs(c: dict, path: str, null_drift: bool) -> None:
    """diffusion: a real or a square matrix; drift: a real or a list of
    reals (or null when ``null_drift``); zeroth: a real."""
    diffusion = c.get("diffusion", 1.0)
    if isinstance(diffusion, list):
        for i, row in enumerate(diffusion):
            _reals(row, f"{path}.diffusion[{i}]", len(diffusion))
    else:
        _real(diffusion, f"{path}.diffusion")
    drift = c.get("drift")
    if isinstance(drift, list):
        _reals(drift, f"{path}.drift")
    elif drift is not None or not null_drift:
        _real(drift, f"{path}.drift")
    _real(c.get("zeroth", 0.0), f"{path}.zeroth")


_FAMILY_KEYS = {  # kind -> (required, optional) keys besides "kind" and "dim"
    "linear": ((), ("diffusion", "drift", "zeroth")),
    "fucik": (("b_plus",), ("b_minus",)),
    "pucci_plus": (("lam_ell", "Lam_ell"), ()),
    "pucci_minus": (("lam_ell", "Lam_ell"), ()),
    "finite_sup": (("controls",), ()),
}


def _family_from_dict(fd) -> ControlFamily:
    """Validate a family object, naming the JSON path of any fault, and build it."""
    _expect(isinstance(fd, dict), "family", "must be an object")
    _expect("kind" in fd, "family.kind", "missing required key")
    kind = fd["kind"]
    _expect(isinstance(kind, str) and kind in _FAMILY_KEYS, "family.kind",
            f"unknown kind {kind!r}")
    required, optional = _FAMILY_KEYS[kind]
    _require_keys(fd, "family", ("kind",) + required, optional + ("dim",))
    dim = fd.get("dim", 1)
    _expect(_is_int(dim) and dim in (1, 2), "family.dim", "must be 1 or 2")
    if kind == "linear":
        _validate_coeffs(fd, "family", null_drift=True)
        return _built("family", ControlFamily.linear, fd.get("diffusion", 1.0),
                      fd.get("drift"), fd.get("zeroth", 0.0), dim=dim)
    if kind == "fucik":
        return _built("family", ControlFamily.fucik, _real(fd["b_plus"], "family.b_plus"),
                      _real(fd.get("b_minus", 0.0), "family.b_minus"), dim=dim)
    if kind == "finite_sup":
        controls = fd["controls"]
        _expect(isinstance(controls, list) and controls, "family.controls",
                "must be a nonempty list")
        for i, c in enumerate(controls):
            _require_keys(c, f"family.controls[{i}]", ("diffusion", "drift", "zeroth"), ())
            _validate_coeffs(c, f"family.controls[{i}]", null_drift=False)
        return _built("family", ControlFamily.finite_sup,
                      [(c["diffusion"], c["drift"], c["zeroth"]) for c in controls])
    pucci = ControlFamily.pucci_plus if kind == "pucci_plus" else ControlFamily.pucci_minus
    return _built("family", pucci, _real(fd["lam_ell"], "family.lam_ell"),
                  _real(fd["Lam_ell"], "family.Lam_ell"), dim=dim)


_H_FUN_KEYS = {"zero": (), "poly": ("coeffs",), "sine": ("amplitudes",)}


def _sample_h(hd, grid: Grid) -> GridFunction:
    """Validate an h_fun object, naming the JSON path of any fault, and sample it."""
    _expect(isinstance(hd, dict) and "kind" in hd, "h_fun", "must carry a kind")
    kind = hd["kind"]
    _expect(isinstance(kind, str) and kind in _H_FUN_KEYS, "h_fun.kind",
            f"unknown kind {kind!r}")
    _require_keys(hd, "h_fun", ("kind",) + _H_FUN_KEYS[kind], ())
    if kind == "zero":
        return grid.zeros()
    key = _H_FUN_KEYS[kind][0]
    _reals(hd[key], f"h_fun.{key}")
    _expect(kind == "sine" or grid.dim == 1, "h_fun.kind", "poly forcing is 1D only")
    coords = grid.coords()
    hats = []
    for ax in range(grid.dim):
        a, b = grid.extents[ax]
        hats.append((coords[:, ax] - a) / (b - a))
    vals = np.zeros(grid.num_nodes)
    # finite coefficients can still sum past the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "poly":
            for k, c in enumerate(hd["coeffs"]):
                vals += float(c) * hats[0] ** k
        else:
            for m, a_m in enumerate(hd["amplitudes"], start=1):
                mode = np.ones(grid.num_nodes)
                for hat in hats:
                    mode = mode * np.sin(m * np.pi * hat)
                vals += float(a_m) * mode
    _expect(bool(np.isfinite(vals).all()), f"h_fun.{key}", "the sampled forcing must be finite")
    return GridFunction(grid, vals)


def validate_scenario(raw: dict) -> Scenario:
    """Validate against the schema, materialize every default and build the
    grid, family and h_fun."""
    _expect(isinstance(raw, dict), "$", "scenario must be a JSON object")
    _require_keys(raw, "$", ("grid", "family"),
                  ("name", "lam", "h_fun", "branch", "seeds", "solve_t",
                   "dump_points"))
    out: dict = {}
    out["name"] = raw.get("name", "scenario")
    _expect(isinstance(out["name"], str), "name", "must be a string")

    gd = raw["grid"]
    _require_keys(gd, "grid", ("dim", "extents", "n"), ())
    _expect(_is_int(gd["dim"]) and gd["dim"] in (1, 2), "grid.dim", "must be 1 or 2")
    _expect(isinstance(gd["extents"], list) and len(gd["extents"]) == gd["dim"],
            "grid.extents", "must list one [a, b] pair per axis")
    for i, e in enumerate(gd["extents"]):
        _reals(e, f"grid.extents[{i}]", 2)
        _expect(e[1] > e[0], f"grid.extents[{i}]", "must be increasing")
    _expect(isinstance(gd["n"], list) and len(gd["n"]) == gd["dim"], "grid.n",
            "must list one count per axis")
    for i, n in enumerate(gd["n"]):
        _expect(_is_int(n) and n >= 3, f"grid.n[{i}]",
                "needs at least 3 interior nodes")
    _expect(math.prod(gd["n"]) <= _MAX_NODES, "grid.n",
            f"must have at most {_MAX_NODES} nodes in total")
    for i, ((a, b), n) in enumerate(zip(gd["extents"], gd["n"])):
        length = float(b) - float(a)
        h2 = (length / (n + 1)) * (length / (n + 1))
        _expect(math.isfinite(length) and 0.0 < h2 < math.inf and math.isfinite(1.0 / h2),
                f"grid.extents[{i}]", "length and stencil weight 1/h^2 must be finite")
    out["grid"] = {"dim": gd["dim"],
                   "extents": [[float(a), float(b)] for a, b in gd["extents"]],
                   "n": list(gd["n"])}
    grid = Grid(gd["dim"], tuple(tuple(e) for e in out["grid"]["extents"]), tuple(gd["n"]))

    family = _family_from_dict(raw["family"])
    out["family"] = raw["family"]

    lam = raw.get("lam", 0.0)
    if isinstance(lam, dict):
        _require_keys(lam, "lam", ("mode",), ("offset",))
        _expect(lam["mode"] in (br.AT_LAM_PLUS, br.AT_LAM_MINUS), "lam.mode",
                "must be 'at_lam_plus' or 'at_lam_minus'")
        out["lam"] = {"mode": lam["mode"], "offset": _real(lam.get("offset", 0.0), "lam.offset")}
        lam_pair = (lam["mode"], out["lam"]["offset"])
    else:
        out["lam"] = _real(lam, "lam")
        lam_pair = (out["lam"], 0.0)

    out["h_fun"] = raw.get("h_fun", {"kind": "zero"})

    bd = raw.get("branch", {})
    _require_keys(bd, "branch", (), ("t_range", "n_samples", "resonance_levels"))
    t_range = bd.get("t_range", [-5.0, 5.0])
    _reals(t_range, "branch.t_range", 2)
    _expect(t_range[0] < t_range[1], "branch.t_range", "must be increasing")
    n_samples = bd.get("n_samples", 21)
    _expect(_is_int(n_samples) and n_samples >= 2, "branch.n_samples",
            "must be an integer >= 2")
    levels = bd.get("resonance_levels", 20)
    _expect(_is_int(levels) and 3 <= levels <= 40, "branch.resonance_levels",
            "must be an integer in [3, 40]")
    out["branch"] = {"t_range": [float(t_range[0]), float(t_range[1])],
                     "n_samples": n_samples, "resonance_levels": levels}

    seeds = raw.get("seeds", [0])
    _expect(isinstance(seeds, list) and seeds
            and all(_is_int(s) for s in seeds), "seeds",
            "must be a nonempty list of integers")
    out["seeds"] = seeds
    out["solve_t"] = _real(raw.get("solve_t", 0.0), "solve_t")
    dump = raw.get("dump_points", False)
    _expect(isinstance(dump, bool), "dump_points", "must be a boolean")
    out["dump_points"] = dump

    h_fun = _sample_h(out["h_fun"], grid)
    # the operators that eigen builds: CFL failure raises AdmissibilityError,
    # a coefficient that overflows the stencil a ConfigurationError
    for shift in (0.0, -proper_shift(family)):
        _built("family", DiscreteOperator, family, grid, shift)
    return Scenario(out, grid, family, h_fun, lam_pair)


def parse_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc
    return validate_scenario(raw)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eigen(sc: Scenario, out: Path) -> int:
    grid = sc.grid
    fam = sc.family
    plus = principal_eigen(fam, grid, "+")
    minus = principal_eigen(fam, grid, "-")
    write_grid_function(out / "eigen_plus.csv", plus.phi)
    write_grid_function(out / "eigen_minus.csv", minus.phi)
    # second-order Richardson extrapolation from a half-resolution grid, so
    # a reader can judge how close the discrete eigenvalue sits to its limit
    richardson = {}
    if all(n >= 7 and n % 2 == 1 for n in grid.n):
        coarse = Grid(grid.dim, grid.extents, tuple((n - 1) // 2 for n in grid.n))
        for tag, pair in (("plus", plus), ("minus", minus)):
            lam_c = principal_eigen(fam, coarse, pair.sign).lam
            richardson[tag] = (4.0 * pair.lam - lam_c) / 3.0
    write_json(out / "summary.json", {
        "grid": grid, "plus": plus.as_dict(), "minus": minus.as_dict(),
        "spectral_gap": minus.lam - plus.lam,
        "lam_richardson": richardson})
    return EXIT_OK


def _cmd_solve(sc: Scenario, out: Path) -> int:
    cfg = sc.branch_config()
    ctx = br.prepare(cfg)
    op = ctx.operator()
    t = sc.data["solve_t"]
    f = ctx.rhs(t)
    u, rep = solve_with_starts(op, f, ctx.ladder(1.0 + abs(t)))
    write_grid_function(out / "solution.csv", u)
    write_jsonl(out / "trace.jsonl", [rep])
    write_json(out / "summary.json", {
        "t": t, "lam": ctx.lam, "status": rep.status, "iters": rep.iters,
        "final_residual": rep.final_residual, "sup_norm": float(np.abs(u.values).max()),
        "min": u.min(), "max": u.max()})
    if not rep.converged:
        print(f"error: solve did not converge: final status {rep.status} after "
              f"{rep.iters} policy iterations", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _prepare(sc: Scenario) -> tuple[br.BranchConfig, br.BranchContext]:
    """The preamble of branch and tstar: refuse an inf-type family, then
    resolve the spectral data."""
    cfg = sc.branch_config()
    if not cfg.family.is_convex:
        raise _err("family.kind", "branch and tstar need a sup-type (convex) family, "
                   f"got the inf-type {cfg.family.kind!r}")
    return cfg, br.prepare(cfg)


def _cmd_branch(sc: Scenario, out: Path) -> int:
    cfg, ctx = _prepare(sc)
    summary: dict = {"regime": ctx.regime, "lam": ctx.lam,
                     "grid": cfg.grid,
                     "lam_plus": ctx.eig_plus.lam, "lam_minus": ctx.eig_minus.lam}
    phi = ctx.eig_plus.phi
    crit = None
    if ctx.regime == "fold":
        branch, second, crit = br.trace_fold(cfg, ctx)
        write_branch(out / "branch_minimal.csv", branch, phi)
        write_branch(out / "branch_second.csv", second, phi)
        diagnostics = {"minimal": branch.diagnostics, "fold": crit.diagnostics}
    else:
        if ctx.regime == "subcritical":
            branch = br.sweep_subcritical(cfg, ctx)
        elif ctx.regime == "negative":
            branch = br.sweep_negative_regime(cfg, ctx)
        else:
            crit = br.locate_tstar_resonance(cfg, ctx.resonance_sign, ctx)
            branch = br.trace_resonant_branch(cfg, crit, ctx)
        write_branch(out / "branch.csv", branch, phi)
        diagnostics = branch.diagnostics
    if crit is not None:
        summary["t_star"] = crit.t_star
        summary["bracket"] = list(crit.bracket)
        write_json(out / "tstar.json", crit)
    summary["diagnostics"] = diagnostics
    if sc.data["dump_points"]:
        for i, p in enumerate(branch.points):
            write_grid_function(out / f"point_{i:04d}.csv", p.u)
    write_jsonl(out / "trace.jsonl", [p.solve for p in branch.points])
    write_json(out / "summary.json", summary)
    return EXIT_OK


def _cmd_tstar(sc: Scenario, out: Path) -> int:
    cfg, ctx = _prepare(sc)
    ctx.require("resonance_plus", "resonance_minus")
    crit = br.locate_tstar_resonance(cfg, ctx.resonance_sign, ctx)
    write_json(out / "tstar.json", crit)
    write_csv(out / "evidence.csv", ["eps", "t", "sup_norm", "eigdir_cosine"],
              crit.blowup_evidence)
    return EXIT_OK


def _cmd_suite(sc: Scenario, out: Path) -> int:
    specs = default_suite(sc.grid, seed=sc.data["seeds"][0])
    results = run_suite(specs)
    write_json(out / "results.json", {"results": results})
    (out / "report.md").write_text(emit_traceability(results), encoding="utf-8")
    if any(r.status == "Fail" for r in results):
        return EXIT_ASSERT
    return EXIT_OK


def _read_branch_csv(path: Path) -> list[tuple[float, float]]:
    rows = path.read_text(encoding="utf-8").strip().split("\n")
    header = rows[0].split(",")
    it, id_ = header.index("t"), header.index("d")
    return [(float(r.split(",")[it]), float(r.split(",")[id_])) for r in rows[1:]]


def _cmd_diagram(sc: Scenario, out: Path) -> int:
    curves, markers = [], []
    try:
        for name, label in (("branch.csv", "branch"),
                            ("branch_minimal.csv", "minimal"),
                            ("branch_second.csv", "second")):
            p = out / name
            if p.exists():
                curves.append((label, _read_branch_csv(p)))
        p = out / "tstar.json"
        if p.exists():
            crit = json.loads(p.read_text(encoding="utf-8"))
            markers.append((f"t* ({crit['kind']})", float(crit["t_star"])))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ConfigurationError(f"cannot read {p}: {exc!r}") from exc
    if not curves:
        raise ConfigurationError(
            f"no branch CSV found in {out}; run the branch command first")
    svg_diagram(out / "bifurcation.svg", curves, markers,
                title=f"solution set: {sc.name}")
    return EXIT_OK


_COMMANDS = {
    "eigen": _cmd_eigen,
    "solve": _cmd_solve,
    "branch": _cmd_branch,
    "tstar": _cmd_tstar,
    "suite": _cmd_suite,
    "diagram": _cmd_diagram,
}


def run_command(cmd: str, scenario: Scenario, out_dir, seed: int | None = None) -> int:
    """Dispatch a subcommand and write run.json; returns the exit code."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out: {exc}") from exc
    if seed is not None:
        scenario.data["seeds"] = [seed] + scenario.data["seeds"][1:]
    started = time.time()
    code = _COMMANDS[cmd](scenario, out)
    write_json(out / "run.json", {
        "command": cmd,
        "scenario": scenario.data,
        "seeds": scenario.data["seeds"],
        "versions": {"hjbranch": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": time.time() - started,
        "exit_code": code,
    })
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjbranch",
        description="Eigenvalues and solution branches of sup-type elliptic "
                    "Dirichlet problems on uniform grids.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; the checks run sequentially")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's first seed")
    args = parser.parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
        return run_command(args.command, scenario, args.out, args.seed)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ADMISSIBILITY
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except HJBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
