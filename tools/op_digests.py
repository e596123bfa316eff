"""Print the numeric-payload digest of every benchmark op, one line per op:

    workload index label ok digest

    python3 tools/op_digests.py [--checkout DIR] --seed N [--smoke]

``hjbranch`` is imported from ``DIR/src`` (default: the checkout holding this
script); the workloads, their gates and digests come from the ``perfbench``
next to this script, so one workload definition hashes both sides of a
comparison. Two checkouts give byte-identical payloads when the outputs of
``--checkout A`` and ``--checkout B`` are identical (``diff``). ``ok`` is
``ok`` or ``FAIL`` from the op's gate (the recorded fine-grid probe of
``cli1d`` reads ``ok``), or ``raised`` with the digest of the exception.

A last group, ``cli``, runs the CLI cases no benchmark op covers: ``solve``
on every shipped scenario at ``solve_t`` -0.5 and 1.0 (two of them lie below
t*, where no solution exists), ``eigen`` on 2D copies of ``fucik_fold`` and
``pucci_eigen`` (31^2, 15^2 under ``--smoke``), ``eigen`` on 1D copies of
``laplacian_eigen`` and ``pucci_eigen`` at n=1599, a grid whose rounding floor
lies above the eigen residual target's 1e-9, and ``branch`` then ``diagram``
in one output directory on the shipped ``fucik_fold`` and ``resonance_minus``
(the diagram reads back the branch CSVs and ``tstar.json``), and ``suite`` at
seed 7 on a 2D copy of ``laplacian_eigen`` on [0, 1.5]^2 at 11^2, the one run
of the check battery on a 2D grid. Five refusals follow: ``branch`` on
``fucik_subcritical`` at lam 20 (above the negative-regime window), ``tstar``
on ``fucik_subcritical`` at lam 0 (at neither eigenvalue), ``suite`` on a 1D
[0, 2] copy of ``laplacian_eigen`` at n=49 (T1.1 outside its regime),
``branch`` on a 1D Fucik family at n=49 whose ``h_fun`` is the positive
eigenfunction (path ``h_fun``) and ``branch`` on ``resonance_minus`` at n=99
with ``t_range`` [-3, 0.5], which ends less than 1 above t* ~ -0.26 (path
``branch.t_range``). Two ``branch`` runs on the shipped ``fucik_subcritical``
close it, the only ones through the regime at lam_1^+ (lam offset 0; t* = 0,
as h = 0) and the negative regime (lam_1^- + 0.1). Its ``ok`` means the
expected exit code: 2 for the refusals, 4 for ``solve`` at -0.5 on
``fucik_fold`` (t* = 0) and ``resonance_minus`` (t* ~ -0.26), and 0 for the
rest; the digest covers the exit code, standard error and every output file
except ``run.json`` (after ``diagram``, the branch files too). It does not
depend on ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("fold2d", "tstar2d", "cli1d")


def op_lines(workload: str, seed: int, smoke: bool, workdir: Path) -> list[str]:
    import workloads

    wl = workloads.make(workload, seed, smoke)
    workloads.build(wl, workdir / "build")
    lines = []
    for i, op in enumerate(wl.ops):
        out = workdir / f"{i:02d}"
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = op.run(out)
            ok, _ = op.gate(result, out)
            status, digest = "ok" if ok else "FAIL", op.digest(result, out)
        except Exception as exc:  # a raising op is one line, not the end of the run
            status = "raised"
            digest = hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()
        lines.append(f"{workload} {i} {op.label} {status} {digest}")
    return lines


def cli_lines(smoke: bool, workdir: Path) -> list[str]:
    from hjbranch import cli

    shipped = Path(cli.__file__).parent / "scenarios"
    cases = []
    for path in sorted(shipped.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for t in (-0.5, 1.0):
            below_tstar = t == -0.5 and path.stem in ("fucik_fold", "resonance_minus")
            cases.append((f"solve {path.stem} t={t}", "solve", {**data, "solve_t": t}, None,
                          4 if below_tstar else 0))
    n = 15 if smoke else 31
    for name in ("fucik_fold", "pucci_eigen"):
        data = json.loads((shipped / f"{name}.json").read_text(encoding="utf-8"))
        data["grid"] = {"dim": 2, "extents": [[0.0, 1.0], [0.0, 1.0]], "n": [n, n]}
        data["family"]["dim"] = 2
        cases.append((f"eigen {name} {n}x{n}", "eigen", data, None, 0))
    for name in ("laplacian_eigen", "pucci_eigen"):
        data = json.loads((shipped / f"{name}.json").read_text(encoding="utf-8"))
        data["grid"]["n"] = [1599]
        cases.append((f"eigen {name} 1599", "eigen", data, None, 0))
    for name in ("fucik_fold", "resonance_minus"):
        data = json.loads((shipped / f"{name}.json").read_text(encoding="utf-8"))
        for command in ("branch", "diagram"):
            cases.append((f"{command} {name}", command, data, f"{name}-branch", 0))
    data = json.loads((shipped / "laplacian_eigen.json").read_text(encoding="utf-8"))
    data["grid"] = {"dim": 2, "extents": [[0.0, 1.5], [0.0, 1.5]], "n": [11, 11]}
    data["family"]["dim"] = 2
    data["seeds"] = [7]
    cases.append(("suite laplacian_eigen 1.5^2 11x11 seed=7", "suite", data, None, 0))
    data = json.loads((shipped / "fucik_subcritical.json").read_text(encoding="utf-8"))
    for command, lam in (("branch", 20.0), ("tstar", 0.0)):
        cases.append((f"{command} fucik_subcritical lam={lam}", command, {**data, "lam": lam},
                      None, 2))
    data = json.loads((shipped / "laplacian_eigen.json").read_text(encoding="utf-8"))
    data["grid"] = {"dim": 1, "extents": [[0.0, 2.0]], "n": [49]}
    cases.append(("suite laplacian_eigen [0, 2] n=49", "suite", data, None, 2))
    data = {"grid": {"dim": 1, "extents": [[0.0, 1.0]], "n": [49]},
            "family": {"kind": "fucik", "b_plus": 5.0, "b_minus": 0.0}, "lam": 0.0,
            "h_fun": {"kind": "sine", "amplitudes": [2.0]}}
    cases.append(("branch fucik n=49 h_fun=phi_1^+", "branch", data, None, 2))
    data = json.loads((shipped / "resonance_minus.json").read_text(encoding="utf-8"))
    data["grid"]["n"] = [99]
    data["branch"]["t_range"] = [-3.0, 0.5]
    cases.append(("branch resonance_minus n=99 t_range=[-3, 0.5]", "branch", data, None, 2))
    data = json.loads((shipped / "fucik_subcritical.json").read_text(encoding="utf-8"))
    for mode, offset in (("at_lam_plus", 0.0), ("at_lam_minus", 0.1)):
        cases.append((f"branch fucik_subcritical lam={mode}{offset:+}", "branch",
                      {**data, "lam": {"mode": mode, "offset": offset}}, None, 0))
    workdir.mkdir(parents=True)
    lines = []
    for i, (label, command, data, shared_out, expected) in enumerate(cases):
        path, out = workdir / f"{i:02d}.json", workdir / (shared_out or f"{i:02d}")
        path.write_text(json.dumps(data), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), "--out", str(out)])
        h = hashlib.sha256(f"{code}\0{err.getvalue()}\0".encode())
        for f in sorted(out.rglob("*")):
            if f.is_file() and f.name != "run.json":
                h.update(f.relative_to(out).as_posix().encode() + b"\0" + f.read_bytes())
        lines.append(f"cli {i} {label} {'ok' if code == expected else 'FAIL'} {h.hexdigest()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=HERE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    src = args.checkout.resolve() / "src"
    if not (src / "hjbranch" / "__init__.py").is_file():
        parser.error(f"no package source at {src}/hjbranch")
    sys.path[:0] = [str(src), str(HERE / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for line in op_lines(name, args.seed, args.smoke, Path(tmp) / name):
                print(line, flush=True)
        for line in cli_lines(args.smoke, Path(tmp) / "cli"):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
