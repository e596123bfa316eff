"""The CLI's exit-code contract under seeded random scenarios: every ``eigen``,
``solve``, ``branch`` and ``tstar`` run exits 0-4, a non-zero exit prints ``error:``
(an exit 2 with the JSON path at fault), and no exception or warning escapes ``main``.
Coefficients stress rounding, overflow and underflow; small grids bound the run time."""

import contextlib
import io
import json
import re

import numpy as np
import pytest

import hjbranch.cli as cli

KINDS = ("linear", "fucik", "pucci_plus", "pucci_minus", "finite_sup")
COEFFS = (0.0, 1.0, -1.0, 15.0, 1e6, -1e6, 1e17, 1e300, -1e300, 1e-300)
SCENARIO_PATH = re.compile(r"error: (grid|family|lam|h_fun|branch|solve_t)\b")


def random_scenario(rng: np.random.Generator, kind: str) -> dict:
    def c() -> float:
        return float(rng.choice(COEFFS))

    dim = int(rng.integers(1, 3))
    n = [int(rng.integers(3, 25))] if dim == 1 else rng.integers(3, 8, 2).tolist()
    extents = [[a, a + float(rng.choice((0.5, 1.0, 2.0, 3.0)))]
               for a in rng.choice((0.0, -1.0), dim).tolist()]
    if kind == "linear":
        family = {"diffusion": c(), "drift": [c()] * dim, "zeroth": c(), "dim": dim}
    elif kind == "fucik":
        family = {"b_plus": c(), "b_minus": c(), "dim": dim}
    elif kind == "finite_sup":
        family = {"controls": [{"diffusion": (np.eye(dim) * c()).tolist(), "zeroth": c(),
                                "drift": [c() for _ in range(dim)]}
                               for _ in range(int(rng.integers(1, 3)))]}
    else:
        family = {"lam_ell": c(), "Lam_ell": c(), "dim": dim}
    lam = c() if rng.random() < 0.5 else {
        "mode": str(rng.choice(("at_lam_plus", "at_lam_minus"))), "offset": 0.0}
    h_fun = {"kind": "zero"} if rng.random() < 0.5 else {"kind": "sine", "amplitudes": [c(), c()]}
    return {"grid": {"dim": dim, "extents": extents, "n": n}, "family": {"kind": kind, **family},
            "lam": lam, "h_fun": h_fun, "solve_t": c(),
            "branch": {"t_range": [-1.0, 1.0], "n_samples": int(rng.integers(2, 6)),
                       "resonance_levels": int(rng.integers(3, 6))}}


@pytest.mark.filterwarnings("error")
def test_random_scenarios_keep_the_exit_code_contract(tmp_path):
    rng = np.random.default_rng(20261020)
    codes = set()
    for i in range(60):
        data = random_scenario(rng, KINDS[i % len(KINDS)])
        path = tmp_path / f"{i:02d}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for command in ("eigen", "solve", "branch", "tstar"):
            err, case = io.StringIO(), f"case {i}: {command} {json.dumps(data)}"
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main([command, str(path), "--out", str(tmp_path / f"{i:02d}")])
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__} escaped main on {case}: {exc}")
            assert code in (0, 1, 2, 3, 4), case
            assert code == 0 or "error:" in err.getvalue(), case
            assert code != 2 or SCENARIO_PATH.match(err.getvalue()), (case, err.getvalue())
            codes.add(code)
    assert {0, 2, 3, 4} <= codes  # success and each refusal class are reached
