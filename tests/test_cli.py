import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjbranch.cli as cli

SCENARIOS = Path(cli.__file__).parent / "scenarios"


def minimal_scenario() -> dict:
    return {
        "grid": {"dim": 1, "extents": [[0.0, 1.0]], "n": [49]},
        "family": {"kind": "linear", "diffusion": 1.0},
    }


def write_scenario(tmp_path, data, name="sc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_minimal_scenario_gets_defaults(tmp_path):
    sc = cli.parse_scenario(write_scenario(tmp_path, minimal_scenario()))
    assert sc.data["name"] == "scenario"
    assert sc.data["lam"] == 0.0
    assert sc.data["h_fun"] == {"kind": "zero"}
    assert sc.data["branch"]["n_samples"] == 21
    assert sc.data["seeds"] == [0]


def test_unknown_key_names_path(tmp_path):
    data = minimal_scenario()
    data["gamma_typo"] = 1.0
    path = write_scenario(tmp_path, data)
    code = cli.main(["eigen", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SCHEMA
    with pytest.raises(cli.ConfigurationError, match="gamma_typo"):
        cli.parse_scenario(path)


def test_small_grid_rejected(tmp_path):
    data = minimal_scenario()
    data["grid"]["n"] = [2]
    code = cli.main(["eigen", write_scenario(tmp_path, data),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SCHEMA


def test_cfl_failure_exit_code(tmp_path):
    data = minimal_scenario()
    data["family"] = {"kind": "finite_sup", "controls": [
        {"diffusion": [[1.0]], "drift": [5000.0], "zeroth": 0.0}]}
    code = cli.main(["eigen", write_scenario(tmp_path, data),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_ADMISSIBILITY


def test_missing_file_exit_code(tmp_path):
    code = cli.main(["eigen", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SCHEMA


def test_round_trip_shipped_scenarios(tmp_path):
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = cli.parse_scenario(path)
        emitted = tmp_path / path.name
        emitted.write_text(json.dumps(sc.data))
        again = cli.parse_scenario(emitted)
        assert again.data == sc.data


def test_eigen_command_manifest(tmp_path):
    out = tmp_path / "eig"
    code = cli.main(["eigen", str(SCENARIOS / "laplacian_eigen.json"),
                     "--out", str(out)])
    assert code == 0
    for name in ("eigen_plus.csv", "eigen_minus.csv", "summary.json", "run.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["plus"]["lam"] - 9.869401467152983) <= 1e-9


def test_solve_command(tmp_path):
    data = minimal_scenario()
    data["solve_t"] = 1.0
    out = tmp_path / "sol"
    code = cli.main(["solve", write_scenario(tmp_path, data), "--out", str(out)])
    assert code == 0
    assert (out / "solution.csv").exists()
    assert (out / "trace.jsonl").exists()
    trace = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
    assert trace["status"] == "Converged"


def test_solve_tries_the_zero_start_once(tmp_path, monkeypatch):
    """The ladder of ``solve`` begins with the zero start, so a zero start
    that fails is not solved again before the rest of the ladder."""
    import hjbranch.howard as howard

    zero_starts = []
    real = howard.solve

    def counting(op, f, u0=None, **kwargs):
        if u0 is None or not u0.values.any():
            zero_starts.append(u0)
        return real(op, f, u0, **kwargs)

    monkeypatch.setattr(howard, "solve", counting)
    monkeypatch.setattr(cli, "solve", counting, raising=False)  # a direct call counts too
    data = json.loads((SCENARIOS / "resonance_minus.json").read_text())
    data["solve_t"] = -0.5
    code = cli.main(["solve", write_scenario(tmp_path, data), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME
    assert len(zero_starts) == 1


def overflowing_solve_scenario(dim):
    return {"grid": {"dim": dim, "extents": [[0.0, 1.0]] * dim, "n": [49] if dim == 1 else [9, 9]},
            "family": {"kind": "fucik", "b_plus": 5.0, "b_minus": 0.0, "dim": dim},
            "solve_t": 1e306}


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_with_overflowing_rhs_exits_runtime(tmp_path, dim):
    """At solve_t 1e306 the scaled ladder starts overflow F_h to inf; the
    linear solve fails as a singular linearization in 1D as in 2D, so the
    command exits 4 instead of raising from the banded solver's input check."""
    data = overflowing_solve_scenario(dim)
    code = cli.main(["solve", write_scenario(tmp_path, data), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME


@pytest.mark.parametrize("dim", [1, 2])
def test_overflowing_solve_names_its_status_without_warnings(tmp_path, capsys, dim):
    """The overflow is an outcome of the solve: no NumPy warning, and one
    error line naming the final status."""
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["solve", write_scenario(tmp_path, overflowing_solve_scenario(dim)),
                         "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert [str(w.message) for w in caught] == []
    status = json.loads((out / "summary.json").read_text())["status"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"status {status} " in err[0]


def test_branch_and_diagram(tmp_path):
    out = tmp_path / "br"
    code = cli.main(["branch", str(SCENARIOS / "fucik_subcritical.json"),
                     "--out", str(out)])
    assert code == 0
    assert (out / "branch.csv").exists()
    code = cli.main(["diagram", str(SCENARIOS / "fucik_subcritical.json"),
                     "--out", str(out)])
    assert code == 0
    assert (out / "bifurcation.svg").read_text().startswith("<svg")


def test_diagram_without_branch_fails(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    code = cli.main(["diagram", str(SCENARIOS / "laplacian_eigen.json"),
                     "--out", str(out)])
    assert code == cli.EXIT_SCHEMA


def test_reproducible_branch_csv(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli.main(["branch", str(SCENARIOS / "fucik_subcritical.json"),
                         "--out", str(out)]) == 0
    assert (out1 / "branch.csv").read_bytes() == (out2 / "branch.csv").read_bytes()


def test_suite_exit_code_on_fail(tmp_path, monkeypatch):
    from hjbranch.checks import CheckResult

    def fake_run_suite(specs):
        return [CheckResult("T1.1", "Fail", "inv", {}, [], "boom")]

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    out = tmp_path / "suite"
    code = cli.main(["suite", str(SCENARIOS / "laplacian_eigen.json"),
                     "--out", str(out)])
    assert code == cli.EXIT_ASSERT
    assert (out / "report.md").exists()


def test_suite_jobs_flag_leaves_payloads_unchanged(tmp_path):
    outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert cli.main(["suite", str(SCENARIOS / "laplacian_eigen.json"), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
    for name in ("results.json", "report.md"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_suite_needs_six_nodes_on_first_axis(tmp_path, capsys):
    """The half-domain grid of P6.1 and T1.6 needs 3 nodes, so n >= 6."""
    data = minimal_scenario()
    data["grid"]["n"] = [5]
    code = cli.main(["suite", write_scenario(tmp_path, data), "--out", str(tmp_path / "n5")])
    assert code == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: grid.n: ") and "at least 6 nodes" in err
    data["grid"]["n"] = [6]
    out = tmp_path / "n6"
    cli.main(["suite", write_scenario(tmp_path, data), "--out", str(out)])
    results = json.loads((out / "results.json").read_text())["results"]
    status = {r["theorem_id"]: r["status"] for r in results}
    assert status["P6.1"] == status["T1.6"] == "Pass"


@pytest.mark.parametrize("b", [2.0, 3.0])
def test_suite_outside_the_regimes_of_its_checks_exits_2(tmp_path, capsys, b):
    data = minimal_scenario()
    data["grid"]["extents"] = [[0.0, b]]
    code = cli.main(["suite", write_scenario(tmp_path, data), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA
    assert "spec/regime mismatch" in capsys.readouterr().err


def test_inf_type_family_refused_by_branch_and_tstar(tmp_path, capsys):
    """branch and tstar need a sup-type family; eigen and solve accept
    pucci_minus."""
    data = resonance_scenario()
    data["family"] = {"kind": "pucci_minus", "lam_ell": 1.0, "Lam_ell": 2.0}
    for cmd, lam in (("branch", 0.0), ("tstar", {"mode": "at_lam_plus", "offset": 0.0}),
                     ("eigen", 0.0), ("solve", 0.0)):
        data["lam"] = lam
        code = cli.main([cmd, write_scenario(tmp_path, data), "--out", str(tmp_path / cmd)])
        err = capsys.readouterr().err
        if cmd in ("branch", "tstar"):
            assert code == cli.EXIT_SCHEMA
            assert err.startswith("error: family.kind: ")
            assert not (tmp_path / cmd / "summary.json").exists()
        else:
            assert code == cli.EXIT_OK


@pytest.mark.parametrize("name, lam", [
    ("fucik_subcritical", 0.0),
    ("resonance_minus", {"mode": "at_lam_minus", "offset": 0.5}),
])
def test_tstar_needs_lam_at_an_eigenvalue(tmp_path, capsys, name, lam):
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    data["lam"] = lam
    out = tmp_path / "ts"
    code = cli.main(["tstar", write_scenario(tmp_path, data), "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: lam: ")
    assert not (out / "tstar.json").exists()


@pytest.mark.parametrize("command", ["branch", "tstar", "solve"])
def test_h_fun_along_the_positive_eigenfunction_exits_2_with_its_path(tmp_path, capsys,
                                                                       command):
    """sin(pi x) is the positive eigenfunction of a Fucik family in 1D."""
    data = {**minimal_scenario(), "family": {"kind": "fucik", "b_plus": 5.0, "b_minus": 0.0},
            "lam": 0.0, "h_fun": {"kind": "sine", "amplitudes": [2.0]}}
    code = cli.main([command, write_scenario(tmp_path, data), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: h_fun: ")


def test_resonant_branch_below_t_star_plus_one_exits_2_with_its_path(tmp_path, capsys):
    data = json.loads((SCENARIOS / "resonance_minus.json").read_text())
    data["grid"]["n"] = [99]
    data["branch"]["t_range"] = [-3.0, 0.5]  # t* ~ -0.26
    out = tmp_path / "br"
    code = cli.main(["branch", write_scenario(tmp_path, data), "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: branch.t_range: ")
    assert not (out / "summary.json").exists()


def test_branch_above_negative_window_exits_2_before_any_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("hjbranch.branches._sweep", no_sweep)
    data = json.loads((SCENARIOS / "fucik_subcritical.json").read_text())
    data["lam"] = 20.0  # lam_1^- = 9.87, window (9.87, 10.36]
    out = tmp_path / "br"
    code = cli.main(["branch", write_scenario(tmp_path, data), "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: lam: ")
    assert not (out / "summary.json").exists()


def test_branch_inside_negative_window_sweeps(tmp_path):
    data = json.loads((SCENARIOS / "fucik_subcritical.json").read_text())
    data["grid"]["n"] = [49]
    data["lam"] = {"mode": "at_lam_minus", "offset": 0.3}
    out = tmp_path / "br"
    assert cli.main(["branch", write_scenario(tmp_path, data), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["regime"] == "negative"


def test_tstar_on_shipped_resonance_scenario(tmp_path):
    out = tmp_path / "ts"
    assert cli.main(["tstar", str(SCENARIOS / "resonance_minus.json"), "--out", str(out)]) == 0
    assert json.loads((out / "tstar.json").read_text())["kind"] == "ResonanceMinus"


def _directory(tmp_path):
    return ["eigen", str(tmp_path), "--out", str(tmp_path / "o")]


def _scenario_bytes(raw):
    def argv(tmp_path):
        path = tmp_path / "sc.json"
        path.write_bytes(raw)
        return ["eigen", str(path), "--out", str(tmp_path / "o")]
    return argv


def _out_is_a_file(tmp_path):
    (tmp_path / "o").write_text("")
    return ["eigen", write_scenario(tmp_path, minimal_scenario()), "--out", str(tmp_path / "o")]


def _diagram_over(tmp_path, files):
    out = tmp_path / "o"
    out.mkdir()
    for name, text in files.items():
        (out / name).write_text(text)
    return ["diagram", str(SCENARIOS / "laplacian_eigen.json"), "--out", str(out)]


UNREADABLE = {
    "scenario is a directory": (_directory, "cannot read scenario file"),
    "scenario not UTF-8": (_scenario_bytes(b"\xff" + json.dumps(minimal_scenario()).encode()),
                           "cannot read scenario file"),
    "JSON nested too deep": (_scenario_bytes(b"[" * 100000), "invalid JSON"),
    "JSON integer too long": (_scenario_bytes(b"1" * 5000), "invalid JSON"),
    "--out is a file": (_out_is_a_file, "--out: "),
    "branch.csv d not a number": (
        lambda tmp: _diagram_over(tmp, {"branch.csv": "t,d\n0.0,x\n"}), "branch.csv"),
    "tstar.json without kind": (
        lambda tmp: _diagram_over(tmp, {"branch.csv": "t,d\n0.0,1.0\n",
                                        "tstar.json": '{"t_star": 0.0}'}), "tstar.json"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, capsys, case):
    argv, names = UNREADABLE[case]
    assert cli.main(argv(tmp_path)) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and names in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.builds(lambda prefix, v: prefix + json.dumps({**minimal_scenario(), "lam": v}).encode(),
              st.sampled_from([b"", b"\xff", b"\xc3"]), JSON_VALUES)))
def test_scenario_file_fuzz_exits_with_a_code(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sc.json"
        path.write_bytes(raw)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["eigen", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3, 4)


def test_nested_unknown_key_path(tmp_path):
    data = minimal_scenario()
    data["branch"] = {"t_range": [-1.0, 1.0], "step_typo": 5}
    with pytest.raises(cli.ConfigurationError, match=r"branch\.step_typo"):
        cli.parse_scenario(write_scenario(tmp_path, data))


def test_dump_points_writes_fields(tmp_path):
    data = minimal_scenario()
    data["branch"] = {"t_range": [-1.0, 1.0], "n_samples": 4}
    data["dump_points"] = True
    out = tmp_path / "dp"
    code = cli.main(["branch", write_scenario(tmp_path, data), "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.glob("point_*.csv")) == \
        [f"point_{i:04d}.csv" for i in range(4)]


def test_run_json_contents(tmp_path):
    out = tmp_path / "eig"
    cli.main(["eigen", str(SCENARIOS / "laplacian_eigen.json"), "--out", str(out),
              "--seed", "3"])
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "eigen"
    assert run["seeds"][0] == 3
    assert "hjbranch" in run["versions"]
    assert run["exit_code"] == 0


def resonance_scenario() -> dict:
    return {
        "grid": {"dim": 1, "extents": [[0.0, 1.0]], "n": [49]},
        "family": {"kind": "fucik", "b_plus": 13.9, "b_minus": 0.0},
        "lam": {"mode": "at_lam_minus", "offset": 0.0},
        "h_fun": {"kind": "poly", "coeffs": [0.0, 1.0, -1.0]},
        "branch": {"t_range": [-3.0, 3.0], "n_samples": 5, "resonance_levels": 3},
        "solve_t": 0.0,
    }


def _replace(data: dict, keys: tuple, value) -> dict:
    node = data
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return data


NAN, INF = float("nan"), float("inf")
MALFORMED = [
    ("family.b_plus", ("family", "b_plus"), INF),
    ("family.b_plus", ("family", "b_plus"), NAN),
    ("family.b_plus", ("family", "b_plus"), "5"),
    ("h_fun.coeffs[0]", ("h_fun", "coeffs"), ["a"]),
    ("solve_t", ("solve_t",), "a"),
    ("grid", ("grid",), "x"),
    ("grid.extents[0][1]", ("grid", "extents"), [[0, INF]]),
    ("lam", ("lam",), NAN),
    ("lam.offset", ("lam", "offset"), NAN),
    ("grid.n", ("grid", "n"), [2**70]),
    ("grid.n", ("grid", "n"), [2**20 + 1]),
    ("grid.extents[0]", ("grid", "extents"), [[-1e308, 1.0]]),
    ("grid.extents[0]", ("grid", "extents"), [[-1e308, 1e308]]),
    ("grid.extents[0]", ("grid", "extents"), [[0.0, 1e-160]]),
    # finite coefficients whose stencil weight (1e306/h^2) or proper-shifted
    # matrix scale (b_plus + shift) overflows
    ("family", ("family",), {"kind": "linear", "diffusion": 1e306}),
    ("family", ("family", "b_plus"), 1e308),
]


@pytest.mark.parametrize("path, keys, value", MALFORMED,
                         ids=[f"{c[0]}={c[2]!r}" for c in MALFORMED])
def test_malformed_number_exits_2_with_path(tmp_path, capsys, path, keys, value):
    data = _replace(resonance_scenario(), keys, value)
    code = cli.main(["eigen", write_scenario(tmp_path, data), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def _leaves(node, keys=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield keys
        return
    for k, v in items:
        yield from _leaves(v, keys + (k,))


FUZZ_BASES = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))] + [
    resonance_scenario(),
    {**minimal_scenario(),
     "family": {"kind": "linear", "diffusion": [[1.0]], "drift": [0.5], "zeroth": -1.0,
                "dim": 1},
     "h_fun": {"kind": "sine", "amplitudes": [1.0, 0.5]}, "seeds": [1, 2],
     "dump_points": False, "name": "fuzz"},
    {**minimal_scenario(),
     "family": {"kind": "finite_sup", "controls": [
         {"diffusion": [[1.0]], "drift": [1.0], "zeroth": 0.0},
         {"diffusion": 2.0, "drift": -1.0, "zeroth": 1.0}]}},
    {"grid": {"dim": 2, "extents": [[0.0, 1.0], [0.0, 2.0]], "n": [7, 9]},
     "family": {"kind": "pucci_minus", "lam_ell": 1.0, "Lam_ell": 2.0, "dim": 2}},
]
FUZZ_VALUES = [NAN, INF, -INF, "a", True, False, None, [], [1.0, 2.0],
               -2, -1, 0, 1, 2, 3, -0.5, 0.5, 1.5]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_scenario_fuzz_raises_only_schema_errors(data):
    base = data.draw(st.sampled_from(FUZZ_BASES))
    keys = data.draw(st.sampled_from(list(_leaves(base))))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    scenario = _replace(json.loads(json.dumps(base)), keys, value)
    try:
        cli.validate_scenario(scenario)
    except (cli.ConfigurationError, cli.AdmissibilityError):
        pass


@pytest.mark.parametrize("command, h_fun, path", [
    ("eigen", {"kind": "poly", "coeffs": [1e308, 1e308]}, "h_fun.coeffs"),
    ("solve", {"kind": "sine", "amplitudes": [1e308, 1e308, 1e308]}, "h_fun.amplitudes"),
])
def test_overflowing_h_fun_exits_2_with_its_path(tmp_path, capsys, command, h_fun, path):
    """Each coefficient is finite, but the sampled sum overflows: a schema
    error naming the coefficient list, without a NumPy warning."""
    data = {**minimal_scenario(), "h_fun": h_fun}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, write_scenario(tmp_path, data), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SCHEMA
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
