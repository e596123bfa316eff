import json
from dataclasses import dataclass

import numpy as np
import pytest

from hjbranch.artifacts import (
    fmt,
    svg_diagram,
    write_csv,
    write_grid_function,
    write_json,
    write_jsonl,
)
from hjbranch.branches import CriticalReport
from hjbranch.checks import CheckResult
from hjbranch.grids import GridFunction, build_grid
from hjbranch.howard import SolveReport


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(fmt(x)) == x
    assert fmt(1) == "1"
    assert fmt(float("nan")) == "nan"
    assert fmt(True) == "true"


def test_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [(1.0, 0.1), (2.0, 0.25)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "a,b"
    assert raw.decode().splitlines()[1] == "1,0.10000000000000001"


def test_grid_function_csv(tmp_path):
    g = build_grid(1, (0.0, 1.0), 3)
    u = GridFunction(g, [1.0, 2.0, 3.0])
    path = tmp_path / "u.csv"
    write_grid_function(path, u)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert lines[1] == "0.25,1"
    assert len(lines) == 4


def test_json_sorted_keys(tmp_path):
    path = tmp_path / "s.json"
    write_json(path, {"b": 1.5, "a": {"z": 2, "y": [1, 2]}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text)["a"]["y"] == [1, 2]


def test_svg_diagram(tmp_path):
    path = tmp_path / "d.svg"
    svg_diagram(path, [("branch", [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])],
                markers=[("t*", 1.0)])
    text = path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text and "t*" in text
    assert "</svg>" in text


def test_write_deterministic(tmp_path):
    g = build_grid(1, (0.0, 1.0), 5)
    u = GridFunction(g, np.linspace(-1, 1, 5))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_grid_function(a, u)
    write_grid_function(b, u)
    assert a.read_bytes() == b.read_bytes()


@dataclass
class _Inner:
    level: int = 3


@dataclass
class _Record:
    name: str
    pair: tuple
    scale: np.float64
    inner: _Inner


def test_json_writers_write_dataclass_fields(tmp_path):
    record = _Record("r", (1, 2.5), np.float64(0.1), _Inner())
    expected = {"name": "r", "pair": [1, 2.5], "scale": 0.1, "inner": {"level": 3}}
    write_json(tmp_path / "r.json", record)
    write_jsonl(tmp_path / "r.jsonl", [record, record])
    assert json.loads((tmp_path / "r.json").read_text()) == expected
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [expected, expected]


def test_dataclass_class_object_is_not_expanded(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(tmp_path / "c.json", {"cls": _Inner})


def _dumped(tmp_path, payload) -> bytes:
    write_json(tmp_path / "p.json", payload)
    return (tmp_path / "p.json").read_bytes()


@pytest.mark.parametrize("grid", [build_grid(1, (0.0, 1.0), 49),
                                  build_grid(2, ((0.0, 2.0), (-1.0, 0.5)), (7, 9))],
                         ids=["1d", "2d"])
def test_grid_writes_the_bytes_of_its_explicit_dict(tmp_path, grid):
    explicit = {"dim": grid.dim, "extents": [list(e) for e in grid.extents],
                "n": list(grid.n), "h": list(grid.h)}
    assert _dumped(tmp_path, grid) == _dumped(tmp_path, explicit)


def test_reports_write_the_bytes_of_their_explicit_dicts(tmp_path):
    crit = CriticalReport(-0.25, (-0.3, -0.2), "ResonanceMinus",
                          [(0.5, -0.3, 1e8, 0.999), (0.25, -0.28, np.float64(2e8), 1.0)],
                          {"boundaries": [-0.3, -0.28], "lam_star": np.float64(13.9),
                           "levels": [{"eps": 0.5, "width": float("nan")}]})
    assert _dumped(tmp_path, crit) == _dumped(tmp_path, {
        "t_star": crit.t_star, "bracket": list(crit.bracket), "kind": crit.kind,
        "blowup_evidence": [list(e) for e in crit.blowup_evidence],
        "diagnostics": crit.diagnostics})
    rep = SolveReport("Converged", 2, [1.5, np.float64(1e-12)], [3, 0], 1e-10, 1e-12, 1)
    assert _dumped(tmp_path, rep) == _dumped(tmp_path, {
        "status": rep.status, "iters": rep.iters, "residual_history": rep.residual_history,
        "active_control_changes": rep.active_control_changes, "tol": rep.tol,
        "final_residual": rep.final_residual, "damping_events": rep.damping_events})
    check = CheckResult("T1.1", "Pass", "inv", {"gap": np.float64(0.5)}, [], "")
    assert _dumped(tmp_path, {"results": [check]}) == _dumped(tmp_path, {"results": [{
        "theorem_id": "T1.1", "status": "Pass", "invariant": "inv",
        "metrics": {"gap": np.float64(0.5)}, "artifacts": [], "message": ""}]})
