import pytest

import hjbranch.branches as br
import hjbranch.checks as checks
from hjbranch.checks import (
    THEOREM_IDS,
    CheckResult,
    CheckSpec,
    default_suite,
    emit_traceability,
    run_suite,
)
from hjbranch.errors import ConfigurationError, RegimeError
from hjbranch.grids import build_grid


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(1, (0.0, 1.0), 99)


def test_default_suite_covers_every_id(small_grid):
    specs = default_suite(small_grid)
    assert sorted(s.theorem_id for s in specs) == sorted(THEOREM_IDS)


def test_unknown_theorem_id_rejected():
    with pytest.raises(ConfigurationError):
        CheckSpec("T9.9")


def test_run_suite_fast_subset(small_grid):
    specs = [CheckSpec(tid, grid=small_grid)
             for tid in ("T1.1", "L2.8", "P6.1", "T2.4")]
    results = run_suite(specs)
    assert [r.theorem_id for r in results] == ["L2.8", "P6.1", "T1.1", "T2.4"]
    assert all(r.status == "Pass" for r in results)
    assert all(r.invariant for r in results)


def test_run_suite_deterministic(small_grid):
    specs = [CheckSpec(tid, grid=small_grid, seed=9)
             for tid in ("T1.1", "T2.3")]
    a = run_suite(specs)
    b = run_suite(specs)
    assert [r.metrics for r in a] == [r.metrics for r in b]


def test_misconfigured_spec_raises():
    # T1.3 needs lam_1^+ < 0 < lam_1^-; on [0, 0.5] lam_1^+ is about 24.5.
    # T1.1 needs 0 < lam_1^+; on [0, 2] lam_1^+ is -2.53. T1.5 needs
    # lam_1^- + 0.1 inside the negative-regime window, which on [0, 3] ends
    # at lam_1^- + 0.0548.
    for tid, b in (("T1.3", 0.5), ("T1.1", 2.0), ("T1.5", 3.0)):
        spec = CheckSpec(tid, grid=build_grid(1, (0.0, b), 49))
        with pytest.raises(ConfigurationError, match=f"{tid} spec/regime mismatch"):
            run_suite([spec])


def test_theorem_ids_are_the_check_table():
    assert THEOREM_IDS == tuple(checks._CHECKS)


def test_run_suite_builds_one_row_per_spec(monkeypatch):
    def abort(spec):
        raise RegimeError(f"aborted on seed {spec.seed}")

    runners = {"T1.1": lambda spec: (True, {"seed": spec.seed}),
               "T2.4": lambda spec: (False, {"seed": spec.seed}),
               "P6.1": abort}
    for tid, run in runners.items():
        monkeypatch.setitem(checks._CHECKS, tid, (f"invariant {tid}", run))
    rows = run_suite([CheckSpec(tid, seed=3) for tid in runners])
    assert [(r.theorem_id, r.status, r.invariant, r.metrics, r.message) for r in rows] == [
        ("P6.1", "Fail", "runner aborted", {}, "aborted on seed 3"),
        ("T1.1", "Pass", "invariant T1.1", {"seed": 3}, ""),
        ("T2.4", "Fail", "invariant T2.4", {"seed": 3}, ""),
    ]


def test_t15_antimaximum_failure_aborts_its_runner(monkeypatch):
    # the antimaximum signs of T1.5 are enforced by sweep_negative_regime, which raises
    monkeypatch.setattr(br, "antimaximum_probe",
                        lambda *args: {1.0: {"converged": True, "max": 0.5}})
    [row] = run_suite([CheckSpec("T1.5", grid=build_grid(1, (0.0, 1.0), 49))])
    assert (row.theorem_id, row.status, row.invariant) == ("T1.5", "Fail", "runner aborted")
    assert "antimaximum check failed" in row.message


def test_emit_traceability_formats():
    row = CheckResult("T1.1", "Pass", "an invariant", {"a": 1.0})
    table = emit_traceability([row])
    assert table.count("\n") == 3
    assert "| T1.1 | an invariant | Pass | a=1 |" in table
    mixed = emit_traceability([
        CheckResult("T1.1", "Pass", "x", {"v": 2.0}),
        CheckResult("T2.4", "Evidence", "y", {}),
    ])
    assert "Evidence" in mixed and "| — |" in mixed
    with pytest.raises(ConfigurationError):
        emit_traceability([])
