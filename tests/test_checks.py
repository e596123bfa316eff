import pytest

from hjbranch.checks import (
    THEOREM_IDS,
    CheckSpec,
    default_suite,
    emit_traceability,
    run_suite,
)
from hjbranch.errors import ConfigurationError
from hjbranch.grids import build_grid
from hjbranch.checks import CheckResult


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
    # T1.3 needs lam_1^+ < 0 < lam_1^-; on [0, 0.5] lam_1^+ is about 24.5
    spec = CheckSpec("T1.3", grid=build_grid(1, (0.0, 0.5), 49))
    with pytest.raises(ConfigurationError):
        run_suite([spec])


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
