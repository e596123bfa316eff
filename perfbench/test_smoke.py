"""Smoke test of the benchmark: tiny grids, one pass per mode.

Every metric BENCHMARK.json names must come back in the result line and
print as a ``# metric`` line with its unit; every op must pass its gate
(the fine-grid probe may fail only as recorded).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(script_dir: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script_dir / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _run(HERE, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = re.search(rf"^# metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])} \(",
                         proc.stdout, re.MULTILINE)
        assert line, f"no metric line for {m['name']}"


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / HERE.name, "fold2d", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
