"""The op-digest tool prints one stable line per benchmark op."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_digests.py"
LINE = re.compile(r"^(fold2d|tstar2d|cli1d|cli) \d+ .+ (ok|FAIL|raised) [0-9a-f]{64}$")


def _digests() -> list[str]:
    proc = subprocess.run([sys.executable, str(TOOL), "--seed", "0", "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_smoke_digests_repeat_with_one_hex_digest_per_op():
    first, second = _digests(), _digests()
    assert first == second
    assert {line.split()[0] for line in first} == {"fold2d", "tstar2d", "cli1d", "cli"}
    assert [line for line in first if not LINE.match(line)] == []
    # every gate holds: a line reading FAIL or raised is a regression
    assert [line for line in first if LINE.match(line).group(2) != "ok"] == []
