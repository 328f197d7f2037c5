"""``scripts/check_digests.py`` on one workload, as a subprocess.

The script runs every seed-0 round of the named benchmark workload and
compares each front's digest with the committed one; ``enum_init`` is the
quickest workload.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_digests.py"


def test_one_workload_matches_its_committed_digests():
    out = subprocess.run([sys.executable, str(SCRIPT), "--workload", "enum_init"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert [ln.split()[1] for ln in lines if ln.startswith("bytes ")] == ["enum_init"]
    assert lines[-1].endswith(" fronts checked, 0 failures")
    assert not [ln for ln in lines if ln.startswith("FAILED")]


def test_unknown_workload_rejected():
    out = subprocess.run([sys.executable, str(SCRIPT), "--workload", "nope"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and "invalid choice" in out.stderr
