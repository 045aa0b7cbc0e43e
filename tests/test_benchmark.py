import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    # the benchmark reads report keys (verdicts.cap_ok, selection.kappa, ...)
    # and checks each output; a report change that breaks it fails here
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
