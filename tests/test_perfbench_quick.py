"""The benchmark's quick run: one operation per workload, each output checked.

The benchmark's checks recompute every reference with their own NumPy code,
so a change that breaks a result the benchmark relies on fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_quick_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
