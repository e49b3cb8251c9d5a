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


def test_perfbench_selftest_passes():
    # every workload's check accepts its real output and rejects each corrupted one
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_trace_targets_resolve(monkeypatch):
    # --trace 1 wraps each listed function and method by name; a renamed or
    # inherited one must fail here, not on the next traced run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    originals = {}
    for module, path in tracing.SPANNED + tracing.COUNTED:
        owner = tracer.mods[module]
        if "." in path:
            cls_name, path = path.split(".")
            owner = getattr(owner, cls_name)
        originals[(owner, path)] = getattr(owner, path)
    tracer.install()
    try:
        for (owner, attr), orig in originals.items():
            assert getattr(owner, attr) is not orig, f"{owner.__name__}.{attr} not traced"
    finally:
        tracer.uninstall()
    for (owner, attr), orig in originals.items():
        assert getattr(owner, attr) is orig
