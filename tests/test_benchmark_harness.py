"""The benchmark's own checks pass against this tree.

Among them: the sampler's evaluations go through the public, traced
``lyapunov.evaluate`` under ``certify.sample_level_set``, so a private fast
path that the benchmark cannot see fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_harness_checks_pass(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--basetemp={tmp_path}",
         str(ROOT / "benchmarks" / "harness_checks.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
