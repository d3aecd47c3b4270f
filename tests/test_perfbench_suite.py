"""perfbench's own suite, run as one test.

perfbench/tests cannot join this collection: both directories hold a
conftest.py, and test_encode.py's `from conftest import ...` would then
resolve to perfbench's. A child pytest keeps them apart, so a change under
src/ that breaks perfbench's gates or span assertions fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
