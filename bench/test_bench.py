"""The benchmark's own test: its smoke mode must pass.

    python -m pytest bench/test_bench.py
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_checks_every_workload():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
