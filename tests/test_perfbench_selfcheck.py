"""The frozen benchmark still runs against the package.

``perfbench/selfcheck.py`` runs the benchmark's pipelines at level 8, traced
and untraced, and checks them against the package; it exercises every API
the benchmark pins. It writes its outputs under ``.perfbench/`` in the
working directory, here a temporary one.
"""

import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parents[1] / "perfbench" / "selfcheck.py"


def test_perfbench_selfcheck_passes(tmp_path):
    done = subprocess.run([sys.executable, str(SELFCHECK)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "PASS" in done.stdout and "FAIL" not in done.stdout
