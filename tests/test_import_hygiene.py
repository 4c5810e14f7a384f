"""What importing the program costs: no heavy dependency at module level."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def test_scipy_stays_off_the_import_path():
    # scipy.stats costs ~1 s and ~70 MB per process, scipy.linalg ~0.3 s:
    # they are imported by the functions that use them, not at module
    # level.
    code = (
        "import sys\n"
        "import repro, repro.mc, repro.wire, repro.service.adapters, repro.dse\n"
        "heavy = ('scipy.stats', 'scipy.linalg')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"
