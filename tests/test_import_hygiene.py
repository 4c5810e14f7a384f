"""What importing the program costs: no heavy dependency at module level."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def _run(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter on ``src/``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


def test_scipy_stays_off_the_import_path():
    # scipy.stats would cost ~1 s and ~70 MB per process, scipy.linalg
    # ~0.3 s: no module imports either at module level, and only the
    # coupled-wire solver imports scipy.linalg, inside the function.
    code = (
        "import sys\n"
        "import repro, repro.mc, repro.wire, repro.service.adapters, repro.dse\n"
        "heavy = ('scipy.stats', 'scipy.linalg')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    assert _run(code) == "[]"


def test_fault_campaign_never_loads_scipy_stats():
    # Every campaign point bounds its links' BERs; the bound is a
    # scipy.special ufunc, so neither a campaign process nor a worker
    # pays for scipy.stats.
    code = (
        "import sys\n"
        "from repro.fault import FaultCampaignConfig, run_fault_campaign\n"
        "from repro.mc.ber import ber_upper_bound\n"
        "config = FaultCampaignConfig(k=3, warmup=20, measure=60, bers=(1e-2,))\n"
        "result = run_fault_campaign(config)\n"
        "assert len(result.points) == len(config.protocols) == 4\n"
        "assert 0.0 < ber_upper_bound(3, 1000) < 1.0\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    assert _run(code) == "False"
