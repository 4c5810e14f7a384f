"""E9 — Section IV: router power split (38.8/5.2/12.9 mW) and area (18%)."""

from __future__ import annotations

import pytest


def test_bench_router_power(run_row):
    result = run_row("E9", "E9_router_power")
    power = result.data["power_srlr"]
    assert power.buffers == pytest.approx(38.8e-3, rel=0.1)
    assert power.control == pytest.approx(5.2e-3, rel=0.1)
    assert power.datapath == pytest.approx(12.9e-3, rel=0.1)
    area = result.data["area"]
    assert area.datapath * 1e6 == pytest.approx(0.061, rel=0.02)
    assert area.datapath_fraction == pytest.approx(0.18, abs=0.03)
