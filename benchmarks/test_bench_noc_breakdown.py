"""E10 — Section I: mesh NoC power breakdowns (RAW / TRIPS / TeraFLOPS)."""

from __future__ import annotations

import pytest

from repro.energy import datapath_share


def test_bench_noc_breakdown(run_row):
    result = run_row("E10", "E10_noc_breakdown")
    assert datapath_share("RAW") == pytest.approx(69.0)
    assert datapath_share("TRIPS") == pytest.approx(64.0)
    assert datapath_share("TeraFLOPS") == pytest.approx(32.0)
    # Our full-swing router model lands in the published datapath band.
    fs = result.data["model_full_swing"]
    assert 0.3 < fs.fraction("datapath") < 0.75
