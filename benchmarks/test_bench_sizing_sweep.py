"""E13 — ablation: sizing sweeps (why 1 mm, swing trade, driver width)."""

from __future__ import annotations

from repro.units import MM


def test_bench_sizing_sweep(run_row):
    result = run_row("E13", "E13_sizing_sweep")
    points = {round(p.segment_length / MM, 1): p for p in result.data["length_points"]}
    assert points[1.0].ok  # the paper's 1 mm insertion works
    assert not points[2.5].ok  # far beyond it, the swing collapses
    margins = [p.margin for p in result.data["swing_points"]]
    assert margins == sorted(margins)
    assert result.data["driver"].max_data_rate >= 4.1e9
