"""E18/E19 — extensions: temperature tracking and system-level studies."""

from __future__ import annotations


def test_bench_temperature(run_row):
    result = run_row("E18", "E18_temperature")
    points = {p["temp_c"]: p for p in result.data["points"]}
    # Room temperature (the chip's measurement condition) works for both.
    assert points[25.0]["adaptive_ok"] and points[25.0]["fixed_ok"]
    # The adaptive scheme's window contains the fixed reference's window
    # and the adaptive link is never worse at any temperature.
    for p in result.data["points"]:
        assert p["adaptive_errors"] <= p["fixed_errors"]
    ad_lo, ad_hi = result.data["adaptive_window"]
    fx_lo, fx_hi = result.data["fixed_window"]
    assert ad_lo <= fx_lo and ad_hi >= fx_hi


def test_bench_system_studies(run_row):
    result = run_row("E19", "E19_system_studies")
    chip = result.data["chip"]
    assert chip.noc_power_reduction > 0.2  # the SRLR pays at chip scale
    # Section I's topology claim: the mesh wins for all localities here
    # (short SRLR hops beat long equalized traversals outright).
    assert result.data["crossover_locality"] < 0.5
    # One wire sustains ~4x the flit rate: the measured 4.1 Gb/s band.
    assert result.data["max_ratio"] == 4
