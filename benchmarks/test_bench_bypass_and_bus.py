"""E16/E17 — extensions: pipeline bypass and the parallel SRLR datapath."""

from __future__ import annotations


def test_bench_bypass(run_row):
    result = run_row("E16", "E16_bypass")
    for run in result.data["runs"]:
        assert run["latency_bypass"] < run["latency_base"]
        assert run["buffer_energy_bypass"] <= run["buffer_energy_base"]


def test_bench_bus(run_row):
    result = run_row("E17", "E17_bus")
    assert result.data["tt"].ok
    report = result.data["yield"]
    # Correlated lanes: the measured bus failure probability sits at or
    # below the independent-lanes prediction.
    assert report.bus_failure_probability <= report.independence_prediction + 1e-9
    if result.data["skews"]:
        assert max(result.data["skews"]) < 1.0 / 4.1e9  # within one UI
