"""E22 — extension: repeaterless/equalized links vs repeating, simulated."""

from __future__ import annotations


def test_bench_equalized_baseline(run_row):
    result = run_row("E22", "E22_equalized_baseline")
    points = result.data["points"]
    rates = [p["rate"] for p in points]
    energies = [p["energy"] for p in points]
    # More equalization -> more rate AND more energy (the FFE trade).
    assert rates == sorted(rates)
    assert energies == sorted(energies)
    # The repeated SRLR link beats every repeaterless variant on both axes.
    assert result.data["srlr_rate"] > max(rates) * 3
    assert result.data["srlr_energy"] < min(energies)
