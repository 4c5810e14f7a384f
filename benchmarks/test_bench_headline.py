"""E5 — Section IV headline: 4.1 Gb/s, 40.4 fJ/bit/mm, 6.83 Gb/s/um, BER.

Regenerates the measured operating point of the fabricated 1-bit 10 mm
link: maximum data rate, energy per bit, link power, bandwidth density
and the PRBS error-count BER measurement.
"""

from __future__ import annotations

import pytest


def test_bench_headline(run_row):
    result = run_row("E5", "E5_headline")
    assert result.data["energy_report"].fj_per_bit_per_mm == pytest.approx(
        40.4, rel=0.15
    )
    assert result.data["energy_report"].bandwidth_density_gbps_per_um == pytest.approx(
        6.83, rel=1e-3
    )
    assert 4.1e9 <= result.data["max_rate"] <= 5.5e9
    assert result.data["ber"].errors == 0
    assert result.data["ber_extrapolated"] < 1e-6
