"""E3 — Section III-B: inverter vs NMOS driver failure modes.

Regenerates the corner-plane failure maps: the inverter driver exhibits
two distinct, PMOS-corner-dependent failure modes; the NMOS-based driver
collapses to a single weak-NMOS band which the adaptive Vref then pushes
out.
"""

from __future__ import annotations


def test_bench_driver_modes(run_row):
    result = run_row("E3", "E3_driver_modes")
    maps = result.data["maps"]
    # The NMOS driver's map is (nearly) dVth_p-independent: the residual
    # row variation comes from the shared INV/delay-cell blocks, not the
    # driver.  The inverter's map must vary more with dVth_p (its second,
    # PMOS-driven failure mode).
    n_nmos = len(set(maps["nmos (fixed Vref)"]))
    n_inverter = len(set(maps["inverter"]))
    assert n_nmos <= 2
    assert n_inverter >= n_nmos
    # Adaptive swing recovers corners the fixed reference loses.
    assert result.data["fail_counts"]["nmos + adaptive"] <= result.data[
        "fail_counts"
    ]["nmos (fixed Vref)"]
