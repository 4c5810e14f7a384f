"""E24/E27 — extensions: fault injection vs protection, and the workload axis."""

from __future__ import annotations


def test_bench_fault_protection(run_row):
    result = run_row("E24", "E24_fault_protection")
    campaign = result.data["campaign"]
    bers = sorted(campaign.config.bers)
    # Raw links win at a vanishing BER (protection is pure overhead) and
    # link-level CRC wins once corrupted payloads erode the useful bit-mm.
    assert campaign.best_protocol(bers[0]) == "none"
    assert campaign.best_protocol(bers[-1]) == "crc"
    assert result.data["crossover"] is not None
    for ber in bers:
        assert (
            campaign.point(ber, "e2e").effective_fj_per_bit_mm
            >= campaign.point(ber, "crc").effective_fj_per_bit_mm
        )


def test_bench_workload_energy(run_row):
    result = run_row("E27", "E27_workload_energy")
    energy = result.data["energy"]
    workloads = {w for w, _ in energy}
    # Random payload bits toggle about half the wires: every workload
    # prices below the all-toggle constant model, by a similar ratio.
    for workload in workloads:
        ratio = energy[workload, "random"] / energy[workload, "constant"]
        assert 0.8 < ratio < 1.0, workload
