"""E20/E21 — extensions: O1TURN routing and technology scaling."""

from __future__ import annotations


def test_bench_o1turn_routing(run_row):
    result = run_row("E20", "E20_o1turn_routing")
    # At the highest (adversarial) load O1TURN must beat XY clearly.
    worst = result.data["runs"][-1]
    assert worst["o1turn"].average_latency < worst["xy"].average_latency
    # Both deliver the offered load below saturation.
    assert worst["o1turn"].delivered_count > 0


def test_bench_tech_scaling(run_row):
    result = run_row("E21", "E21_tech_scaling")
    shares = [p["fs_datapath_share"] for p in result.data["points"]]
    savings = [p["srlr_saving"] for p in result.data["points"]]
    # Section I: the datapath share grows monotonically as CMOS scales...
    assert shares == sorted(shares)
    # ...and with it the SRLR's router-power leverage.
    assert savings == sorted(savings)
    assert shares[0] > 0.4  # the 45 nm point sits in the published band
