"""E11 — Section II: 1-to-N multicast for free.

Regenerates both views: the analytic XY-tree vs unicast-fanout hop
accounting (with SRLR tap deliveries), and a cycle-level simulation where
tree multicast with taps is priced against unicast replication.
"""

from __future__ import annotations


def test_bench_multicast_analytic(run_row):
    result = run_row("E11", "E11_multicast_analytic")
    savings = result.data["savings"]
    degrees = sorted(savings)
    assert savings[degrees[0]] > 1.0
    assert savings[degrees[-1]] > savings[degrees[0]]


def test_bench_multicast_simulated(run_row):
    result = run_row("E11b", "E11_multicast_simulated")
    assert result.data["tree"].tap_deliveries > 0
    assert result.data["energy_saving"] > 1.2
