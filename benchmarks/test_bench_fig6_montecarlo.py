"""E4 — Fig. 6: Monte Carlo error probability vs swing voltage.

Regenerates the paper's 1000-run Monte Carlo comparison of the robust and
straightforward SRLR designs across swing voltages, including the ~3.7x
process-variation-immunity ratio at the selected swing.
"""

from __future__ import annotations


def test_bench_fig6_montecarlo(run_row):
    result = run_row("E4", "E4_fig6_montecarlo")
    sweep = result.data["sweep"]
    robust = sweep.series("robust")
    straightforward = sweep.series("straightforward")
    # Error probability falls with swing (both designs).
    assert robust[-1] <= robust[0]
    # The robust design is never less reliable, and is strictly better at
    # the selected swing by a factor in the paper's band.
    assert all(r <= s + 1e-9 for r, s in zip(robust, straightforward))
    assert 2.0 <= result.data["immunity_ratio"] <= 8.0
