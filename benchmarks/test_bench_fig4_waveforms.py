"""E1 — Fig. 4: SRLR circuit waveforms.

Regenerates the simulated waveform picture: low-swing IN pulse, node X
discharge/reset, regenerated full-swing OUT pulse.
"""

from __future__ import annotations


def test_bench_fig4_waveforms(run_row):
    result = run_row("E1", "E1_fig4_waveforms")
    assert result.data["out_peak"] > 2 * result.data["in_peak"]
    assert result.data["x_standby"] > 0.5
