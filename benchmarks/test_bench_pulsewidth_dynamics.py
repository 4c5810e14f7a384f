"""E2 — Eq. (1)/(2): per-stage pulse-width drift at skewed corners.

Regenerates the Section III-A analysis: with a single delay cell and an
uncompensated global corner, the output pulse widths shrink monotonically
along the link until transmission fails; the alternating design decays
more slowly.
"""

from __future__ import annotations


def test_bench_pulsewidth_dynamics(run_row):
    result = run_row("E2", "E2_pulsewidth_dynamics")
    # Eq. (1): monotone shrink for the single design at the +16 mV corner.
    widths = [w for w in result.data["profiles"][0.016]["single"] if w is not None]
    assert all(a >= b - 0.5 for a, b in zip(widths, widths[1:]))
    assert widths[0] - widths[-1] > 5.0
    # Alternating decays more slowly (its deepest surviving width is higher).
    alt = [w for w in result.data["profiles"][0.018]["alternating"] if w is not None]
    single = [w for w in result.data["profiles"][0.018]["single"] if w is not None]
    assert min(alt) > min(single)
