"""E15 — extension: crosstalk robustness of the single-ended SRLR wires.

The paper's density/energy trade (Fig. 8) gains a robustness axis: the
exact coupled-line model quantifies neighbor noise and the dynamic Miller
swing loss against the stage's sensing margin, across wire spacings.
"""

from __future__ import annotations


def test_bench_crosstalk(run_row):
    result = run_row("E15", "E15_crosstalk")
    points = {p["space_scale"]: p for p in result.data["points"]}
    # Noise and Miller loss grow monotonically as spacing tightens.
    scales = sorted(points)
    noises = [points[s]["noise"] for s in scales]
    assert noises == sorted(noises, reverse=True)
    # The paper's reference spacing holds its margins; half-spacing breaks.
    assert points[1.0]["ok"]
    assert not points[0.6]["ok"]
