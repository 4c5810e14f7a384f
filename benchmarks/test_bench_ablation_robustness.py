"""E12 — ablation: decomposing the robust design's Fig. 6 advantage.

Each of the three Section III techniques (alternating delay cells,
NMOS-based driver, adaptive swing) is toggled independently and Monte
Carlo'd at the selected swing.
"""

from __future__ import annotations


def test_bench_ablation_robustness(run_row):
    result = run_row("E12", "E12_ablation_robustness")
    res = result.data["results"]
    p = {k: v.error_probability for k, v in res.items()}
    # The full robust design beats the straightforward baseline...
    assert p["robust"] < p["straightforward"]
    # ...and removing the adaptive swing hurts the most (our model's
    # decomposition of the 3.7x, recorded in EXPERIMENTS.md).
    assert p["no_adaptive"] > p["robust"]
    assert 2.0 <= result.data["immunity_ratio"] <= 8.0
