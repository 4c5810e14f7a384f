"""E7 — Table I: comparison of silicon-proven on-chip interconnects.

Regenerates the table with the paper's published rows plus the
reproduction's own measured "This Work" row.
"""

from __future__ import annotations


def test_bench_table1(run_row):
    result = run_row("E7", "E7_table1")
    designs = result.data["designs"]
    assert len(designs) == 6  # 5 prior rows (kim has 2 points) + this work
    ours = designs[-1]
    assert ours.signaling == "single-ended"
    assert all(d.signaling == "fully differential" for d in designs[:-1])
    assert 300 < result.data["measured_energy_fj_per_bit_per_cm"] < 500
