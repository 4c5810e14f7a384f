"""E8 — Section IV: bias generator overhead (587 uW, 0.6% at 64 bits)."""

from __future__ import annotations

import pytest


def test_bench_bias_overhead(run_row):
    result = run_row("E8", "E8_bias_overhead")
    assert result.data["fraction_64"] == pytest.approx(0.006, abs=0.003)
