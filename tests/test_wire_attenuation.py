"""Pulse attenuation: the low-swing generation mechanism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tech import tech_45nm_soi
from repro.units import FF, MM, PS
from repro.wire import (
    AttenuationTable,
    PulseTransfer,
    attenuation_table,
    log_quantize,
    pulse_transfer,
    reference_segment,
)

TECH = tech_45nm_soi()


@pytest.fixture(scope="module")
def transfer(segment_1mm):
    return pulse_transfer(segment_1mm, r_drive=300.0, c_load=2 * FF)


@pytest.fixture(scope="module")
def table(segment_1mm):
    return attenuation_table(segment_1mm, r_drive=300.0, c_load=2 * FF, r_decay=400.0)


def test_attenuation_below_unity(transfer):
    # A short pulse arrives attenuated: this IS the low-swing mechanism.
    assert 0.0 < transfer.peak_ratio(100 * PS) < 1.0


def test_attenuation_monotone_in_width(transfer):
    ratios = [transfer.peak_ratio(w * PS) for w in (40, 80, 160, 320)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_long_pulse_approaches_full_swing(transfer):
    assert transfer.peak_ratio(4000 * PS) > 0.95


def test_received_pulse_shape(transfer):
    rp = transfer.received(150 * PS, 0.5)
    assert 0.0 < rp.peak < 0.5
    assert rp.t_peak > 150 * PS  # peak forms after the drive ends
    assert rp.width > 0.0


def test_peak_scales_linearly_with_amplitude(transfer):
    r1 = transfer.received(120 * PS, 0.3)
    r2 = transfer.received(120 * PS, 0.6)
    assert r2.peak == pytest.approx(2 * r1.peak, rel=1e-6)
    assert r2.width == pytest.approx(r1.width, rel=1e-6)


def test_delay_50_reasonable(transfer, segment_1mm):
    d = transfer.delay_50()
    # Between the lumped-RC lower bound and several time constants.
    assert 0.2 * segment_1mm.rc_time_constant < d < 10 * segment_1mm.rc_time_constant


def test_weak_driver_attenuates_more(segment_1mm):
    strong = pulse_transfer(segment_1mm, r_drive=150.0)
    weak = pulse_transfer(segment_1mm, r_drive=1500.0)
    assert weak.peak_ratio(120 * PS) < strong.peak_ratio(120 * PS)


def test_invalid_width_rejected(transfer):
    with pytest.raises(ConfigurationError):
        transfer.far_end_waveform(0.0, 1.0)


# --- AttenuationTable ------------------------------------------------------------------


def test_table_interpolates_exact_solver(table, transfer):
    for w in (60 * PS, 130 * PS, 280 * PS):
        assert table.peak_ratio(w) == pytest.approx(
            transfer.peak_ratio(w), rel=0.03
        )


def test_table_charge_monotone_in_width(table):
    q = [table.charge_in(w * PS) for w in (40, 100, 200, 400)]
    assert all(a < b for a, b in zip(q, q[1:]))


def test_table_charge_bounded_by_total_capacitance(table, segment_1mm):
    # Per volt of drive, the charge cannot exceed the full wire + load cap.
    q_max = table.charge_in(table.w_max)
    assert q_max <= (segment_1mm.capacitance + 2 * FF) * 1.02


def test_table_zero_width_edge_cases(table):
    assert table.peak_ratio(0.0) == 0.0
    assert table.charge_in(-1e-12) == 0.0
    assert table.width_out(0.0) == 0.0


def test_decay_tau_uses_pulldown_resistance(segment_1mm):
    fast = attenuation_table(segment_1mm, 300.0, 2 * FF, r_decay=200.0)
    slow = attenuation_table(segment_1mm, 300.0, 2 * FF, r_decay=2000.0)
    assert slow.decay_tau > fast.decay_tau


def test_table_cached_by_quantized_resistance(segment_1mm):
    a = attenuation_table(segment_1mm, 300.0, 2 * FF, 400.0)
    b = attenuation_table(segment_1mm, 301.0, 2 * FF, 401.0)  # same grid cell
    assert a is b


def test_log_quantize_properties():
    assert log_quantize(100.0) == pytest.approx(100.0, rel=0.08)
    with pytest.raises(ConfigurationError):
        log_quantize(0.0)


@given(value=st.floats(1e-2, 1e6))
def test_log_quantize_bounded_error(value):
    q = log_quantize(value, per_decade=16)
    assert abs(np.log10(q) - np.log10(value)) <= 0.5 / 16 + 1e-12


@settings(max_examples=15, deadline=None)
@given(w1=st.floats(20e-12, 200e-12), w2=st.floats(20e-12, 200e-12))
def test_table_peak_monotonicity_property(table, w1, w2):
    lo, hi = sorted((w1, w2))
    assert table.peak_ratio(lo) <= table.peak_ratio(hi) + 1e-9


def _reference_log_quantize(value, per_decade=16):
    # The quantizer as first written, in numpy scalars.
    step = np.log10(value) * per_decade
    return float(10.0 ** (np.round(step) / per_decade))


@pytest.mark.parametrize("per_decade", [16, 7, 32])
def test_log_quantize_equals_numpy_reference_on_log_uniform_values(per_decade):
    rng = np.random.default_rng(25)
    n = 100_000 if per_decade == 16 else 20_000
    values = 10.0 ** rng.uniform(-15.0, 15.0, n)
    got = [log_quantize(v, per_decade) for v in values.tolist()]
    want = [_reference_log_quantize(v, per_decade) for v in values.tolist()]
    assert got == want


@pytest.mark.parametrize("per_decade", [16, 7])
def test_log_quantize_equals_numpy_reference_at_half_steps(per_decade):
    # Values on (and a few ulps either side of) every half-step between
    # 1e-6 and 1e9: where round-half-even and last-bit log10 differences
    # decide the grid index.
    checked = 0
    for k in range(-6 * per_decade, 9 * per_decade):
        centre = 10.0 ** ((k + 0.5) / per_decade)
        for value in (centre, float(np.float64(10.0) ** ((k + 0.5) / per_decade))):
            for ulps in range(-3, 4):
                v = value
                for _ in range(abs(ulps)):
                    v = math.nextafter(v, math.inf if ulps > 0 else 0.0)
                assert log_quantize(v, per_decade) == _reference_log_quantize(
                    v, per_decade
                ), v
                checked += 1
    assert checked == 15 * per_decade * 14


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, -math.inf])
def test_log_quantize_refuses_non_positive_values(value):
    with pytest.raises(ConfigurationError):
        log_quantize(value)


def test_log_quantize_passes_non_finite_values_through_numpy():
    assert log_quantize(math.inf) == math.inf
    assert math.isnan(log_quantize(math.nan))
