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
    TransientSolver,
    attenuation_table,
    build_ladder,
    log_quantize,
    reference_segment,
)

TECH = tech_45nm_soi()


@pytest.fixture(scope="module")
def transfer(segment_1mm):
    return PulseTransfer(segment_1mm, r_drive=300.0, c_load=2 * FF)


@pytest.fixture(scope="module")
def table(segment_1mm):
    return attenuation_table(segment_1mm, r_drive=300.0, c_load=2 * FF, r_decay=400.0)


def test_attenuation_below_unity(table):
    # A short pulse arrives attenuated: this IS the low-swing mechanism.
    assert 0.0 < table.peak_ratio(100 * PS) < 1.0


def test_attenuation_monotone_in_width(table):
    ratios = [table.peak_ratio(w * PS) for w in (40, 80, 160, 320)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_long_pulse_approaches_full_swing(transfer):
    _, v = transfer.far_end_waveform(4000 * PS, 1.0)
    assert v.max() > 0.95


def test_received_pulse_shape(table):
    assert 0.0 < table.peak_ratio(150 * PS) < 1.0
    assert table.t_peak(150 * PS) > 150 * PS  # peak forms after the drive ends
    assert table.width_out(150 * PS) > 0.0


def test_peak_scales_linearly_with_amplitude(transfer):
    _, v1 = transfer.far_end_waveform(120 * PS, 0.3)
    _, v2 = transfer.far_end_waveform(120 * PS, 0.6)
    np.testing.assert_allclose(v2, 2 * v1, rtol=1e-6, atol=1e-15)


def test_weak_driver_attenuates_more(segment_1mm):
    strong = attenuation_table(segment_1mm, 150.0, 0.0, r_decay=150.0)
    weak = attenuation_table(segment_1mm, 1500.0, 0.0, r_decay=1500.0)
    assert weak.peak_ratio(120 * PS) < strong.peak_ratio(120 * PS)


def test_invalid_width_rejected(transfer):
    with pytest.raises(ConfigurationError):
        transfer.far_end_waveform(0.0, 1.0)


# --- AttenuationTable ------------------------------------------------------------------


def test_table_interpolates_exact_solver(table, transfer):
    for w in (60 * PS, 130 * PS, 280 * PS):
        _, v = transfer.far_end_waveform(w, 1.0)
        assert table.peak_ratio(w) == pytest.approx(v.max(), rel=0.03)


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


# --- bitwise oracle: tables as first built ------------------------------------
#
# A table computes one response per width, at the two nodes it reads,
# and skips ``exp`` where it underflows.  The reference below is the
# construction as first written: two full-network ``pulse_response``
# calls per width, the falling step on every row and ``exp`` on every
# entry.  BLAS does not promise that a column subset of a product is
# bitwise a column of the full product, so every table a campaign
# builds is compared with it exactly.


def _reference_pulse_response(solver, times, width, amplitude=1.0):
    m = solver._modes

    def step(ts):
        v_ss = m.v_unit_ss * amplitude
        modal0 = m.modes_inv @ (np.zeros(solver.network.n_nodes) - v_ss)
        decay = np.exp(np.outer(ts, m.eigenvalues))
        return v_ss[None, :] + decay * modal0[None, :] @ m.modes_fwd.T

    rising = step(times)
    falling = step(np.clip(times - width, 0.0, None))
    falling[times < width] = 0.0
    return rising - falling


def _reference_table(transfer, r_decay=None):
    """(rows, decay_tau) of an ``AttenuationTable`` as first built."""
    widths = np.geomspace(10e-12, 500e-12, AttenuationTable.N_GRID)
    rows = np.empty((len(widths), 4))
    for i, w in enumerate(widths):
        times = transfer._time_grid(float(w))
        v_far = _reference_pulse_response(transfer.solver, times, float(w))[
            :, transfer.far_node
        ]
        i_peak = int(np.argmax(v_far))
        rows[i, 0] = v_far[i_peak]
        rows[i, 2] = times[i_peak]
        if v_far[i_peak] > 0.0:
            above = np.flatnonzero(v_far >= 0.5 * v_far[i_peak])
            rows[i, 1] = times[above[-1]] - times[above[0]]
        else:
            rows[i, 1] = 0.0
        v0 = _reference_pulse_response(transfer.solver, times, float(w))[:, 0]
        high = times <= w
        i_drv = (1.0 - v0[high]) / transfer.r_drive
        rows[i, 3] = float(np.trapezoid(i_drv, times[high]))
    if r_decay is None:
        decay_tau = transfer.solver.slowest_time_constant
    else:
        net = build_ladder(transfer.segment, r_decay, transfer.c_load)
        decay_tau = TransientSolver(net).slowest_time_constant
    return rows, decay_tau


def _assert_table_is_reference(table, r_decay):
    rows, decay_tau = _reference_table(table.transfer, r_decay)
    assert np.array_equal(table.rows, rows)
    assert table.decay_tau == decay_tau


def _recorded_tables(monkeypatch, campaign):
    """Every distinct table ``campaign()`` asks the cache for, with the
    pull-down resistance it was built for."""
    from repro.wire import attenuation

    seen = {}
    cached = attenuation._cached_table

    def recording(*key):
        table = cached(*key)
        seen[key] = table
        return table

    monkeypatch.setattr(attenuation, "_cached_table", recording)
    campaign()
    monkeypatch.undo()
    return [(table, key[-1]) for key, table in seen.items()]


def test_fig6_monte_carlo_tables_equal_the_reference(monkeypatch):
    # The pool a Fig. 6 benchmark set-up warms: 180 dies per design from
    # seed 2013 under the short stress pattern.
    from repro.circuit import robust_design, straightforward_design
    from repro.circuit.prbs import worst_case_patterns
    from repro.mc import run_monte_carlo

    def campaign():
        for design in (robust_design(), straightforward_design()):
            run_monte_carlo(
                design, n_runs=180, base_seed=2013,
                pattern=worst_case_patterns(), n_jobs=1,
            )

    tables = _recorded_tables(monkeypatch, campaign)
    assert len(tables) == 33
    for table, r_decay in tables:
        _assert_table_is_reference(table, r_decay)


def test_sweep_and_fault_warm_up_tables_equal_the_reference(monkeypatch):
    # An srlr_energy grid over 0.26-0.34 V (the service sweep's cells)
    # and the calibrated design's link energy (the fault campaign's
    # datapath price).
    from repro.energy import srlr_link_energy
    from repro.service.adapters import GRID_EVALUATORS

    def campaign():
        evaluate = GRID_EVALUATORS["srlr_energy"]
        for i in range(200):
            evaluate({"nominal_swing": round(0.26 + 0.08 * i / 199, 7)})
        srlr_link_energy()

    tables = _recorded_tables(monkeypatch, campaign)
    assert tables
    for table, r_decay in tables:
        _assert_table_is_reference(table, r_decay)


@pytest.mark.parametrize(
    "r_drive, c_load, r_decay",
    [
        (300.0, 0.0, 400.0),  # no receiver load
        (300.0, 2 * FF, None),  # decay through the pull-up path
        (20e3, 2 * FF, 20e3),  # slow enough to hit the 6000-point cap
    ],
)
def test_edge_case_tables_equal_the_reference(segment_1mm, r_drive, c_load, r_decay):
    transfer = PulseTransfer(segment_1mm, r_drive, c_load)
    if r_drive > 1e4:
        assert len(transfer._time_grid(10e-12)) == 6000
    _assert_table_is_reference(AttenuationTable(transfer, r_decay=r_decay), r_decay)


def test_pulse_response_on_unsorted_times_equals_the_reference(segment_1mm):
    solver = TransientSolver(build_ladder(segment_1mm, 300.0, 2 * FF))
    width = 100 * PS
    # The grid plus the falling edge itself, where the falling step is
    # evaluated at t - width = 0.
    times = np.random.default_rng(26).permutation(
        np.append(np.linspace(0.0, 8 * solver.slowest_time_constant, 997), width)
    )
    want = _reference_pulse_response(solver, times, width, 0.6)
    assert np.array_equal(solver.pulse_response(times, width, 0.6), want)
    for nodes in ([0, 20], [20], [7, 3, 11]):
        got = solver.pulse_response(times, width, 0.6, nodes)
        assert np.array_equal(got, want[:, nodes])
    # Exactly one time past the falling edge, and one on it.
    times = np.array([3 * width, 0.5 * width, 0.0, 0.9 * width])
    want = _reference_pulse_response(solver, times, width)
    assert np.array_equal(solver.pulse_response(times, width), want)
    assert np.array_equal(solver.pulse_response(times, width, 1.0, [20]), want[:, [20]])
    times = np.array([width, 0.5 * width])
    want = _reference_pulse_response(solver, times, width)
    assert np.array_equal(solver.pulse_response(times, width), want)
    assert np.array_equal(solver.pulse_response(times, width, 1.0, [20]), want[:, [20]])


def test_far_end_waveform_equals_the_reference(transfer):
    times, v = transfer.far_end_waveform(90 * PS, 0.55)
    want = _reference_pulse_response(transfer.solver, times, 90 * PS, 0.55)
    assert np.array_equal(v, want[:, transfer.far_node])


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, 0.0, -1e-12])
def test_non_finite_pulse_width_refused(transfer, width):
    with pytest.raises(ConfigurationError, match="width"):
        transfer.far_end_waveform(width, 1.0)
    with pytest.raises(ConfigurationError, match="width"):
        transfer.solver.pulse_response(np.linspace(0.0, 1e-9, 5), width)
