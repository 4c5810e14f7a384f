"""Exact RC transient solver: checked against closed-form circuit theory."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tech import tech_45nm_soi
from repro.units import MM, PS
from repro.wire import (
    LadderNetwork,
    TransientSolver,
    build_ladder,
    reference_segment,
)
from repro.wire.transient import UNDERFLOW_EXPONENT

TECH = tech_45nm_soi()


def single_rc(r: float, c: float) -> TransientSolver:
    """A one-node RC network (driver resistance r into capacitance c)."""
    net = LadderNetwork(
        c=np.array([c]), g=np.array([[1.0 / r]]), b=np.array([1.0 / r])
    )
    return TransientSolver(net)


def test_single_rc_matches_textbook():
    r, c = 1000.0, 100e-15
    solver = single_rc(r, c)
    tau = r * c
    times = np.array([0.0, tau, 2 * tau, 5 * tau])
    v = solver.step_response(times, amplitude=1.0)[:, 0]
    expected = 1.0 - np.exp(-times / tau)
    assert v == pytest.approx(expected, abs=1e-9)


def test_slowest_time_constant_single_rc():
    solver = single_rc(2000.0, 50e-15)
    assert solver.slowest_time_constant == pytest.approx(1e-10, rel=1e-9)


def test_steady_state_is_input_level(segment_1mm):
    solver = TransientSolver(build_ladder(segment_1mm, r_drive=200.0))
    v_ss = solver.steady_state(0.7)
    # A resistive ladder with no DC path to ground settles at the input.
    assert v_ss == pytest.approx(np.full_like(v_ss, 0.7), abs=1e-9)


def test_step_response_monotone_and_bounded(segment_1mm):
    solver = TransientSolver(build_ladder(segment_1mm, r_drive=200.0))
    times = np.linspace(0, 10 * solver.slowest_time_constant, 400)
    far = solver.step_response(times)[:, -1]
    assert np.all(np.diff(far) >= -1e-9)  # monotone rise
    assert np.all(far <= 1.0 + 1e-9)  # passive: never exceeds the drive
    assert far[-1] == pytest.approx(1.0, abs=1e-3)


def test_near_end_leads_far_end(segment_1mm):
    solver = TransientSolver(build_ladder(segment_1mm, r_drive=200.0))
    times = np.linspace(1 * PS, 3 * solver.slowest_time_constant, 200)
    v = solver.step_response(times)
    assert np.all(v[:, 0] >= v[:, -1] - 1e-12)


def test_pulse_response_superposition(segment_1mm):
    solver = TransientSolver(build_ladder(segment_1mm, r_drive=300.0))
    width = 100 * PS
    times = np.linspace(0, 600 * PS, 300)
    pulse = solver.pulse_response(times, width, 1.0)
    step = solver.step_response(times, 1.0)
    shifted = np.zeros_like(step)
    mask = times >= width
    shifted[mask] = solver.step_response(times[mask] - width, 1.0)
    assert pulse == pytest.approx(step - shifted, abs=1e-9)


def test_pulse_returns_to_zero(segment_1mm):
    solver = TransientSolver(build_ladder(segment_1mm, r_drive=300.0))
    t_end = 12 * solver.slowest_time_constant
    v = solver.pulse_response(np.array([t_end]), 100 * PS, 1.0)
    assert np.abs(v).max() < 1e-3


def test_evolve_continuity(segment_1mm):
    solver = TransientSolver(build_ladder(segment_1mm, r_drive=300.0))
    # Evolving 2t in one go equals two successive t evolutions.
    v0 = np.zeros(solver.network.n_nodes)
    t = 80 * PS
    one_shot = solver.evolve(v0, 0.5, np.array([2 * t]))[0]
    mid = solver.evolve(v0, 0.5, np.array([t]))[0]
    two_step = solver.evolve(mid, 0.5, np.array([t]))[0]
    assert one_shot == pytest.approx(two_step, abs=1e-12)


def test_ladder_validation(segment_1mm):
    with pytest.raises(ConfigurationError):
        build_ladder(segment_1mm, r_drive=0.0)
    with pytest.raises(ConfigurationError):
        build_ladder(segment_1mm, r_drive=100.0, c_load=-1e-15)
    with pytest.raises(ConfigurationError):
        build_ladder(segment_1mm, r_drive=100.0, n_sections=0)


def test_ladder_conserves_totals(segment_1mm):
    net = build_ladder(segment_1mm, r_drive=100.0, c_load=2e-15, n_sections=17)
    assert net.c.sum() == pytest.approx(segment_1mm.capacitance + 2e-15)
    # Sum of series conductances: n_sections * (n_sections / R_total).
    assert net.far_node == 17


@settings(max_examples=25, deadline=None)
@given(
    r_drive=st.floats(50.0, 5000.0),
    width_ps=st.floats(20.0, 400.0),
)
def test_response_passivity_property(r_drive, width_ps):
    """No internal node ever exceeds the drive amplitude (passivity)."""
    segment = reference_segment(TECH, 1 * MM)
    solver = TransientSolver(build_ladder(segment, r_drive))
    times = np.linspace(0, 6 * solver.slowest_time_constant, 200)
    v = solver.pulse_response(times, width_ps * PS, 1.0)
    assert v.max() <= 1.0 + 1e-9
    assert v.min() >= -1e-9


# --- the underflow cutoff of decay_grid ----------------------------------------


def test_exp_is_positive_zero_at_and_below_the_underflow_cutoff():
    # decay_grid writes +0.0 instead of calling exp at or below the
    # cutoff; that is exact only if this host's exp gives +0.0 there.
    cutoff = UNDERFLOW_EXPONENT
    x = np.concatenate([
        np.linspace(-900.0, cutoff, 400_001),
        [np.nextafter(cutoff, -np.inf), cutoff, np.nextafter(cutoff, np.inf), -1e300],
    ])
    y = np.exp(x)
    assert np.all(y == 0.0)
    assert not np.any(np.signbit(y))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decay_grid_equals_exp_of_outer_across_the_subnormal_range(seed):
    # Exponents from well inside the normal range, through the subnormal
    # range [-745.2, -708], to past the cutoff.
    rng = np.random.default_rng(seed)
    rates = -np.sort(rng.uniform(1.0, 5.0, 21))
    times = np.concatenate([
        np.linspace(0.0, 900.0, 3001),
        rng.uniform(708.0 / 5.0, 746.0, 2000),
        UNDERFLOW_EXPONENT / rates,  # exactly on the cutoff (to rounding)
    ])
    got = TransientSolver.decay_grid(times, rates)
    want = np.exp(np.outer(times, rates))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    x = np.outer(times, rates)
    assert np.any((x > -745.2) & (x < -708.0))
    assert np.any(x <= UNDERFLOW_EXPONENT)


# --- non-finite inputs -----------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_refused(segment_1mm, bad):
    solver = TransientSolver(build_ladder(segment_1mm, r_drive=300.0))
    times = np.array([0.0, 1e-12, bad])
    v0 = np.zeros(solver.network.n_nodes)
    with pytest.raises(ConfigurationError, match="times"):
        solver.evolve(v0, 1.0, times)
    with pytest.raises(ConfigurationError, match="times"):
        solver.step_response(times)
    with pytest.raises(ConfigurationError, match="times"):
        solver.pulse_response(times, 50 * PS)
