"""Repeaterless/equalized links and link diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.circuit import (
    RepeaterlessLink,
    SRLRLink,
    diagnose_link,
    margin_profile,
    robust_design,
    stage_margins,
)
from repro.circuit.srlr import StageFailure
from repro.tech import monte_carlo_sample, tech_45nm_soi, tech_90nm_bulk
from repro.units import MM

T90 = tech_90nm_bulk()


# --- repeaterless / equalized ------------------------------------------------------------


@pytest.fixture(scope="module")
def bare_10mm():
    return RepeaterlessLink(T90, length=10 * MM)


def test_unequalized_long_wire_is_slow(bare_10mm):
    # tau ~ RC of 10 mm: eyes close well below 1 Gb/s.
    rate = bare_10mm.max_data_rate()
    assert 0.05e9 < rate < 1.0e9


def test_eye_height_monotone_in_rate(bare_10mm):
    eyes = [bare_10mm.eye_height(r) for r in (0.1e9, 0.3e9, 1.0e9)]
    assert eyes[0] > eyes[1] > eyes[2]
    assert eyes[0] > 0 > eyes[2]  # open slow, closed fast


def test_equalization_buys_rate_and_costs_energy():
    bare = RepeaterlessLink(T90, length=10 * MM)
    ffe = RepeaterlessLink(T90, length=10 * MM, taps=(1.4, -0.4))
    assert ffe.max_data_rate() > bare.max_data_rate()
    assert ffe.energy_per_bit() > bare.energy_per_bit()


def test_short_wire_is_fast():
    short = RepeaterlessLink(T90, length=1 * MM, r_drive=300.0)
    assert short.max_data_rate() > 2.0e9


@pytest.mark.parametrize("rate", [0.1e9, 0.3e9, 1.0e9, 3.0e9])
@pytest.mark.parametrize(
    "link_kwargs",
    [dict(length=10 * MM), dict(length=1 * MM, r_drive=300.0)],
)
def test_far_node_pulse_response_matches_full_response(rate, link_kwargs):
    """The cursors ask the solver for the far node alone; that column is
    bitwise the last column of the full-node pulse response."""
    link = RepeaterlessLink(T90, **link_kwargs)
    bit_period = 1.0 / rate
    times = np.linspace(0.0, 12 * bit_period, 2400)
    full = link.solver.pulse_response(times, bit_period, 1.0)[:, -1]
    far_node = link.solver.network.n_nodes - 1
    far = link.solver.pulse_response(times, bit_period, 1.0, [far_node])
    assert far.shape == (len(times), 1)
    assert np.array_equal(far[:, 0], full)


def test_eye_scales_with_drive_amplitude():
    a = RepeaterlessLink(T90, drive_amplitude=0.3)
    b = RepeaterlessLink(T90, drive_amplitude=0.6)
    assert b.eye_height(0.2e9) == pytest.approx(2 * a.eye_height(0.2e9), rel=1e-6)


def test_repeaterless_validation():
    with pytest.raises(ConfigurationError):
        RepeaterlessLink(T90, length=0.0)
    with pytest.raises(ConfigurationError):
        RepeaterlessLink(T90, taps=())
    with pytest.raises(ConfigurationError):
        RepeaterlessLink(T90, taps=(-1.0,))
    link = RepeaterlessLink(T90)
    with pytest.raises(ConfigurationError):
        link.eye_height(0.0)
    with pytest.raises(ConfigurationError):
        link.energy_per_bit(activity=0.0)


# --- diagnostics ---------------------------------------------------------------------------


def test_healthy_link_diagnoses_clean(robust_link):
    diagnosis = diagnose_link(robust_link)
    assert diagnosis.ok
    assert diagnosis.failing_stage is None
    assert all(s.tap_errors == 0 for s in diagnosis.stages)
    assert all(s.failure is StageFailure.NONE for s in diagnosis.stages)


def test_margins_positive_on_healthy_link(robust_link):
    margins = stage_margins(robust_link)
    assert len(margins) == 10
    assert all(m > 0 for m in margins)


def test_margin_profile_sorted(robust_link):
    profile = margin_profile(robust_link)
    values = [m for _, m in profile]
    assert values == sorted(values)


def test_fault_localization_on_failing_dies():
    tech = tech_45nm_soi()
    design = robust_design()
    localized = 0
    for seed in range(2013, 2150):
        sample = monte_carlo_sample(tech, seed)
        link = SRLRLink(design, sample)
        diagnosis = diagnose_link(link)
        if diagnosis.ok:
            continue
        assert diagnosis.failing_stage is not None
        failing = diagnosis.stages[diagnosis.failing_stage]
        assert failing.tap_errors > 0
        assert failing.failure is not StageFailure.NONE
        # Upstream taps carried the data cleanly.
        for s in diagnosis.stages[: diagnosis.failing_stage]:
            assert s.tap_errors == 0
        localized += 1
    assert localized >= 3  # the MC failure rate guarantees cases exist


def test_diagnose_validation(robust_link):
    with pytest.raises(ConfigurationError):
        diagnose_link(robust_link, bit_period=0.0)
