"""Global corners and local mismatch."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tech import variation
from repro.tech import (
    GlobalCorner,
    VariationSample,
    corner_sample,
    fixed_corners,
    monte_carlo_sample,
    nominal_sample,
    sample_global,
    sigma_vth_local,
    tech_45nm_soi,
    typical,
)
from repro.tech.variation import planned_build
from repro.units import UM

TECH = tech_45nm_soi()


def test_typical_corner_is_neutral():
    tt = typical()
    assert tt.is_typical()
    assert tt.dvth_n == 0.0 and tt.dvth_p == 0.0


def test_fixed_corner_signs():
    corners = fixed_corners(TECH)
    assert corners["FF"].dvth_n < 0 and corners["FF"].dvth_p < 0
    assert corners["SS"].dvth_n > 0 and corners["SS"].dvth_p > 0
    assert corners["FS"].dvth_n < 0 < corners["FS"].dvth_p
    assert corners["SF"].dvth_p < 0 < corners["SF"].dvth_n
    assert corners["TT"].is_typical()


def test_fixed_corner_magnitude_is_three_sigma():
    corners = fixed_corners(TECH)
    assert corners["SS"].dvth_n == pytest.approx(3 * TECH.sigma_vth_global)


def test_corner_scaling():
    ss = fixed_corners(TECH)["SS"]
    half = ss.scaled(0.5)
    assert half.dvth_n == pytest.approx(0.5 * ss.dvth_n)


def test_global_sampling_statistics():
    rng = np.random.default_rng(0)
    draws = [sample_global(TECH, rng) for _ in range(4000)]
    dvn = np.array([d.dvth_n for d in draws])
    dvp = np.array([d.dvth_p for d in draws])
    assert abs(dvn.mean()) < 0.003
    assert dvn.std() == pytest.approx(TECH.sigma_vth_global, rel=0.1)
    rho = np.corrcoef(dvn, dvp)[0, 1]
    assert 0.2 < rho < 0.55  # rho_spec = 0.6 applied via common factor -> 0.36


def test_correlation_bounds_enforced():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        sample_global(TECH, rng, nmos_pmos_correlation=1.5)


def test_pelgrom_sigma_scales_with_area():
    s1 = sigma_vth_local(TECH, 1 * UM)
    s4 = sigma_vth_local(TECH, 4 * UM)
    assert s4 == pytest.approx(s1 / 2.0)


def test_pelgrom_length_parameter():
    s_min = sigma_vth_local(TECH, 1 * UM)
    s_long = sigma_vth_local(TECH, 1 * UM, length=4 * TECH.feature_size)
    assert s_long == pytest.approx(s_min / 2.0)


def test_nominal_sample_has_no_variation():
    sample = nominal_sample(TECH)
    assert sample.vth("devA", "n", 1 * UM) == pytest.approx(TECH.vth_n)
    assert sample.vth("devB", "p", 1 * UM) == pytest.approx(TECH.vth_p)


def test_corner_sample_applies_global_shift_only():
    sample = corner_sample(TECH, GlobalCorner("X", 0.03, -0.02))
    assert sample.vth("devA", "n", 1 * UM) == pytest.approx(TECH.vth_n + 0.03)
    assert sample.vth("devA", "p", 1 * UM) == pytest.approx(TECH.vth_p - 0.02)


def test_local_draws_are_memoized_per_device():
    sample = monte_carlo_sample(TECH, seed=42)
    a1 = sample.vth("stage0.m1", "n", 1 * UM)
    a2 = sample.vth("stage0.m1", "n", 1 * UM)
    b = sample.vth("stage1.m1", "n", 1 * UM)
    assert a1 == a2
    assert a1 != b


def test_monte_carlo_samples_reproducible():
    v1 = monte_carlo_sample(TECH, seed=7).vth("m1", "n", 1 * UM)
    v2 = monte_carlo_sample(TECH, seed=7).vth("m1", "n", 1 * UM)
    v3 = monte_carlo_sample(TECH, seed=8).vth("m1", "n", 1 * UM)
    assert v1 == v2
    assert v1 != v3


def test_invalid_polarity_rejected():
    sample = nominal_sample(TECH)
    with pytest.raises(ConfigurationError):
        sample.vth("dev", "z", 1 * UM)


@given(seed=st.integers(0, 2**31))
def test_local_shift_zero_when_disabled(seed):
    sample = monte_carlo_sample(TECH, seed=seed, local_enabled=False)
    assert sample.local_shift("any", 1 * UM) == 0.0


# --- draw plans (planned_build) ---------------------------------------------------

DEVICES = [("a.m1", 1.0 * UM), ("a.m2", 0.3 * UM), ("b.m1", 2.0 * UM), ("b.m2", 4.0 * UM)]


def _asking(devices, fail_at=None):
    """A build that asks a sample for ``devices`` in order."""

    def build(sample):
        shifts = []
        for i, (name, width) in enumerate(devices):
            if i == fail_at:
                raise ConfigurationError("build failed")
            shifts.append(sample.local_shift(name, width))
        return shifts

    return build


def _state(sample):
    return list(sample._local_cache.items()), sample.rng.bit_generator.state


def _planned(key, build, seed):
    sample = monte_carlo_sample(TECH, seed)
    return planned_build(sample, key, lambda: build(sample)), _state(sample)


def _scalar(build, seed):
    sample = monte_carlo_sample(TECH, seed)
    return build(sample), _state(sample)


@pytest.fixture
def fresh_plans(monkeypatch):
    monkeypatch.setattr(variation, "_PLANS", {})
    return variation._PLANS


def test_planned_draws_equal_scalar_draws(fresh_plans):
    build = _asking(DEVICES)
    for seed in range(5):
        assert _planned("k", build, seed) == _scalar(build, seed)
    names, sigmas = fresh_plans["k"]
    assert names == tuple(name for name, _ in DEVICES)
    assert sigmas.tolist() == [sigma_vth_local(TECH, w) for _, w in DEVICES]


@pytest.mark.parametrize(
    "later",
    [
        DEVICES[::-1],  # another order
        DEVICES[:2] + [("c.m1", 1.0 * UM)] + DEVICES[2:],  # one outside the plan
        DEVICES[:-1],  # a planned device never asked for
    ],
    ids=["reordered", "extra", "missing"],
)
def test_a_build_off_its_plan_falls_back_to_scalar_draws(fresh_plans, later):
    _planned("k", _asking(DEVICES), 0)
    for seed in range(1, 4):
        assert _planned("k", _asking(later), seed) == _scalar(_asking(later), seed)


def test_a_failing_planned_build_leaves_the_scalar_state(fresh_plans):
    _planned("k", _asking(DEVICES), 0)
    for seed in range(1, 4):
        failing = _asking(DEVICES, fail_at=2)
        planned = monte_carlo_sample(TECH, seed)
        with pytest.raises(ConfigurationError, match="build failed"):
            planned_build(planned, "k", lambda: failing(planned))
        scalar = monte_carlo_sample(TECH, seed)
        with pytest.raises(ConfigurationError, match="build failed"):
            failing(scalar)
        assert _state(planned) == _state(scalar)


def test_used_and_mismatch_free_samples_draw_scalar(fresh_plans):
    build = _asking(DEVICES)
    _planned("k", build, 0)
    used = monte_carlo_sample(TECH, 3)
    used.local_shift("probe", 1.0 * UM)
    reference = monte_carlo_sample(TECH, 3)
    reference.local_shift("probe", 1.0 * UM)
    assert planned_build(used, "k", lambda: build(used)) == build(reference)
    assert _state(used) == _state(reference)
    for sample in (nominal_sample(TECH), corner_sample(TECH, typical())):
        assert planned_build(sample, "k", lambda: build(sample)) == [0.0] * 4
        assert sample.rng is None and not sample._local_cache


def test_plan_memo_is_bounded(fresh_plans):
    for i in range(3 * variation._MAX_PLANS):
        _planned(("k", i), _asking(DEVICES), i)
    assert len(fresh_plans) == variation._MAX_PLANS
    assert ("k", 3 * variation._MAX_PLANS - 1) in fresh_plans


def test_a_sample_with_local_mismatch_needs_an_rng():
    with pytest.raises(ConfigurationError, match="needs an rng"):
        VariationSample(TECH, typical(), None)
