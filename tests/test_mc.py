"""Monte Carlo engine, yield analysis, and BER machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mc import (
    ber_upper_bound,
    ber_upper_bound_many,
    default_stress_pattern,
    design_variants,
    immunity_ratio,
    measure_ber,
    q_factor_ber,
    run_monte_carlo,
    sweep_swing,
)
from repro.mc.engine import McResult, McRun


def _fake_result(n_fail: int, n_total: int, design=None) -> McResult:
    runs = [
        McRun(seed=i, ok=(i >= n_fail), n_errors=0, stuck=False, dvth_n=0, dvth_p=0)
        for i in range(n_total)
    ]
    return McResult(design=design, runs=runs)


# --- engine ----------------------------------------------------------------------------


def test_stress_pattern_contents():
    pattern = default_stress_pattern()
    assert set(pattern) <= {0, 1}
    assert "11110" in "".join(map(str, pattern))


def test_monte_carlo_reproducible(robust):
    a = run_monte_carlo(robust, n_runs=20, base_seed=100)
    b = run_monte_carlo(robust, n_runs=20, base_seed=100)
    assert [r.ok for r in a.runs] == [r.ok for r in b.runs]
    assert a.error_probability == b.error_probability


def test_monte_carlo_failures_reproducible_by_seed(robust):
    from repro.circuit import SRLRLink
    from repro.tech import monte_carlo_sample

    result = run_monte_carlo(robust, n_runs=60, base_seed=2013)
    pattern = default_stress_pattern()
    for seed in result.failure_seeds()[:2]:
        sample = monte_carlo_sample(robust.tech, seed)
        outcome = SRLRLink(robust, sample).transmit(pattern, 1.0 / 4.1e9)
        assert not outcome.ok


def test_global_only_mode_runs(robust):
    result = run_monte_carlo(robust, n_runs=10, local_enabled=False)
    assert result.n_runs == 10


def test_immunity_ratio_math():
    assert immunity_ratio(_fake_result(20, 100), _fake_result(5, 100)) == pytest.approx(4.0)
    assert immunity_ratio(_fake_result(0, 100), _fake_result(0, 100)) == 1.0
    assert immunity_ratio(_fake_result(0, 100), _fake_result(5, 100)) == 0.0
    # Zero contender failures: lower-bound via half a pseudo-count.
    assert immunity_ratio(_fake_result(10, 100), _fake_result(0, 100)) == pytest.approx(20.0)


def test_immunity_ratio_reports_lower_bound():
    # Contender never failed: the ratio is only a lower bound and must
    # say so, not silently substitute the pseudo-failure.
    bounded = immunity_ratio(_fake_result(10, 100), _fake_result(0, 100))
    assert bounded.is_lower_bound
    assert bounded.pseudo_failure_probability == pytest.approx(1.0 / 200)
    assert "lower bound" in bounded.describe()
    assert ">=" in bounded.describe()


def test_immunity_ratio_exact_cases_are_not_bounds():
    for reference, contender in [(20, 5), (0, 0), (0, 5)]:
        ratio = immunity_ratio(_fake_result(reference, 100), _fake_result(contender, 100))
        assert not ratio.is_lower_bound
        assert ratio.pseudo_failure_probability is None
        assert "=" in ratio.describe() and ">=" not in ratio.describe()


def test_immunity_ratio_behaves_as_float():
    import pickle

    ratio = immunity_ratio(_fake_result(10, 100), _fake_result(0, 100))
    assert isinstance(ratio, float)
    assert f"{ratio:.2f}" == "20.00"
    assert ratio * 2 == 40.0
    restored = pickle.loads(pickle.dumps(ratio))
    assert restored == ratio
    assert restored.is_lower_bound == ratio.is_lower_bound
    assert restored.pseudo_failure_probability == ratio.pseudo_failure_probability


def test_run_monte_carlo_validation(robust):
    with pytest.raises(ConfigurationError):
        run_monte_carlo(robust, n_runs=0)
    with pytest.raises(ConfigurationError):
        run_monte_carlo(robust, bit_period=0.0)


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"base_seed": 1.5}, "base_seed"),
        ({"pattern": []}, "pattern"),
        ({"bit_period": float("nan")}, "bit_period"),
    ],
)
def test_run_monte_carlo_refuses_bad_values_at_call(robust, bad, field):
    """Refused by name before any die runs (1.5 once reached numpy, an
    empty pattern reported probability 0 and NaN failed every die)."""
    with pytest.raises(ConfigurationError, match=field):
        run_monte_carlo(robust, n_runs=2, **bad)


# --- yield analysis ---------------------------------------------------------------------


def test_design_variants_cover_all_techniques():
    variants = design_variants()
    assert set(variants) == {
        "robust",
        "straightforward",
        "no_alternating",
        "no_adaptive",
        "no_nmos_driver",
    }
    from repro.circuit import InverterDriver, NMOSDriver
    from repro.circuit.bias import AdaptiveSwingReference, FixedSwingReference

    assert isinstance(variants["robust"].driver, NMOSDriver)
    assert isinstance(variants["robust"].swing_reference, AdaptiveSwingReference)
    assert isinstance(variants["straightforward"].driver, InverterDriver)
    assert isinstance(variants["no_adaptive"].swing_reference, FixedSwingReference)
    assert len(variants["no_alternating"].delay_plan.cells) == 1


def test_default_design_variants_share_one_swing():
    # Every variant, the fixed-Vref ablation included, is built for the
    # default swing when none is given: the ablation compares designs
    # that deliver the same nominal amplitude.
    from repro.circuit.srlr import DEFAULT_NOMINAL_SWING

    assert design_variants() == design_variants(nominal_swing=DEFAULT_NOMINAL_SWING)


def test_sweep_swing_shape_and_monotonicity():
    sweep = sweep_swing([0.27, 0.33], n_runs=60)
    assert sweep.swings == [0.27, 0.33]
    assert set(sweep.variants()) == {"robust", "straightforward"}
    # Higher swing cannot be less reliable (paired seeds).
    assert sweep.series("robust")[1] <= sweep.series("robust")[0]


def test_sweep_swing_validation():
    with pytest.raises(ConfigurationError):
        sweep_swing([])
    with pytest.raises(ConfigurationError):
        sweep_swing([0.3], variants=["nope"], n_runs=1)


# --- BER --------------------------------------------------------------------------------


def test_ber_upper_bound_zero_errors_rule():
    # ~3/n at 95% for zero errors.
    assert ber_upper_bound(0, 1000) == pytest.approx(3.0 / 1000, rel=0.05)


def test_ber_upper_bound_monotone_in_errors():
    b0 = ber_upper_bound(0, 1000)
    b1 = ber_upper_bound(1, 1000)
    b5 = ber_upper_bound(5, 1000)
    assert b0 < b1 < b5


def test_ber_upper_bound_validation():
    with pytest.raises(ConfigurationError):
        ber_upper_bound(0, 0)
    with pytest.raises(ConfigurationError):
        ber_upper_bound(5, 3)
    with pytest.raises(ConfigurationError):
        ber_upper_bound(0, 10, confidence=1.5)
    assert ber_upper_bound(10, 10) == 1.0


def test_ber_bounds_equal_the_beta_quantile_bitwise():
    # Oracle: the Clopper-Pearson bound is the confidence quantile of
    # Beta(k + 1, n - k), which scipy.stats computes as beta.ppf.  Both
    # bounds must return its doubles exactly, at k = 0, k = n - 1,
    # n up to 2**53 - 1, and 1.0 where k = n.
    from scipy import stats

    rng = np.random.default_rng(33)
    n_small = rng.integers(1, 10_000, size=300)
    k_small = (rng.random(300) * n_small).astype(np.int64)
    edges = [
        (e, t)
        for t in (1, 2, 3, 64, 10**6, 2**31, 10**12, 2**53 - 2, 2**53 - 1)
        for e in sorted({0, min(1, t - 1), t // 3, max(t - 2, 0), t - 1})
    ]
    k = np.concatenate([k_small, [e for e, _ in edges]]).astype(np.int64)
    n = np.concatenate([n_small, [t for _, t in edges]]).astype(np.int64)
    saturated = [(n, n) for n in (1, 7, 2**53 - 1)]
    for confidence in (0.5, 0.9, 0.95, 0.99, 0.999999):
        expected = stats.beta.ppf(confidence, k + 1, n - k)
        got = ber_upper_bound_many(k, n, confidence)
        assert np.array_equal(got, expected)
        for i in range(0, k.size, 7):
            assert ber_upper_bound(int(k[i]), int(n[i]), confidence) == expected[i]
        for ks, ns in saturated:
            assert ber_upper_bound(ks, ns, confidence) == 1.0
            assert ber_upper_bound_many([ks, 0], [ns, ns], confidence)[0] == 1.0


def test_measure_ber_clean_link(robust_link):
    m = measure_ber(robust_link, 1.0 / 4.1e9, n_bits=4000, noise_sigma=0.003)
    assert m.errors == 0
    assert m.meets(1e-2)
    assert not m.meets(1e-9)  # not enough bits to *prove* 1e-9


def test_measure_ber_noisy_link(robust_link):
    m = measure_ber(robust_link, 1.0 / 4.1e9, n_bits=3000, noise_sigma=0.12)
    assert m.errors > 0
    assert m.observed_ber > 0


def test_q_factor_values():
    assert q_factor_ber(0.0, 0.01) == pytest.approx(0.5)
    # Q = 6 -> ~1e-9: the textbook operating point for BER 1e-9 claims.
    assert q_factor_ber(0.06, 0.01) == pytest.approx(1e-9, rel=0.5)
    with pytest.raises(ConfigurationError):
        q_factor_ber(0.05, 0.0)
