"""Golden-regression layer: pin the paper's headline reproductions.

These tests lock the *currently produced* numbers — the values published
in README.md / EXPERIMENTS.md — with explicit tolerances, so performance
work (the parallel runtime, future vectorization) cannot silently drift
the physics.  The tolerance policy (see ``docs/GOLDEN_TESTS.md``):

* **exact** (``rel=1e-12``) — deterministic analytic quantities (energy
  integrals, bandwidth density, bisection-found max rate) and seeded
  Monte Carlo aggregates.  Any change means the computation changed, and
  the golden value must be *consciously* re-pinned in the same commit.
* **paper band** — looser checks that the reproduction stays inside the
  tolerance stated against the paper's silicon numbers; these survive
  re-calibration, the exact pins do not.

If a deliberate physics change moves a golden number: update the pinned
constant here, re-run ``scripts/run_all_experiments.py`` (it rewrites
EXPERIMENTS.md and ``results/``), and say so in the commit message.  Never widen a tolerance to make CI pass.
"""

from __future__ import annotations

import pytest

from repro.circuit import SRLRLink, robust_design
from repro.energy import srlr_link_energy, table1_designs
from repro.mc import default_stress_pattern, design_variants, immunity_ratio, run_monte_carlo
from repro.units import GBPS, MW

EXACT = 1e-12

# --- pinned golden values (re-pin consciously; see module docstring) -------------------

GOLDEN_FJ_PER_BIT_PER_MM = 38.79802474074869
GOLDEN_FJ_PER_BIT_PER_CM = 387.9802474074869
GOLDEN_BW_DENSITY_GBPS_PER_UM = 6.833333333333333
GOLDEN_MAX_RATE_GBPS = 4.947265625
GOLDEN_LINK_POWER_MW = 1.5907190143706964

#: 120-die Monte Carlo at base_seed=2013 (the default stream): exact.
GOLDEN_MC_DIES = 120
GOLDEN_P_ERR_ROBUST = 0.15
GOLDEN_P_ERR_STRAIGHTFORWARD = 0.49166666666666664
GOLDEN_IMMUNITY_RATIO = 3.2777777777777777


@pytest.fixture(scope="module")
def energy_report():
    return srlr_link_energy()


# --- E5: headline link metrics ---------------------------------------------------------


def test_golden_link_energy_per_bit_per_mm(energy_report):
    assert energy_report.fj_per_bit_per_mm == pytest.approx(
        GOLDEN_FJ_PER_BIT_PER_MM, rel=EXACT
    )
    assert energy_report.fj_per_bit_per_cm == pytest.approx(
        GOLDEN_FJ_PER_BIT_PER_CM, rel=EXACT
    )


def test_golden_link_energy_in_paper_band(energy_report):
    # Paper silicon: 40.4 fJ/bit/mm.  The model is documented to sit
    # within 10% of it; drifting outside that band is a physics change.
    assert energy_report.fj_per_bit_per_mm == pytest.approx(40.4, rel=0.10)


def test_golden_bandwidth_density(energy_report):
    assert energy_report.bandwidth_density_gbps_per_um == pytest.approx(
        GOLDEN_BW_DENSITY_GBPS_PER_UM, rel=EXACT
    )
    # Paper: 6.83 Gb/s/um (the pitch calibration anchor — near-exact).
    assert energy_report.bandwidth_density_gbps_per_um == pytest.approx(6.83, rel=0.01)


def test_golden_link_power(energy_report):
    assert energy_report.power / MW == pytest.approx(GOLDEN_LINK_POWER_MW, rel=EXACT)
    assert energy_report.power / MW == pytest.approx(1.66, rel=0.10)  # paper band


def test_golden_max_data_rate(robust_link):
    rate = robust_link.max_data_rate(default_stress_pattern())
    assert rate / GBPS == pytest.approx(GOLDEN_MAX_RATE_GBPS, rel=EXACT)
    # Documented band: at least the paper's 4.1 Gb/s, at most ~25% over
    # (the model's known calibration slack, see EXPERIMENTS.md).
    assert 4.1 <= rate / GBPS <= 4.1 * 1.25


# --- E4/E12: Monte Carlo immunity ------------------------------------------------------


@pytest.fixture(scope="module")
def golden_mc():
    variants = design_variants()
    return (
        run_monte_carlo(variants["robust"], n_runs=GOLDEN_MC_DIES),
        run_monte_carlo(variants["straightforward"], n_runs=GOLDEN_MC_DIES),
    )


def test_golden_mc_error_probabilities(golden_mc):
    robust, straightforward = golden_mc
    assert robust.error_probability == pytest.approx(GOLDEN_P_ERR_ROBUST, rel=EXACT)
    assert straightforward.error_probability == pytest.approx(
        GOLDEN_P_ERR_STRAIGHTFORWARD, rel=EXACT
    )


def test_golden_immunity_ratio(golden_mc):
    robust, straightforward = golden_mc
    ratio = immunity_ratio(straightforward, robust)
    assert float(ratio) == pytest.approx(GOLDEN_IMMUNITY_RATIO, rel=EXACT)
    assert not ratio.is_lower_bound
    # Paper band: "~3.7x"; the reproduction is documented at 3.3-3.5x
    # depending on die count.  Stay within the qualitative claim.
    assert 2.0 <= float(ratio) <= 8.0


def test_golden_mc_parallel_path_hits_same_goldens(golden_mc):
    # The golden values are n_jobs-independent by construction; pin it.
    variants = design_variants()
    parallel = run_monte_carlo(variants["robust"], n_runs=GOLDEN_MC_DIES, n_jobs=2)
    assert parallel.error_probability == pytest.approx(GOLDEN_P_ERR_ROBUST, rel=EXACT)
    assert parallel.runs == golden_mc[0].runs


# --- E6/E7: Fig. 8 placement and Table I ordering --------------------------------------


def test_golden_table1_ordering(energy_report):
    designs = table1_designs()
    ours_density = energy_report.bandwidth_density_gbps_per_um
    ours_energy = energy_report.fj_per_bit_per_cm
    others = [d for d in designs if d.key != "this_work"]
    # Fig. 8 minima: this work holds the highest bandwidth density
    # outright, and the lowest energy among the >4 Gb/s/um designs.
    assert all(ours_density > d.bandwidth_density_gbps_per_um for d in others)
    assert all(
        ours_energy < d.energy_fj_per_bit_per_cm
        for d in others
        if d.bandwidth_density_gbps_per_um > 4.0
    )
    # Pareto frontier membership: nobody dominates this work.
    assert not any(
        d.bandwidth_density_gbps_per_um >= ours_density
        and d.energy_fj_per_bit_per_cm <= ours_energy
        for d in others
    )


def test_golden_table1_published_rows_untouched():
    # The published competitor rows are constants from the paper's
    # Table I; any edit to them is a data error, not a model change.
    expected = {
        "mensink2010": (1.163, 340.0),
        "kim2010_4g": (2.0, 370.0),
        "kim2010_6g": (3.0, 630.0),
        "seo2010": (4.375, 680.0),
        "park2012": (6.0, 561.0),
        "this_work": (6.83, 404.0),
    }
    designs = {d.key: d for d in table1_designs()}
    assert set(designs) == set(expected)
    for key, (density, energy) in expected.items():
        assert designs[key].bandwidth_density_gbps_per_um == pytest.approx(
            density, rel=1e-9
        )
        assert designs[key].energy_fj_per_bit_per_cm == pytest.approx(energy, rel=1e-9)
