"""Energy models: wires, links, baselines, router."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.energy import (
    KIM2010_DRIVER_AREA,
    RouterConfig,
    RouterPowerModel,
    bias_overhead,
    datapath_share,
    full_swing_link_energy,
    kim2010,
    mensink2010,
    park2012,
    seo2010,
    srlr_link_energy,
    table1_designs,
    this_work,
)
from repro.tech import tech_45nm_soi
from repro.units import MW, UM

TECH = tech_45nm_soi()


# --- link energy ------------------------------------------------------------------------


def test_headline_energy_within_band():
    report = srlr_link_energy()
    assert report.fj_per_bit_per_mm == pytest.approx(40.4, rel=0.15)
    assert report.fj_per_bit_per_cm == pytest.approx(404, rel=0.15)
    assert report.power / MW == pytest.approx(1.66, rel=0.15)


def test_headline_bandwidth_density_exact():
    report = srlr_link_energy()
    assert report.bandwidth_density_gbps_per_um == pytest.approx(6.83, rel=1e-3)


def test_full_swing_link_much_worse():
    srlr = srlr_link_energy()
    fs = full_swing_link_energy()
    assert 2.0 < fs.fj_per_bit_per_mm / srlr.fj_per_bit_per_mm < 6.0


def test_wire_fraction_dominates():
    assert srlr_link_energy().wire_fraction > 0.5


def test_bias_overhead_near_paper_value():
    report = bias_overhead(n_bits=64)
    assert report.fraction == pytest.approx(0.006, abs=0.003)


def test_bias_overhead_shrinks_with_width():
    f1 = bias_overhead(n_bits=1).fraction
    f64 = bias_overhead(n_bits=64).fraction
    assert f1 > f64


def test_link_energy_validation():
    with pytest.raises(ConfigurationError):
        srlr_link_energy(data_rate=0.0)
    with pytest.raises(ConfigurationError):
        srlr_link_energy(activity=0.0)
    with pytest.raises(ConfigurationError):
        bias_overhead(n_bits=0)


# --- baselines --------------------------------------------------------------------------


def test_table1_published_points_exact():
    rows = {d.key: d for d in table1_designs()}
    assert rows["mensink2010"].energy_fj_per_bit_per_cm == 340.0
    assert rows["kim2010_6g"].energy_fj_per_bit_per_cm == 630.0
    assert rows["seo2010"].energy_fj_per_bit_per_cm == 680.0
    assert rows["park2012"].energy_fj_per_bit_per_cm == 561.0
    assert rows["this_work"].energy_fj_per_bit_per_cm == 404.0
    assert rows["this_work"].signaling == "single-ended"
    assert rows["park2012"].needs_extra_supply


def test_this_work_has_best_density_of_table():
    designs = table1_designs()
    ours = designs[-1]
    assert all(
        ours.bandwidth_density_gbps_per_um >= d.bandwidth_density_gbps_per_um
        for d in designs
    )


def test_baseline_curve_passes_through_published_point():
    d = seo2010()
    e = d.energy_at_density(d.bandwidth_density_gbps_per_um)
    assert e == pytest.approx(d.energy_fj_per_bit_per_cm, rel=1e-9)


def test_baseline_curve_monotone_in_density():
    d = mensink2010()
    curve = d.energy_curve(n_points=7)
    energies = [e for _, e in curve]
    assert energies == sorted(energies)


def test_wire_pitch_backout():
    d = kim2010(high_rate=True)  # 6 Gb/s at 3 Gb/s/um, differential
    assert d.signal_pitch == pytest.approx(2.0 * UM)
    assert d.wire_pitch == pytest.approx(1.0 * UM)


def test_kim_driver_area_cited():
    assert KIM2010_DRIVER_AREA == pytest.approx(1760e-12)


def test_this_work_accepts_measured_energy():
    measured = this_work(393.0)
    assert measured.energy_fj_per_bit_per_cm == 393.0


def test_baseline_validation():
    with pytest.raises(ConfigurationError):
        park2012().energy_at_density(0.0)


# --- router -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def router_model():
    return RouterPowerModel()


def test_router_power_split_near_paper(router_model):
    p = router_model.power_breakdown(1.0, "srlr")
    assert p.buffers / MW == pytest.approx(38.8, rel=0.1)
    assert p.control / MW == pytest.approx(5.2, rel=0.1)
    assert p.datapath / MW == pytest.approx(12.9, rel=0.1)


def test_router_power_scales_with_utilization(router_model):
    idle = router_model.power_breakdown(0.0)
    busy = router_model.power_breakdown(1.0)
    assert idle.total < busy.total
    assert idle.buffers > 0  # leakage remains
    assert idle.datapath == 0.0


def test_full_swing_datapath_costs_more(router_model):
    srlr = router_model.power_breakdown(1.0, "srlr")
    fs = router_model.power_breakdown(1.0, "full_swing")
    assert 2.0 < fs.datapath / srlr.datapath < 6.0
    assert fs.buffers == srlr.buffers  # only the datapath changes


def test_router_area_matches_paper(router_model):
    area = router_model.area_breakdown()
    assert area.datapath * 1e6 == pytest.approx(0.0613, rel=0.02)
    assert area.total * 1e6 == pytest.approx(0.34, rel=0.1)
    assert area.datapath_fraction == pytest.approx(0.18, abs=0.03)


def test_router_crosspoint_count():
    cfg = RouterConfig(tech=TECH)
    assert cfg.crosspoints == 20  # the paper's 64 x 20 SRLR count


def test_router_power_validation(router_model):
    with pytest.raises(ConfigurationError):
        router_model.power_breakdown(1.5)
    with pytest.raises(ConfigurationError):
        router_model.datapath_energy_per_flit("optical")
    with pytest.raises(ConfigurationError):
        RouterConfig(tech=TECH, n_ports=0)


def test_published_breakdown_shares():
    assert datapath_share("RAW") == pytest.approx(69.0)
    assert datapath_share("TRIPS") == pytest.approx(64.0)
    assert datapath_share("TeraFLOPS") == pytest.approx(32.0)
    with pytest.raises(ConfigurationError):
        datapath_share("EPYC")
