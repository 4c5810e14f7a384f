"""Extension subsystems: thermal, chip power, topologies, serialization."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.circuit import (
    SRLRLink,
    max_feasible_ratio,
    robust_design,
    serialization_sweep,
)
from repro.energy import chip_noc_power, compare_chip
from repro.noc import (
    clos_point,
    crossover_locality,
    mesh_average_hops,
    mesh_point,
)
from repro.tech import T_REF, at_temperature, celsius, tech_45nm_soi

TECH = tech_45nm_soi()


# --- thermal ----------------------------------------------------------------------------


def test_temperature_identity_at_reference():
    same = at_temperature(TECH, T_REF)
    assert same.vth_n == pytest.approx(TECH.vth_n)
    assert same.k_drive == pytest.approx(TECH.k_drive)


def test_temperature_physics_directions():
    hot = at_temperature(TECH, celsius(110))
    cold = at_temperature(TECH, celsius(-25))
    assert hot.vth_n < TECH.vth_n < cold.vth_n  # Vth falls with T
    assert hot.k_drive < TECH.k_drive < cold.k_drive  # mobility falls with T
    assert hot.subthreshold_slope_n > TECH.subthreshold_slope_n


def test_celsius_conversion():
    assert celsius(26.85) == pytest.approx(300.0)


def test_temperature_validation():
    with pytest.raises(ConfigurationError):
        at_temperature(TECH, 0.0)


def test_room_temperature_link_unchanged(stress_pattern):
    link = SRLRLink(robust_design(at_temperature(TECH, T_REF)))
    assert link.transmit(stress_pattern, 1.0 / 4.1e9).ok


# --- chip power ------------------------------------------------------------------------


def test_chip_power_scales_with_mesh_size():
    small = chip_noc_power(4, 0.3)
    large = chip_noc_power(8, 0.3)
    assert large.total > small.total
    assert large.total / small.total == pytest.approx(4.0, rel=0.25)


def test_chip_srlr_beats_full_swing():
    cmp = compare_chip(8, 0.3)
    assert cmp.saving_w > 0
    assert cmp.srlr.datapath < cmp.full_swing.datapath
    # Buffers/control are identical between the two datapaths.
    assert cmp.srlr.buffers == pytest.approx(cmp.full_swing.buffers)
    assert cmp.srlr.bias > 0 and cmp.full_swing.bias == 0


def test_chip_validation():
    with pytest.raises(ConfigurationError):
        chip_noc_power(1)


# --- mesh vs indirect -------------------------------------------------------------------


def test_mesh_hops_interpolate_with_locality():
    full_local = mesh_average_hops(8, 1.0)
    uniform = mesh_average_hops(8, 0.0)
    mixed = mesh_average_hops(8, 0.5)
    assert full_local == pytest.approx(1.0)
    assert uniform == pytest.approx(2 * (8 - 1 / 8) / 3)
    assert full_local < mixed < uniform


def test_clos_cost_is_locality_independent():
    a = clos_point(8, 0.0)
    b = clos_point(8, 0.9)
    assert a.energy_per_bit == pytest.approx(b.energy_per_bit)
    assert a.avg_hops == 2.0


def test_mesh_advantage_grows_with_locality():
    ratios = [
        clos_point(8, a).energy_per_bit / mesh_point(8, a).energy_per_bit
        for a in (0.0, 0.5, 0.9)
    ]
    assert ratios == sorted(ratios)
    assert ratios[0] > 1.0  # mesh wins even with uniform traffic


def test_crossover_at_zero_for_mesh_scale_dies():
    assert crossover_locality(8) == 0.0


def test_indirect_validation():
    with pytest.raises(ConfigurationError):
        mesh_point(8, 1.5)
    with pytest.raises(ConfigurationError):
        clos_point(1, 0.5)


# --- serialization ----------------------------------------------------------------------


def test_serialization_ratio_one_is_parallel_datapath():
    point = serialization_sweep([1])[0]
    assert point.feasible
    assert point.n_wires == 64
    assert point.serialization_latency_s == 0.0


def test_serialization_energy_and_area_trade():
    points = serialization_sweep([1, 2, 4])
    assert points[1].energy_per_flit > points[0].energy_per_flit  # SER/DES cost
    areas = [p.repeater_area for p in points]
    assert areas == sorted(areas, reverse=True)  # fewer wires, less repeater area
    assert all(p.feasible for p in points)


def test_serialization_infeasible_beyond_link_speed():
    point = serialization_sweep([16])[0]  # 16 Gb/s per wire: far too fast
    assert not point.feasible


def test_max_feasible_ratio_matches_headline_band():
    # One SRLR wire carries ~4-5 Gb/s; at a 1 GHz flit clock that is 4:1.
    assert max_feasible_ratio() == 4


def test_serialization_validation():
    with pytest.raises(ConfigurationError):
        serialization_sweep([])
    with pytest.raises(ConfigurationError):
        serialization_sweep([3])  # does not divide 64
    with pytest.raises(ConfigurationError):
        serialization_sweep([1], flit_rate=0.0)
