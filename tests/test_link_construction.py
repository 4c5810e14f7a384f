"""Pins what building an SRLR link resolves, bit for bit.

A link's construction draws each die's device mismatch in a fixed order
and resolves every per-stage constant the transmission kernel reads.
Each case below builds links the way a campaign does and hashes, per
link: the kernel's per-stage constant rows, every stage's launch and
standby/threshold voltages, the PM launch, the per-stage internal
energies, the mismatch dict in draw order and the sample's RNG state
afterwards, plus one transmission and the nominal per-pulse energy
(which go through the attenuation-table lookup).  The digests were
recorded from the scalar, one-draw-at-a-time construction; a faster
construction must reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuit.bus import SRLRBus
from repro.circuit.link import SRLRLink, _stage_constants
from repro.mc.yield_analysis import design_variants
from repro.tech import fixed_corners, tech_45nm_soi
from repro.tech.variation import corner_sample, monte_carlo_sample, nominal_sample
from repro.units import UM

TECH = tech_45nm_soi()
PATTERN = [1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0]
BIT_PERIOD = 1.0 / 4.1e9


@pytest.fixture(scope="module")
def designs():
    variants = design_variants(TECH)
    return {
        "robust": variants["robust"],
        "straightforward": variants["straightforward"],
        # Inverter driver and fixed swing, but alternating delay cells.
        "alternating_only": variants["no_nmos_driver"],
    }


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def _update(h, link: SRLRLink) -> None:
    for row in _stage_constants(link):
        h.update(_hex(row).encode())
    for stage in link.stages:
        launch = stage.launch
        h.update(
            _hex(
                (
                    stage.v_standby,
                    stage.v_threshold,
                    stage.dv_trip,
                    launch.amplitude,
                    launch.r_up,
                    launch.r_down,
                )
            ).encode()
        )
    pm = link._pm_launch
    h.update(_hex((pm.amplitude, pm.r_up, pm.r_down)).encode())
    h.update(_hex(link._internal_energy).encode())
    result = link.transmit(PATTERN, BIT_PERIOD)
    h.update(repr((result.tap_bits, result.stuck)).encode())
    h.update(float(result.energy).hex().encode())
    h.update(_hex(link.energy_per_pulse().values()).encode())


def _sample_state(h, sample) -> None:
    cache = sample._local_cache
    h.update(repr(list(cache)).encode())
    h.update(_hex(cache.values()).encode())
    if sample.local_enabled:
        h.update(repr(sample.rng.bit_generator.state).encode())


def _fresh_dies(design, seeds) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        sample = monte_carlo_sample(TECH, seed)
        _update(h, SRLRLink(design, sample))
        _sample_state(h, sample)
    return h.hexdigest()


#: Recorded from the scalar construction (see the module docstring).
GOLDEN = {
    "fresh:robust": "51961ca48791a38db4d1f29ca38e532150a9168e34183c7b97b758057e177c28",
    "fresh:straightforward": "e4f97fdc447cebeb449ce136b8e300d7fd0eed73e1d6107a26d9e9a83d33ebbd",
    "fresh:alternating_only": "6b53a977a3a55ee61ad0dc16747f002e5bb24d291d4869d4800397ad1996a37b",
    "lanes:robust": "de781b854b9ea078b75f80d869495e6cd3cb0305aae8689c9c4e48dba2ecfdee",
    "lanes:straightforward": "dcf67fd4c6d3631529ef7dc63d09ff26290d9202330071903b2231ca7e8b38db",
    "bus:robust": "93fd1de2a131217837829d9a81a64aa70e29ff872100fb13deb64d1c83108f91",
    "prefix:robust": "bcc7d4f2d2988398d6a257944152d49ffa7539cc49cf5bdb663b2e84e839ee35",
    "used_sample:robust": "d5572a7503833c7ceeb495dd8a3cfa64c78d1759e7fd7754fb252603bf76c001",
    "used_sample:straightforward": "8c74dec38dd1c514bee0affdd21fa484f0ef961064dd50ef0266bf997aa2a58a",
    "reused_sample:robust": "98dd681da521a10d1a5218999d9a3d7d7d40efb910e705003be9c167fbc835ad",
    "no_local:robust": "d09d4391ea2ab6365ad584f9de26c73cfb14aaeba17ce2630b8e97c68053e696",
    "nominal": "9760f9166cb728c332af965642966e49c4cf5c7b7d26b250566729883bd63289",
    "corners": "083b31fa8791bcdfb5ec7a62041317cf4f24a82a2914e6beed800040886ea28f",
}


def _check(case: str, digest: str) -> None:
    assert digest == GOLDEN[case], case


@pytest.mark.parametrize("name", ["robust", "straightforward", "alternating_only"])
def test_fresh_dies(designs, name):
    # Twelve dies in a row: the first of a design and the ones after it.
    _check(f"fresh:{name}", _fresh_dies(designs[name], range(2013, 2025)))


@pytest.mark.parametrize("name", ["robust", "straightforward"])
def test_bus_lanes_share_one_sample(designs, name):
    h = hashlib.sha256()
    for seed in (2013, 2014, 2015):
        sample = monte_carlo_sample(TECH, seed)
        for lane in range(2):
            _update(h, SRLRLink(designs[name], sample, name_prefix=f"bit{lane}."))
        _sample_state(h, sample)
    _check(f"lanes:{name}", h.hexdigest())


def test_bus_of_two_lanes(designs):
    h = hashlib.sha256()
    for seed in (2013, 2014):
        sample = monte_carlo_sample(TECH, seed)
        bus = SRLRBus(designs["robust"], n_bits=2, sample=sample)
        for lane in bus.lanes:
            _update(h, lane)
        _sample_state(h, sample)
    _check("bus:robust", h.hexdigest())


def test_prefixed_link_on_fresh_samples(designs):
    h = hashlib.sha256()
    for seed in range(2013, 2017):
        sample = monte_carlo_sample(TECH, seed)
        _update(h, SRLRLink(designs["robust"], sample, name_prefix="lane7."))
        _sample_state(h, sample)
    _check("prefix:robust", h.hexdigest())


@pytest.mark.parametrize("name", ["robust", "straightforward"])
def test_sample_used_before_the_build(designs, name):
    h = hashlib.sha256()
    for seed in range(2013, 2017):
        sample = monte_carlo_sample(TECH, seed)
        sample.vth("probe.m0", "n", 1.0 * UM)
        _update(h, SRLRLink(designs[name], sample))
        _sample_state(h, sample)
    _check(f"used_sample:{name}", h.hexdigest())


def test_sample_reused_for_a_second_link(designs):
    h = hashlib.sha256()
    for seed in range(2013, 2017):
        sample = monte_carlo_sample(TECH, seed)
        _update(h, SRLRLink(designs["robust"], sample))
        _update(h, SRLRLink(designs["straightforward"], sample))
        _sample_state(h, sample)
    _check("reused_sample:robust", h.hexdigest())


def test_global_only_samples(designs):
    h = hashlib.sha256()
    for seed in range(2013, 2017):
        sample = monte_carlo_sample(TECH, seed, local_enabled=False)
        _update(h, SRLRLink(designs["robust"], sample))
        _sample_state(h, sample)
    _check("no_local:robust", h.hexdigest())


def test_nominal_links(designs):
    h = hashlib.sha256()
    for design in designs.values():
        sample = nominal_sample(TECH)
        _update(h, SRLRLink(design, sample))
        _update(h, SRLRLink(design))
        _sample_state(h, sample)
    _check("nominal", h.hexdigest())


def test_corner_links(designs):
    h = hashlib.sha256()
    for corner in fixed_corners(TECH).values():
        for design in designs.values():
            sample = corner_sample(TECH, corner)
            _update(h, SRLRLink(design, sample))
            _sample_state(h, sample)
    _check("corners", h.hexdigest())
