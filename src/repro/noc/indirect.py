"""Mesh vs indirect topologies under locality: the Section I argument.

The paper's case for meshes over Clos/butterflies: "meshes support the
locality present in many applications, allowing nearby traffic to be
transported at lower delay and energy", while indirect topologies turn
*all* traffic into cross-die global traversals over long equalized links.

This module makes that argument quantitative with analytic hop/energy
models: a mesh carrying locality-parameterized traffic on 1 mm SRLR hops
versus a folded-Clos whose every packet crosses two long global links
(priced with the equalized-interconnect energy of Table I's [26]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.energy.baselines import kim2010
from repro.energy.link_energy import srlr_link_energy
from repro.units import FJ


@dataclass(frozen=True)
class TopologyPoint:
    """Per-packet cost of one topology at one traffic locality."""

    topology: str
    locality: float
    avg_hops: float
    avg_wire_mm: float
    energy_per_bit: float  # joules, datapath wire energy per payload bit
    zero_load_latency_cycles: float


def mesh_average_hops(k: int, locality: float) -> float:
    """Average Manhattan distance under a locality mix.

    ``locality`` is the fraction of packets addressed to an immediate
    neighbor (1 hop); the remainder are uniform-random, whose k x k mesh
    average distance is 2(k - 1/k)/3... we use the standard 2k/3 form.
    """
    if not 0.0 <= locality <= 1.0:
        raise ConfigurationError(f"locality must lie in [0, 1], got {locality}")
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    uniform_avg = 2.0 * (k - 1.0 / k) / 3.0
    return locality * 1.0 + (1.0 - locality) * uniform_avg


def mesh_point(
    k: int,
    locality: float,
    hop_mm: float = 1.0,
    router_cycles: float = 3.0,
) -> TopologyPoint:
    """Mesh cost: hops of 1 mm SRLR wire plus per-hop router latency."""
    hops = mesh_average_hops(k, locality)
    srlr = srlr_link_energy()
    e_per_bit_mm = srlr.fj_per_bit_per_mm * FJ
    return TopologyPoint(
        topology="mesh (SRLR hops)",
        locality=locality,
        avg_hops=hops,
        avg_wire_mm=hops * hop_mm,
        energy_per_bit=hops * hop_mm * e_per_bit_mm,
        zero_load_latency_cycles=hops * (router_cycles + 1.0),
    )


def clos_point(
    k: int,
    locality: float,
    die_mm: float | None = None,
    router_cycles: float = 3.0,
) -> TopologyPoint:
    """Folded-Clos cost: every packet takes 2 global links to/from the
    middle stage (~half a die span each), regardless of locality.

    Global links are priced with the equalized transceiver of [26]
    (Table I): its published fJ/bit/cm covers driver + channel + receiver
    for the long repeaterless wires such topologies rely on.
    """
    if not 0.0 <= locality <= 1.0:
        raise ConfigurationError(f"locality must lie in [0, 1], got {locality}")
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    die_mm = float(k) if die_mm is None else die_mm  # 1 mm tiles
    link_mm = die_mm / 2.0
    eq = kim2010(high_rate=True)
    e_per_bit_mm = eq.energy_fj_per_bit_per_cm / 10.0 * FJ
    hops = 2.0  # ingress router -> middle stage -> egress router
    return TopologyPoint(
        topology="folded Clos (equalized links)",
        locality=locality,
        avg_hops=hops,
        avg_wire_mm=hops * link_mm,
        energy_per_bit=hops * link_mm * e_per_bit_mm,
        zero_load_latency_cycles=hops * (router_cycles + math.ceil(link_mm / 2.0)),
    )


def crossover_locality(k: int, tolerance: float = 1e-3) -> float:
    """The locality above which the mesh's energy beats the Clos's.

    Returns 0.0 when the mesh wins even for fully uniform traffic (the
    common outcome at mesh-scale dies: short hops are just cheaper), or
    1.0 if the Clos always wins.
    """
    lo, hi = 0.0, 1.0
    if mesh_point(k, 0.0).energy_per_bit <= clos_point(k, 0.0).energy_per_bit:
        return 0.0
    if mesh_point(k, 1.0).energy_per_bit > clos_point(k, 1.0).energy_per_bit:
        return 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mesh_point(k, mid).energy_per_bit <= clos_point(k, mid).energy_per_bit:
            hi = mid
        else:
            lo = mid
    return hi


__all__ = [
    "TopologyPoint",
    "clos_point",
    "crossover_locality",
    "mesh_average_hops",
    "mesh_point",
]
