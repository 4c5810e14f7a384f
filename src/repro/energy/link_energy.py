"""Full SRLR link energy: the paper's headline operating point.

Combines the circuit-level per-pulse energy (exact supply-charge integral
through the wire plus repeater internals) with the system-level accounting
the paper reports:

* 40.4 fJ/bit/mm (404 fJ/bit/cm) at 4.1 Gb/s and 0.8 V -> 1.66 mW for the
  1-bit 10 mm link;
* 6.83 Gb/s/um bandwidth density at the 0.6 um wire pitch;
* the 587 uW adaptive-swing bias generator amortized over a 64-bit link
  (0.6% of link power).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.circuit.bias import BIAS_GENERATOR_POWER
from repro.circuit.link import SRLRLink
from repro.circuit.srlr import SRLRDesignParams, robust_design
from repro.tech.variation import VariationSample
from repro.units import fj_per_bit_per_cm, fj_per_bit_per_mm, gbps_per_um
from repro.wire.elmore import full_swing_energy_per_bit as repeated_full_swing_energy
from repro.wire.rc import reference_segment


@dataclass(frozen=True)
class LinkEnergyReport:
    """Energy/bandwidth summary of one link at one operating point."""

    data_rate: float  # b/s
    activity: float  # pulses per bit
    energy_per_bit: float  # joules
    fj_per_bit_per_mm: float
    fj_per_bit_per_cm: float
    power: float  # watts, one wire at data_rate
    bandwidth_density_gbps_per_um: float
    wire_fraction: float  # share of energy spent charging wires


def srlr_link_energy(
    design: SRLRDesignParams | None = None,
    data_rate: float = 4.1e9,
    activity: float = 0.5,
    sample: VariationSample | None = None,
) -> LinkEnergyReport:
    """Measure the SRLR link's energy at an operating point.

    ``activity`` converts per-pulse to per-bit energy: the PM launches one
    pulse per '1', so random data costs half a pulse per bit — the same
    accounting behind the paper's measured 1.66 mW / 4.1 Gb/s = 404 fJ/bit.
    """
    if data_rate <= 0.0:
        raise ConfigurationError(f"data_rate must be positive, got {data_rate}")
    if not 0.0 < activity <= 1.0:
        raise ConfigurationError(f"activity must lie in (0, 1], got {activity}")
    design = design or robust_design()
    link = SRLRLink(design, sample) if sample is not None else SRLRLink(design)
    breakdown = link.energy_per_pulse()
    energy_per_bit = activity * breakdown["total"]
    length = design.total_length
    return LinkEnergyReport(
        data_rate=data_rate,
        activity=activity,
        energy_per_bit=energy_per_bit,
        fj_per_bit_per_mm=fj_per_bit_per_mm(energy_per_bit, length),
        fj_per_bit_per_cm=fj_per_bit_per_cm(energy_per_bit, length),
        power=energy_per_bit * data_rate,
        bandwidth_density_gbps_per_um=gbps_per_um(
            data_rate, design.geometry.pitch
        ),
        wire_fraction=breakdown["wire"] / breakdown["total"],
    )


def full_swing_link_energy(
    design: SRLRDesignParams | None = None,
    data_rate: float = 4.1e9,
    activity: float = 0.5,
) -> LinkEnergyReport:
    """The conventional alternative: optimally repeated full-swing wire.

    Same wire, same length, classic delay-optimal repeater insertion,
    full-rail NRZ signaling.  This is the "what low-swing saves" baseline
    of Section I.
    """
    design = design or robust_design()
    tech = design.tech
    segment = reference_segment(tech, design.total_length)
    energy_per_bit = repeated_full_swing_energy(segment, tech, activity=activity)
    length = design.total_length
    return LinkEnergyReport(
        data_rate=data_rate,
        activity=activity,
        energy_per_bit=energy_per_bit,
        fj_per_bit_per_mm=fj_per_bit_per_mm(energy_per_bit, length),
        fj_per_bit_per_cm=fj_per_bit_per_cm(energy_per_bit, length),
        power=energy_per_bit * data_rate,
        bandwidth_density_gbps_per_um=gbps_per_um(
            data_rate, design.geometry.pitch
        ),
        wire_fraction=1.0,
    )


@dataclass(frozen=True)
class BiasOverheadReport:
    """Bias generator power relative to a parallel SRLR link (Section IV)."""

    bias_power: float
    link_power: float
    n_bits: int
    fraction: float


def bias_overhead(
    n_bits: int = 64,
    design: SRLRDesignParams | None = None,
    data_rate: float = 4.1e9,
    activity: float = 0.5,
) -> BiasOverheadReport:
    """Amortize the 587 uW bias generator over an ``n_bits``-wide link.

    The paper: "When considering a 64bit 10mm link implementation, the
    bias circuit dissipates just 0.6% of total link power."
    """
    if n_bits < 1:
        raise ConfigurationError(f"n_bits must be >= 1, got {n_bits}")
    report = srlr_link_energy(design, data_rate, activity)
    link_power = n_bits * report.power
    return BiasOverheadReport(
        bias_power=BIAS_GENERATOR_POWER,
        link_power=link_power,
        n_bits=n_bits,
        fraction=BIAS_GENERATOR_POWER / (BIAS_GENERATOR_POWER + link_power),
    )


__all__ = [
    "BiasOverheadReport",
    "LinkEnergyReport",
    "bias_overhead",
    "full_swing_link_energy",
    "srlr_link_energy",
]
