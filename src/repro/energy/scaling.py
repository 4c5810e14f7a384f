"""Supply-voltage scaling of the SRLR link.

The paper reports a single operating point, 0.8 V — already a scaled
supply for a 45 nm process.  This module asks the natural follow-up: how
do energy and achievable data rate move as Vdd scales?  The link is
re-solved at every supply (swing target, driver bias and wire transfer
all shift), giving the energy/performance frontier that motivates the
0.8 V choice: energy falls roughly with Vdd * Vswing while the maximum
rate degrades as device overdrives shrink.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.circuit.link import SRLRLink
from repro.circuit.prbs import PrbsGenerator, worst_case_patterns
from repro.circuit.srlr import DEFAULT_NOMINAL_SWING, robust_design
from repro.tech.technology import tech_45nm_soi
from repro.units import MM


@dataclass(frozen=True)
class VddPoint:
    """Link behavior at one supply voltage."""

    vdd: float
    ok_at_4g1: bool
    max_data_rate: float
    energy_fj_per_bit_per_mm: float
    swing: float

def sweep_vdd(
    vdds: list[float],
    swing_fraction: float | None = None,
    n_prbs: int = 96,
) -> list[VddPoint]:
    """Re-solve and measure the robust link across supply voltages.

    ``swing_fraction`` fixes the nominal far-end swing as a fraction of
    Vdd (default: the calibrated 0.8 V design's ratio), which is how a
    replica-biased scheme naturally scales.
    """
    if not vdds:
        raise ConfigurationError("vdds must not be empty")
    if swing_fraction is None:
        swing_fraction = DEFAULT_NOMINAL_SWING / 0.8
    if not 0.0 < swing_fraction < 1.0:
        raise ConfigurationError(
            f"swing_fraction must lie in (0, 1), got {swing_fraction}"
        )
    pattern = PrbsGenerator(7).bits(n_prbs) + worst_case_patterns()
    points: list[VddPoint] = []
    for vdd in vdds:
        if vdd <= 0.0:
            raise ConfigurationError(f"vdd must be positive, got {vdd}")
        tech = tech_45nm_soi(vdd=vdd)
        swing = swing_fraction * vdd
        try:
            design = robust_design(tech, nominal_swing=swing)
            link = SRLRLink(design)
        except ConfigurationError:
            points.append(
                VddPoint(
                    vdd=vdd,
                    ok_at_4g1=False,
                    max_data_rate=0.0,
                    energy_fj_per_bit_per_mm=float("inf"),
                    swing=swing,
                )
            )
            continue
        ok = link.transmit(pattern, 1.0 / 4.1e9).ok
        rate = link.max_data_rate(pattern)
        if rate <= 0.0:
            # A dead link's partial-propagation energy is meaningless.
            energy = float("inf")
        else:
            energy = (
                0.5
                * link.energy_per_pulse()["total"]
                / 1e-15
                / (design.n_stages * design.segment_length / MM)
            )
        points.append(
            VddPoint(
                vdd=vdd,
                ok_at_4g1=ok,
                max_data_rate=rate,
                energy_fj_per_bit_per_mm=energy,
                swing=swing,
            )
        )
    return points


__all__ = ["VddPoint", "sweep_vdd"]
