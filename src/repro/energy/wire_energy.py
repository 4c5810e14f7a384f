"""Wire dynamic-energy accounting and the energy-vs-density trade.

Low-swing signaling's energy advantage is the elementary relation the
paper builds on (Section I): charging a wire of capacitance C to a swing
Vs from a supply Vdd draws Q = C*Vs from the supply, costing E = C*Vs*Vdd
per event, versus C*Vdd^2 for full swing.

The second ingredient — the Table I footnote and the x-axis of Fig. 8 —
is that *bandwidth density* (Gb/s per um of die cross-section) is bought
with wire pitch: tighter pitch means more coupling capacitance per wire
and therefore more energy per bit.  This module exposes both relations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.technology import Technology
from repro.units import fj_per_bit_per_cm, gbps_per_um
from repro.wire.rc import WireGeometry, WireSegment


def low_swing_energy_per_bit(
    segment: WireSegment,
    vswing: float,
    vdd: float | None = None,
    activity: float = 0.5,
    miller_factor: float = 1.0,
) -> float:
    """Supply energy per bit of a low-swing wire, joules.

    ``activity`` is events per bit (0.5 for pulse-per-one signaling on
    random data); ``miller_factor`` scales the coupling component for the
    aggressor activity assumed (1.0: quiet or same-phase neighbors on
    average; 2.0: worst-case opposing transitions).  ``vswing=vdd``
    prices the bare wire at full swing; the repeated full-swing wire the
    router and link models use is :func:`repro.wire.full_swing_energy_per_bit`.
    """
    if not 0.0 <= activity <= 1.0:
        raise ConfigurationError(f"activity must lie in [0, 1], got {activity}")
    if vswing <= 0.0:
        raise ConfigurationError(f"vswing must be positive, got {vswing}")
    if miller_factor < 0.0:
        raise ConfigurationError(
            f"miller_factor must be non-negative, got {miller_factor}"
        )
    vdd = segment.tech.vdd if vdd is None else vdd
    c_ground = segment.c_ground_per_m * segment.length
    c_coupling = (
        segment.n_neighbors * segment.c_coupling_per_m * segment.length
    )
    c_eff = c_ground + miller_factor * c_coupling
    return activity * c_eff * vswing * vdd


@dataclass(frozen=True)
class DensityPoint:
    """One point of the energy-vs-bandwidth-density trade (Fig. 8 axes)."""

    pitch: float  # wire pitch, meters
    bandwidth_density: float  # Gb/s/um
    energy_fj_per_bit_per_cm: float


def energy_vs_density(
    tech: Technology,
    pitches: list[float],
    data_rate: float,
    vswing: float,
    length: float,
    wires_per_signal: int = 1,
    overhead_fj_per_bit_per_cm: float = 0.0,
    activity: float = 0.5,
) -> list[DensityPoint]:
    """Sweep wire pitch: the energy-vs-density curve of one signaling style.

    ``wires_per_signal`` is 2 for differential schemes (they pay double
    pitch for the same payload — the reason the single-ended SRLR wins
    density at equal energy, Section I); ``overhead_fj_per_bit_per_cm``
    adds the scheme's circuit overhead (sense amps, equalizers, repeaters)
    which does not scale with pitch.
    """
    if data_rate <= 0.0:
        raise ConfigurationError(f"data_rate must be positive, got {data_rate}")
    if wires_per_signal < 1:
        raise ConfigurationError(
            f"wires_per_signal must be >= 1, got {wires_per_signal}"
        )
    points: list[DensityPoint] = []
    for pitch in pitches:
        if pitch <= 0.0:
            raise ConfigurationError(f"pitch must be positive, got {pitch}")
        geometry = WireGeometry.from_pitch(pitch)
        segment = WireSegment(tech, geometry, length)
        e_wire = wires_per_signal * low_swing_energy_per_bit(
            segment, vswing, activity=activity
        )
        e_total = fj_per_bit_per_cm(e_wire, length) + overhead_fj_per_bit_per_cm
        density = gbps_per_um(data_rate, wires_per_signal * pitch)
        points.append(
            DensityPoint(
                pitch=pitch,
                bandwidth_density=density,
                energy_fj_per_bit_per_cm=e_total,
            )
        )
    return points


__all__ = [
    "DensityPoint",
    "energy_vs_density",
    "low_swing_energy_per_bit",
]
