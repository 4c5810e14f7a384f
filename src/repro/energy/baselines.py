"""Prior-work on-chip interconnects: the Table I / Fig. 8 comparators.

Table I of the paper compares the SRLR link against four silicon-proven
designs.  Each is represented here by

* its **published point** (data rate, bandwidth density, 10 mm link
  traversal energy) exactly as Table I lists it, and
* a **parametric energy-vs-density curve** through that point, built from
  the shared wire physics: at a fixed data rate, higher bandwidth density
  means tighter wire pitch, which raises coupling capacitance per wire and
  with it the energy per bit (the Table I footnote).  Differential schemes
  pay twice the pitch per signal, which is why the single-ended SRLR sits
  farther right at equal energy.

The curves are anchored at the published points; the pitch-independent
part of each design's energy (sense amplifiers, equalizer taps, clocking)
is held constant along the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.technology import Technology, tech_45nm_soi, tech_90nm_bulk
from repro.units import GBPS, UM
from repro.wire.rc import WireGeometry, WireSegment


@dataclass(frozen=True)
class InterconnectDesign:
    """One silicon-proven on-chip interconnect (a row of Table I).

    ``overhead_fraction`` is the share of the published energy that does
    not scale with wire pitch (receiver/equalizer/clocking circuitry); the
    remainder is wire charging and is rescaled with capacitance when the
    pitch is swept.  These fractions are modeling estimates (documented in
    DESIGN.md) — the published points themselves are exact.
    """

    key: str
    citation: str
    signaling: str  # "fully differential" | "single-ended"
    tech: Technology
    data_rate: float
    bandwidth_density_gbps_per_um: float
    energy_fj_per_bit_per_cm: float
    n_repeaters: int
    repeater_note: str
    wires_per_signal: int
    overhead_fraction: float
    needs_extra_supply: bool = False
    activity: float = 0.5

    def __post_init__(self) -> None:
        if self.wires_per_signal < 1:
            raise ConfigurationError("wires_per_signal must be >= 1")
        if not 0.0 <= self.overhead_fraction < 1.0:
            raise ConfigurationError("overhead_fraction must lie in [0, 1)")

    # --- geometry back-out ---------------------------------------------------------

    @property
    def signal_pitch(self) -> float:
        """Total die cross-section per signal, from the published density."""
        return (self.data_rate / GBPS) / self.bandwidth_density_gbps_per_um * UM

    @property
    def wire_pitch(self) -> float:
        """Per-wire pitch (differential designs split the signal pitch)."""
        return self.signal_pitch / self.wires_per_signal

    # --- Fig. 8 curve ----------------------------------------------------------------

    def _wire_cap_per_m(self, pitch: float) -> float:
        geometry = WireGeometry.from_pitch(pitch)
        segment = WireSegment(self.tech, geometry, 1e-3)
        return segment.c_total_per_m

    def energy_at_density(self, density_gbps_per_um: float) -> float:
        """Energy (fJ/bit/cm) at another bandwidth density, rate held fixed.

        The wire-charging part of the published energy is rescaled by the
        capacitance ratio between the implied pitch and the published
        pitch; the overhead part is constant.
        """
        if density_gbps_per_um <= 0.0:
            raise ConfigurationError(
                f"density must be positive, got {density_gbps_per_um}"
            )
        pitch = (
            (self.data_rate / GBPS)
            / density_gbps_per_um
            * UM
            / self.wires_per_signal
        )
        c_ratio = self._wire_cap_per_m(pitch) / self._wire_cap_per_m(self.wire_pitch)
        e_pub = self.energy_fj_per_bit_per_cm
        e_overhead = self.overhead_fraction * e_pub
        e_wire = (1.0 - self.overhead_fraction) * e_pub
        return e_overhead + e_wire * c_ratio

    def energy_curve(
        self, density_span: tuple[float, float] = (0.6, 1.6), n_points: int = 9
    ) -> list[tuple[float, float]]:
        """(density, energy) samples around the published point."""
        lo = self.bandwidth_density_gbps_per_um * density_span[0]
        hi = self.bandwidth_density_gbps_per_um * density_span[1]
        if n_points < 2:
            raise ConfigurationError(f"n_points must be >= 2, got {n_points}")
        step = (hi - lo) / (n_points - 1)
        return [
            (lo + i * step, self.energy_at_density(lo + i * step))
            for i in range(n_points)
        ]


def mensink2010() -> InterconnectDesign:
    """[25] Mensink et al., JSSC 2010: capacitively-driven repeaterless link."""
    return InterconnectDesign(
        key="mensink2010",
        citation="[25] Mensink JSSC'10",
        signaling="fully differential",
        tech=tech_90nm_bulk(1.2),
        data_rate=2.0e9,
        bandwidth_density_gbps_per_um=1.163,
        energy_fj_per_bit_per_cm=340.0,
        n_repeaters=0,
        repeater_note="repeaterless",
        wires_per_signal=2,
        overhead_fraction=0.35,
    )


def kim2010(high_rate: bool = True) -> InterconnectDesign:
    """[26] Kim & Stojanovic, JSSC 2010: equalized transceiver.

    Table I lists two operating points; ``high_rate`` selects 6 Gb/s /
    3 Gb/s/um / 630 fJ/bit/cm, otherwise 4 Gb/s / 2 Gb/s/um / 370.
    The intro also cites this design's 1760 um^2 10 mm 1-bit driver area.
    """
    if high_rate:
        rate, density, energy = 6.0e9, 3.0, 630.0
    else:
        rate, density, energy = 4.0e9, 2.0, 370.0
    return InterconnectDesign(
        key="kim2010" + ("_6g" if high_rate else "_4g"),
        citation="[26] Kim JSSC'10",
        signaling="fully differential",
        tech=tech_90nm_bulk(1.0),
        data_rate=rate,
        bandwidth_density_gbps_per_um=density,
        energy_fj_per_bit_per_cm=energy,
        n_repeaters=0,
        repeater_note="repeaterless",
        wires_per_signal=2,
        overhead_fraction=0.40,
    )


#: Driver area of [26]'s 10 mm 1-bit link, cited in the paper's intro as
#: why equalized links cannot be used as parallel mesh links.
KIM2010_DRIVER_AREA = 1760e-12  # m^2 (1760 um^2)


def seo2010() -> InterconnectDesign:
    """[27] Seo et al., ISSCC 2010: adaptive pre-emphasis, 2 repeaters."""
    return InterconnectDesign(
        key="seo2010",
        citation="[27] Seo ISSCC'10",
        signaling="fully differential",
        tech=tech_90nm_bulk(1.0),
        data_rate=4.9e9,
        bandwidth_density_gbps_per_um=4.375,
        energy_fj_per_bit_per_cm=680.0,  # 340 x 2 (2 repeaters)
        n_repeaters=2,
        repeater_note="2 repeaters",
        wires_per_signal=2,
        overhead_fraction=0.40,
    )


def park2012() -> InterconnectDesign:
    """[18] Park et al., DAC 2012: clocked low-swing mesh datapath.

    Differential, clocked sense amplifiers, and a dedicated second supply
    (whose charge-recycling is *not* assumed, per the Table I footnote).
    """
    return InterconnectDesign(
        key="park2012",
        citation="[18] Park DAC'12",
        signaling="fully differential",
        tech=tech_45nm_soi(0.8),
        data_rate=5.4e9,
        bandwidth_density_gbps_per_um=6.0,
        energy_fj_per_bit_per_cm=561.0,  # 56.1 x 10 (10 repeaters)
        n_repeaters=10,
        repeater_note="10 repeaters",
        wires_per_signal=2,
        overhead_fraction=0.30,
        needs_extra_supply=True,
    )


def this_work(measured_energy_fj_per_bit_per_cm: float | None = None) -> InterconnectDesign:
    """The SRLR link of this paper as a Table I row.

    By default carries the paper's published point (4.1 Gb/s,
    6.83 Gb/s/um, 404 fJ/bit/cm); pass our simulator's measured energy to
    build the "reproduced" row instead.
    """
    energy = (
        404.0
        if measured_energy_fj_per_bit_per_cm is None
        else measured_energy_fj_per_bit_per_cm
    )
    return InterconnectDesign(
        key="this_work",
        citation="This Work (SRLR)",
        signaling="single-ended",
        tech=tech_45nm_soi(0.8),
        data_rate=4.1e9,
        bandwidth_density_gbps_per_um=6.83,
        energy_fj_per_bit_per_cm=energy,
        n_repeaters=10,
        repeater_note="10 repeaters",
        wires_per_signal=1,
        overhead_fraction=0.25,
    )


def table1_designs() -> list[InterconnectDesign]:
    """All Table I rows in the paper's column order."""
    return [mensink2010(), kim2010(False), kim2010(True), seo2010(), park2012(), this_work()]


__all__ = [
    "InterconnectDesign",
    "KIM2010_DRIVER_AREA",
    "kim2010",
    "mensink2010",
    "park2012",
    "seo2010",
    "table1_designs",
    "this_work",
]
