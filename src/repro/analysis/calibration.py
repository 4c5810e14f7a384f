"""Calibration transparency: anchored constants vs emergent results.

A reproduction built on behavioral models owes its readers a clear
boundary between (a) the handful of constants *calibrated* against the
paper's pinned numbers and (b) everything that then *emerges* from the
models.  This module prints that boundary and verifies, at import-free
runtime, that the emergent headline numbers still land where
EXPERIMENTS.md records them — a drift alarm for future model edits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.circuit import SRLRLink, robust_design
from repro.circuit.srlr import DEFAULT_NOMINAL_SWING
from repro.energy import RouterPowerModel, srlr_link_energy
from repro.mc.engine import default_stress_pattern
from repro.units import GBPS, MW

#: The calibration anchors: each row is (constant, value, what it was
#: anchored to).  Everything not listed here is an emergent result.
CALIBRATION_ANCHORS: list[tuple[str, str, str]] = [
    ("wire R", "350 Ohm/mm", "45 nm intermediate-metal copper at 0.3 um width"),
    ("wire C", "0.22 fF/um (ground+2x coupling)", "headline 40.4 fJ/bit/mm at the 0.6 um pitch"),
    ("wire pitch", "0.6 um", "6.83 Gb/s/um at 4.1 Gb/s (exact)"),
    ("device k_drive", "550 A/m at 1 V overdrive", "45 nm-class on-current"),
    ("Vth (n/p)", "0.32 / 0.30 V", "45 nm-class standard cells"),
    ("M1 low-Vt offset", "-80 mV", "sensing at ~0.3 V swings"),
    ("nominal far-end swing", f"{DEFAULT_NOMINAL_SWING} V", "Fig. 6 'selected swing': ~3.7x immunity separation point"),
    ("delay cell", "6 buffers x 26 ps", "Wx ~156 ps inside the 244 ps UI"),
    ("reset recovery", "30 ps", "max data rate in the 4-5 Gb/s band"),
    ("buffer energy/bit", "120 fJ", "router buffers 38.8 mW"),
    ("control energy/flit", "0.9 pJ + 0.7 mW static", "router control 5.2 mW"),
    ("SRLR area", "47.9 um^2", "die photo (exact)"),
    ("bias power", "587 uW", "Section IV (exact)"),
    ("global sigma(Vth)", "30 mV", "die-to-die variation, 45 nm-class"),
    ("Pelgrom A_vt", "3.5 mV*um", "45 nm-class mismatch"),
]


@dataclass(frozen=True)
class CalibrationCheck:
    """One emergent quantity with its expected band."""

    name: str
    value: float
    lo: float
    hi: float

    @property
    def ok(self) -> bool:
        return self.lo <= self.value <= self.hi


def calibration_checks() -> list[CalibrationCheck]:
    """Measure the emergent headline quantities against their bands."""
    link = SRLRLink(robust_design())
    report = srlr_link_energy()
    pattern = default_stress_pattern()
    rate = link.max_data_rate(pattern)
    router = RouterPowerModel().power_breakdown(1.0, "srlr")
    area = RouterPowerModel().area_breakdown()
    return [
        CalibrationCheck("energy [fJ/bit/mm]", report.fj_per_bit_per_mm, 35.0, 46.0),
        CalibrationCheck("max rate [Gb/s]", rate / GBPS, 4.1, 5.5),
        CalibrationCheck("link power [mW]", report.power / MW, 1.4, 1.9),
        CalibrationCheck(
            "BW density [Gb/s/um]", report.bandwidth_density_gbps_per_um, 6.82, 6.84
        ),
        CalibrationCheck("router datapath [mW]", router.datapath / MW, 11.0, 14.5),
        CalibrationCheck("datapath area frac", area.datapath_fraction, 0.15, 0.21),
    ]


def calibration_report() -> str:
    """Render the anchors table plus the live emergent-value checks."""
    anchors = format_table(
        ["constant", "value", "anchored to"],
        CALIBRATION_ANCHORS,
        title="Calibration anchors (everything else is emergent)",
    )
    checks = calibration_checks()
    live = format_table(
        ["emergent quantity", "measured", "band", "ok"],
        [
            [c.name, f"{c.value:.3g}", f"[{c.lo:g}, {c.hi:g}]", c.ok]
            for c in checks
        ],
        title="Live drift check",
    )
    return anchors + "\n\n" + live


__all__ = ["CALIBRATION_ANCHORS", "CalibrationCheck", "calibration_checks", "calibration_report"]
