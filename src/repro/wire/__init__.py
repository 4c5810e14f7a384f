"""On-chip interconnect physics: RC extraction, exact transients, pulses.

Replaces SPICE-level wire simulation with an exact linear-network solver
(see DESIGN.md substitution table).
"""

from repro.wire.attenuation import (
    AttenuationTable,
    PulseTransfer,
    attenuation_table,
    log_quantize,
)
from repro.wire.coupled import CoupledPair, CoupledSolver
from repro.wire.elmore import (
    RepeaterDesign,
    elmore_delay,
    full_swing_energy_per_bit,
    optimal_repeaters,
    repeated_wire_delay,
    unit_inverter_c,
    unit_inverter_r,
)
from repro.wire.ladder import DEFAULT_SECTIONS, LadderNetwork, build_ladder
from repro.wire.rc import WireGeometry, WireSegment, reference_segment
from repro.wire.transient import TransientSolver

__all__ = [
    "AttenuationTable",
    "CoupledPair",
    "CoupledSolver",
    "DEFAULT_SECTIONS",
    "attenuation_table",
    "log_quantize",
    "LadderNetwork",
    "PulseTransfer",
    "RepeaterDesign",
    "TransientSolver",
    "WireGeometry",
    "WireSegment",
    "build_ladder",
    "elmore_delay",
    "full_swing_energy_per_bit",
    "optimal_repeaters",
    "reference_segment",
    "repeated_wire_delay",
    "unit_inverter_c",
    "unit_inverter_r",
]
