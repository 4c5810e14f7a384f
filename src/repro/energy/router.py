"""Analytical mesh-router power and area model (DSENT-style).

Section IV of the paper synthesizes a typical mesh router (64 bits,
5 ports, 4 VCs, 16 buffers) in the same 45 nm SOI process and reports:

* input buffers 38.8 mW, control logic 5.2 mW, SRLR low-swing datapath
  12.9 mW (extracted simulation, fully loaded);
* the SRLR datapath occupies 47.9 um^2 x 64 bits x 5 ports x 4 = 0.061 mm^2,
  about 18% of the 0.34 mm^2 router footprint.

This module is the reproduction of that experiment: an analytical
per-flit energy model for each router component, calibrated to the same
process, that regenerates the power split and the area fractions — and,
because it is parametric, also provides the full-swing-datapath
counterfactual and feeds the cycle-level NoC simulator's energy
accounting (:mod:`repro.noc.power`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.technology import Technology, tech_45nm_soi
from repro.units import FJ, MM
from repro.energy.link_energy import srlr_link_energy
from repro.wire.elmore import full_swing_energy_per_bit as fs_repeated_energy
from repro.wire.rc import reference_segment

#: Active silicon area of one 1 mm SRLR (die photo, Section I/IV).
SRLR_AREA = 47.9e-12  # m^2  (10.2 um x 4.7 um)

#: Crosspoints of a 5-port crossbar without u-turns (Fig. 3).
CROSSPOINTS_5PORT = 20


@functools.cache
def _default_srlr_bit_energy() -> float:
    """The calibrated design's SRLR energy per bit per mm, joules."""
    return srlr_link_energy().fj_per_bit_per_mm * FJ


@dataclass(frozen=True)
class RouterConfig:
    """The paper's synthesized router: 64 bits, 5 ports, 4 VCs, 16 buffers."""

    tech: Technology
    flit_bits: int = 64
    n_ports: int = 5
    n_vcs: int = 4
    buffers_per_port: int = 16
    clock_hz: float = 1.0e9
    link_length: float = 1 * MM
    #: Scale factor on control/storage (logic) energy relative to the
    #: calibrated 45 nm values — the knob behind Section I's claim that
    #: the physical datapath's power share *grows* as CMOS scales: logic
    #: energy shrinks with the node, wire capacitance per mm does not
    #: ([14], [15] / Table I footnote).
    logic_energy_scale: float = 1.0

    def __post_init__(self) -> None:
        for key, value in (
            ("flit_bits", self.flit_bits),
            ("n_ports", self.n_ports),
            ("n_vcs", self.n_vcs),
            ("buffers_per_port", self.buffers_per_port),
        ):
            if value < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {value}")
        if self.clock_hz <= 0.0:
            raise ConfigurationError(f"clock_hz must be positive, got {self.clock_hz}")
        if self.logic_energy_scale <= 0.0:
            raise ConfigurationError(
                f"logic_energy_scale must be positive, got {self.logic_energy_scale}"
            )

    @property
    def crosspoints(self) -> int:
        """No-u-turn crossbar: each output reachable from the other ports."""
        return self.n_ports * (self.n_ports - 1)


def default_router_config() -> RouterConfig:
    return RouterConfig(tech=tech_45nm_soi())


@dataclass(frozen=True)
class RouterPower:
    """Power split of one router at one load, watts."""

    buffers: float
    control: float
    datapath: float

    @property
    def total(self) -> float:
        return self.buffers + self.control + self.datapath

    def fraction(self, component: str) -> float:
        value = getattr(self, component)
        return value / self.total if self.total > 0.0 else 0.0


@dataclass(frozen=True)
class RouterArea:
    """Area split of one router, square meters."""

    datapath: float
    buffers: float
    control: float

    @property
    def total(self) -> float:
        return self.datapath + self.buffers + self.control

    @property
    def datapath_fraction(self) -> float:
        return self.datapath / self.total if self.total > 0.0 else 0.0


class RouterPowerModel:
    """Per-flit energy model of the paper's router, calibrated to Section IV.

    Component models (all scale with the config):

    * **Buffers** — per-flit write+read energy of an SRAM-style input
      buffer (bitcell access + wordline/bitline overhead growing with
      depth), plus depth-proportional leakage.
    * **Control** — VC and switch allocation logic plus the pipeline
      clock: a dynamic per-flit term and a static term.
    * **Datapath** — crossbar traversal + output link.  In ``"srlr"`` mode
      this is the measured circuit-level SRLR energy per bit per mm (the
      crosspoint SRLR's insertion length equals the 1 mm router-to-router
      distance, so one repeater covers crossbar + link); in
      ``"full_swing"`` mode it is a conventionally repeated full-swing
      wire of the same reach plus crossbar loading.
    """

    #: Buffer array access energy per bit (write + read), at 16-deep.
    _E_BUFFER_BIT = 120 * FJ
    #: Buffer leakage per stored bit-cell.
    _P_LEAK_BITCELL = 28e-9  # W
    #: Control dynamic energy per flit (allocators, pipeline registers).
    _E_CONTROL_FLIT = 0.9e-12  # J
    #: Control static + clock power.
    _P_CONTROL_STATIC = 0.7e-3  # W
    #: Crossbar wiring overhead relative to the output link, full-swing
    #: mode only (the SRLR mode's crosspoint repeater already spans both).
    _XBAR_LENGTH_FACTOR = 0.4

    def __init__(self, config: RouterConfig | None = None) -> None:
        self.config = config or default_router_config()

    # --- per-flit energies -----------------------------------------------------------

    def buffer_energy_per_flit(self) -> float:
        """Write + read energy of one flit through an input buffer."""
        cfg = self.config
        depth_factor = 1.0 + 0.02 * (cfg.buffers_per_port - 16)
        return (
            cfg.flit_bits
            * self._E_BUFFER_BIT
            * max(depth_factor, 0.5)
            * cfg.logic_energy_scale
        )

    def buffer_leakage(self) -> float:
        cfg = self.config
        cells = cfg.flit_bits * cfg.buffers_per_port * cfg.n_ports
        return cells * self._P_LEAK_BITCELL * cfg.logic_energy_scale

    def control_energy_per_flit(self) -> float:
        cfg = self.config
        vc_factor = 1.0 + 0.05 * (cfg.n_vcs - 4)
        return self._E_CONTROL_FLIT * max(vc_factor, 0.5) * cfg.logic_energy_scale

    def srlr_bit_energy(self) -> float:
        """Measured SRLR energy per bit for one 1 mm hop (J/bit).

        Taken from the circuit-level link model at 50% activity, once
        per process (it is deterministic for the calibrated design).
        """
        return _default_srlr_bit_energy()

    def full_swing_bit_energy(self) -> float:
        """Repeated full-swing energy per bit for crossbar + 1 mm link."""
        cfg = self.config
        length = cfg.link_length * (1.0 + self._XBAR_LENGTH_FACTOR)
        segment = reference_segment(cfg.tech, length)
        return fs_repeated_energy(segment, cfg.tech, activity=0.5)

    def datapath_energy_per_flit(self, datapath: str = "srlr") -> float:
        cfg = self.config
        if datapath == "srlr":
            per_bit = self.srlr_bit_energy() * (cfg.link_length / MM)
        elif datapath == "full_swing":
            per_bit = self.full_swing_bit_energy()
        else:
            raise ConfigurationError(
                f"datapath must be 'srlr' or 'full_swing', got {datapath!r}"
            )
        return cfg.flit_bits * per_bit

    # --- aggregate power ---------------------------------------------------------------

    def power_breakdown(
        self, utilization: float = 1.0, datapath: str = "srlr"
    ) -> RouterPower:
        """Router power at a per-port flit ``utilization`` (0..1).

        At utilization 1.0 with the SRLR datapath this reproduces the
        paper's 38.8 / 5.2 / 12.9 mW split.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must lie in [0, 1], got {utilization}"
            )
        cfg = self.config
        flits_per_s = cfg.n_ports * cfg.clock_hz * utilization
        buffers = (
            flits_per_s * self.buffer_energy_per_flit() + self.buffer_leakage()
        )
        control = (
            flits_per_s * self.control_energy_per_flit() + self._P_CONTROL_STATIC
        )
        dp = flits_per_s * self.datapath_energy_per_flit(datapath)
        return RouterPower(buffers=buffers, control=control, datapath=dp)

    # --- area ---------------------------------------------------------------------------

    def area_breakdown(self) -> RouterArea:
        """Area split; SRLR datapath = 47.9 um^2 x bits x crosspoints.

        The paper's own arithmetic (Section I) counts 64 x 5 x 4 SRLRs
        (each output port's 4 candidate inputs), i.e. the 20 crosspoints
        of the no-u-turn 5-port crossbar.
        """
        cfg = self.config
        datapath = SRLR_AREA * cfg.flit_bits * cfg.crosspoints
        # Flip-flop based buffer array (synthesized router), including
        # mux/decode overhead per stored bit.
        cell_area = 24e-12  # m^2 per bit incl. overhead, 45 nm-class
        buffers = cfg.flit_bits * cfg.buffers_per_port * cfg.n_ports * cell_area
        # Allocators, pipeline registers, clocking and routing overhead: a
        # fixed floor plus a share that grows with buffering.
        control = 0.45 * buffers + 1.0e-7
        return RouterArea(datapath=datapath, buffers=buffers, control=control)


#: Published mesh NoC power breakdowns cited in Section I (percent of NoC
#: power): links / crossbar / buffers.  The datapath (links + crossbar)
#: share is what the SRLR attacks.
PUBLISHED_NOC_BREAKDOWNS: dict[str, dict[str, float]] = {
    "RAW": {"links": 39.0, "crossbar": 30.0, "buffers": 31.0},
    "TRIPS": {"links": 31.0, "crossbar": 33.0, "buffers": 35.0},
    "TeraFLOPS": {"links": 17.0, "crossbar": 15.0, "buffers": 22.0},
}


def datapath_share(chip: str) -> float:
    """Links + crossbar share of NoC power for a published chip (Section I).

    RAW 69%, TRIPS 64%, TeraFLOPS 32% — the numbers the paper quotes.
    """
    if chip not in PUBLISHED_NOC_BREAKDOWNS:
        raise ConfigurationError(
            f"unknown chip {chip!r}; choose from {sorted(PUBLISHED_NOC_BREAKDOWNS)}"
        )
    b = PUBLISHED_NOC_BREAKDOWNS[chip]
    return b["links"] + b["crossbar"]


__all__ = [
    "CROSSPOINTS_5PORT",
    "PUBLISHED_NOC_BREAKDOWNS",
    "RouterArea",
    "RouterConfig",
    "RouterPower",
    "RouterPowerModel",
    "SRLR_AREA",
    "datapath_share",
    "default_router_config",
]
