"""Output drivers: the straightforward inverter vs. the NMOS-based driver.

Section III-B: a plain inverter at the SRLR output has *two* distinct
global-corner failure modes —

* weak PMOS: insufficient launched swing, so the next stage cannot sense;
* strong PMOS with weak NMOS: too much swing and too little discharge, so
  a run of 1s charges the wire faster than the pull-down drains it and a
  trailing 0 is lost (the '11110' failure).

The paper's NMOS-based driver supplies both pull-up and pull-down current
through NMOS devices: the pull-up is a source follower clamped at roughly
Vref - Vth, so the strong-PMOS mode disappears and the design only has to
guard the weak-NMOS corner.

Behaviorally a driver reduces to three numbers per die: the effective
launch amplitude, the Thevenin pull-up resistance during the pulse, and
the pull-down resistance that drains the wire between pulses.  The wire
solver consumes these directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.mosfet import on_resistance
from repro.tech.variation import VariationSample
from repro.units import UM


@dataclass(frozen=True)
class LaunchedDrive:
    """Electrical summary of one die's driver: what the wire model needs."""

    amplitude: float  # effective launch level during the pulse, volts
    r_up: float  # Thevenin resistance while driving high, ohms
    r_down: float  # pull-down resistance draining the wire afterwards, ohms

    def __post_init__(self) -> None:
        if self.amplitude <= 0.0:
            raise ConfigurationError(
                f"amplitude must be positive, got {self.amplitude}"
            )
        if self.r_up <= 0.0 or self.r_down <= 0.0:
            raise ConfigurationError("drive resistances must be positive")


class OutputDriver:
    """Interface for SRLR output drivers."""

    def launch(self, sample: VariationSample, name: str, vref: float) -> LaunchedDrive:
        """Drive characteristics for this die; ``vref`` is the swing reference."""
        raise NotImplementedError

    def gate_capacitance(self, sample: VariationSample) -> float:
        """Total driver input capacitance (load on the INV amplifier)."""
        raise NotImplementedError


@dataclass(frozen=True)
class NMOSDriver(OutputDriver):
    """The paper's driver: NMOS pull-up (source follower) + NMOS pull-down.

    The pull-up output clamps at Vref - Vth(pull-up): raising the global
    NMOS threshold *lowers* the launched amplitude and weakens the
    pull-down — a single coherent weak-NMOS failure mode, which the
    adaptive Vref then compensates.
    """

    width_up: float = 11.0 * UM
    width_down: float = 9.0 * UM

    def __post_init__(self) -> None:
        if self.width_up <= 0.0 or self.width_down <= 0.0:
            raise ConfigurationError("driver widths must be positive")

    def launch(self, sample: VariationSample, name: str, vref: float) -> LaunchedDrive:
        if vref <= 0.0:
            raise ConfigurationError(f"vref must be positive, got {vref}")
        tech = sample.tech
        vth_up = sample.vth(f"{name}.drv_up_n", "n", self.width_up)
        vth_dn = sample.vth(f"{name}.drv_dn_n", "n", self.width_down)
        amplitude = min(vref, tech.vdd) - vth_up
        # Clamp to a small positive floor: a dead driver is reported as a
        # (correctly failing) tiny launch, not a model error.
        amplitude = max(amplitude, 0.01)
        # Source-follower effective resistance: the device conducts with
        # gate at Vref while the source rises toward the clamp; its average
        # drive is well captured by r_on at Vgs = Vref.
        r_up = on_resistance(tech, self.width_up, vth_up, "n", min(vref, tech.vdd))
        r_down = on_resistance(tech, self.width_down, vth_dn, "n", tech.vdd)
        return LaunchedDrive(amplitude=amplitude, r_up=r_up, r_down=r_down)

    def gate_capacitance(self, sample: VariationSample) -> float:
        tech = sample.tech
        return tech.gate_c_per_m * (self.width_up + self.width_down)


@dataclass(frozen=True)
class InverterDriver(OutputDriver):
    """The straightforward driver: a CMOS inverter launching full rail.

    It launches full rail; the *low swing* at the far end comes entirely
    from driving the wire through a deliberately weak (small) PMOS — the
    swing knob of this design is ``width_p``.  That is precisely why it is
    fragile: corners modulate r_up (PMOS) and r_down (NMOS)
    *independently*, creating the two distinct failure modes of Section
    III-B (weak PMOS -> insufficient swing; strong PMOS + weak NMOS ->
    overcharge that the pull-down cannot drain before the next bit).  The
    pull-down is drawn much larger so the reset path is only weakly
    swing-setting.  Vref is ignored (there is nothing to bias), so the
    adaptive swing scheme cannot help this driver — also as in the paper.
    """

    width_p: float = 3.0 * UM
    width_n: float = 8.0 * UM
    amplitude_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.width_p <= 0.0 or self.width_n <= 0.0:
            raise ConfigurationError("driver widths must be positive")
        if not 0.0 < self.amplitude_fraction <= 1.0:
            raise ConfigurationError(
                f"amplitude_fraction must lie in (0, 1], got {self.amplitude_fraction}"
            )

    def launch(self, sample: VariationSample, name: str, vref: float) -> LaunchedDrive:
        tech = sample.tech
        vth_p = sample.vth(f"{name}.drv_p", "p", self.width_p)
        vth_n = sample.vth(f"{name}.drv_n", "n", self.width_n)
        return LaunchedDrive(
            amplitude=self.amplitude_fraction * tech.vdd,
            r_up=on_resistance(tech, self.width_p, vth_p, "p", tech.vdd),
            r_down=on_resistance(tech, self.width_n, vth_n, "n", tech.vdd),
        )

    def gate_capacitance(self, sample: VariationSample) -> float:
        tech = sample.tech
        return tech.gate_c_per_m * (self.width_p + self.width_n)
