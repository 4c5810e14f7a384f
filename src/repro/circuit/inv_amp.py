"""Current-starved inverter amplifier (the INV of Fig. 4/5).

The INV senses node X: its output rises when M1 has discharged X below the
inverter switching threshold, and falls again when the self-reset recharges
X.  Two of its properties drive the whole link analysis:

* its **switching threshold** V_M sets the node-X discharge depth required
  to register a pulse (together with the keeper-set standby voltage), and
* its **rising time grows as the input pulse swing shrinks** (slower X
  discharge), while its falling time barely moves — the asymmetry that
  enters the paper's pulse-width equation Wout = Wx - (t_rise - t_fall).

The EN port gates the amplifier so 3-port SRLRs can sit at crossbar
crosspoints (Fig. 3): with EN low the stage never fires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.mosfet import saturation_current
from repro.tech.variation import VariationSample
from repro.units import FF, UM


@dataclass(frozen=True)
class CurrentStarvedInverter:
    """Behavioral current-starved inverter.

    Attributes
    ----------
    width_n / width_p:
        Device widths, meters.
    starve_factor:
        Drive-current reduction from the starving stack (> 1); raises gain
        and slows edges symmetrically.
    c_out:
        Lumped output load (driver gate + self-loading), farads.
    beta_skew:
        sqrt(beta_n / beta_p) entering the switching-threshold formula; the
        paper's INV is skewed so V_M sits safely below node X's standby
        voltage Vdd - Vth.
    """

    width_n: float = 1.0 * UM
    width_p: float = 2.4 * UM
    starve_factor: float = 2.5
    c_out: float = 2.8 * FF
    beta_skew: float = 1.0

    def __post_init__(self) -> None:
        for key, value in (
            ("width_n", self.width_n),
            ("width_p", self.width_p),
            ("starve_factor", self.starve_factor),
            ("c_out", self.c_out),
            ("beta_skew", self.beta_skew),
        ):
            if value <= 0.0:
                raise ConfigurationError(f"{key} must be positive, got {value}")

    def switching_threshold(self, sample: VariationSample, name: str) -> float:
        """Inverter threshold V_M under the variation sample.

        Standard static CMOS formula with an effective beta ratio:
        V_M = (Vdd - |Vtp| + r * Vtn) / (1 + r), r = sqrt(beta_n/beta_p).
        """
        tech = sample.tech
        vth_n = sample.vth(f"{name}.inv_n", "n", self.width_n)
        vth_p = sample.vth(f"{name}.inv_p", "p", self.width_p)
        r = self.beta_skew
        return (tech.vdd - vth_p + r * vth_n) / (1.0 + r)

    def _starved_current(self, sample: VariationSample, name: str, polarity: str) -> float:
        tech = sample.tech
        if polarity == "n":
            width = self.width_n
            vth = sample.vth(f"{name}.inv_n", "n", width)
        else:
            width = self.width_p
            vth = sample.vth(f"{name}.inv_p", "p", width)
        return saturation_current(tech, width, vth, polarity, tech.vdd) / self.starve_factor

    def intrinsic_rise(self, sample: VariationSample, name: str) -> float:
        """Output rise time once X has crossed V_M (PMOS charging c_out)."""
        i_p = self._starved_current(sample, name, "p")
        if i_p <= 0.0:
            raise ConfigurationError("PMOS delivers no current; check parameters")
        return self.c_out * sample.tech.vdd / i_p

    def fall_time(self, sample: VariationSample, name: str) -> float:
        """Output fall time on reset (NMOS discharging c_out).

        This edge is launched by the full-swing reset recharging X, so it
        does not depend on the input pulse swing — the asymmetry Section
        III-A builds on.
        """
        i_n = self._starved_current(sample, name, "n")
        if i_n <= 0.0:
            raise ConfigurationError("NMOS delivers no current; check parameters")
        return self.c_out * sample.tech.vdd / i_n
