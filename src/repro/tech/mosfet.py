"""Alpha-power-law MOSFET model.

The SRLR's robustness arguments (Sections II-III of the paper) all reduce to
how device drive strength and effective resistance move with threshold
voltage across process corners.  The alpha-power law (Sakurai-Newton)
captures exactly that first-order dependence:

    Ids_sat = k * W * (Vgs - Vth)^alpha            (saturation)
    Ids_lin = Ids_sat * (2 - Vds/Vdsat) * Vds/Vdsat  (triode, smooth blend)

with a subthreshold exponential below Vth so that near-threshold sensing
(the SRLR input NMOS M1 sees a ~200 mV pulse against a ~320 mV Vth) conducts
a small but nonzero current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.technology import Technology
from repro.units import UM, VT_THERMAL


#: PMOS mobility derating relative to NMOS at equal width.
PMOS_DRIVE_RATIO = 0.45

#: Subthreshold current at Vgs = Vth, per meter of width.
I0_PER_M = 0.35  # A/m -> ~0.35 uA/um, a typical 45 nm-class value


def check_device(width: float, vth: float, polarity: str) -> None:
    """Raise :class:`ConfigurationError` unless the device is drawable."""
    if width <= 0.0:
        raise ConfigurationError(f"width must be positive, got {width}")
    if polarity not in ("n", "p"):
        raise ConfigurationError(f"polarity must be 'n' or 'p', got {polarity!r}")
    if vth <= 0.0:
        raise ConfigurationError(f"vth magnitude must be positive, got {vth}")


def saturation_current(
    tech: Technology, width: float, vth: float, polarity: str, vgs: float
) -> float:
    """:meth:`Mosfet.ids_sat` on plain floats, after :func:`check_device`.

    Below threshold the current rolls off exponentially with the
    technology's subthreshold slope; above threshold it follows the
    alpha-power law.  The two regions are continuous at Vgs = Vth.
    """
    check_device(width, vth, polarity)
    if vgs <= 0.0:
        return 0.0
    n_vt = tech.subthreshold_slope_n * VT_THERMAL
    i0 = I0_PER_M * width * (PMOS_DRIVE_RATIO if polarity == "p" else 1.0)
    overdrive = vgs - vth
    if overdrive <= 0.0:
        return i0 * math.exp(overdrive / n_vt)
    k_eff = tech.k_drive * width
    if polarity == "p":
        k_eff *= PMOS_DRIVE_RATIO
    # Smooth hand-off: subthreshold floor plus the alpha-power term.
    return i0 + k_eff * overdrive**tech.alpha


def on_resistance(
    tech: Technology, width: float, vth: float, polarity: str, vgs: float | None = None
) -> float:
    """:meth:`Mosfet.r_on` on plain floats, after :func:`check_device`.

    Uses the standard effective-resistance abstraction
    R_eff ~ Vdd / Ids_sat(Vgs=Vdd) scaled by 3/4 to average the
    discharge trajectory.  Returns ``inf`` when the device is off.
    """
    vgs = tech.vdd if vgs is None else vgs
    isat = saturation_current(tech, width, vth, polarity, vgs)
    if isat <= 0.0:
        return math.inf
    return 0.75 * tech.vdd / isat


@dataclass(frozen=True)
class Mosfet:
    """A single MOSFET instance of one polarity.

    Voltages are handled in magnitude form: for a PMOS, pass |Vgs| and |Vds|
    and read current magnitudes.  ``vth`` already includes any corner or
    mismatch shift applied by the caller.

    Attributes
    ----------
    tech:
        Technology the device is drawn in.
    width:
        Gate width in meters.
    vth:
        Effective threshold-voltage magnitude in volts.
    polarity:
        ``"n"`` or ``"p"``; PMOS drive is derated by ``PMOS_DRIVE_RATIO``.
    """

    tech: Technology
    width: float
    vth: float
    polarity: str = "n"

    #: The module constants, also readable off a device.
    PMOS_DRIVE_RATIO = PMOS_DRIVE_RATIO
    I0_PER_M = I0_PER_M

    def __post_init__(self) -> None:
        check_device(self.width, self.vth, self.polarity)

    def ids_sat(self, vgs: float) -> float:
        """Saturation drain current magnitude at gate overdrive ``vgs - vth``
        (see :func:`saturation_current`)."""
        return saturation_current(self.tech, self.width, self.vth, self.polarity, vgs)

    def vdsat(self, vgs: float) -> float:
        """Saturation drain voltage, ~proportional to overdrive."""
        overdrive = max(vgs - self.vth, 0.0)
        return max(0.12 * self.vth, 0.8 * overdrive)

    def ids(self, vgs: float, vds: float) -> float:
        """Drain current magnitude including the triode region."""
        if vds <= 0.0:
            return 0.0
        isat = self.ids_sat(vgs)
        vdsat = self.vdsat(vgs)
        if vds >= vdsat:
            return isat
        x = vds / vdsat
        return isat * x * (2.0 - x)

    def r_on(self, vgs: float | None = None) -> float:
        """Effective on-resistance for RC delay estimates
        (see :func:`on_resistance`)."""
        return on_resistance(self.tech, self.width, self.vth, self.polarity, vgs)

    @property
    def gate_cap(self) -> float:
        """Gate capacitance in farads."""
        return self.tech.gate_c_per_m * self.width

    def scaled(self, factor: float) -> "Mosfet":
        """Return a copy with the gate width scaled by ``factor``."""
        if factor <= 0.0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return Mosfet(self.tech, self.width * factor, self.vth, self.polarity)


def nmos(tech: Technology, width_um: float, vth_shift: float = 0.0) -> Mosfet:
    """Convenience constructor: NMOS with width in microns and a Vth shift."""
    return Mosfet(tech, width_um * UM, tech.vth_n + vth_shift, "n")


def pmos(tech: Technology, width_um: float, vth_shift: float = 0.0) -> Mosfet:
    """Convenience constructor: PMOS with width in microns and a Vth shift."""
    return Mosfet(tech, width_um * UM, tech.vth_p + vth_shift, "p")
