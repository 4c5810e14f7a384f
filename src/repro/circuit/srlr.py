"""The self-resetting logic repeater (SRLR) stage model.

One SRLR (Fig. 4/5 of the paper) is, behaviorally, a pulse transformer:

1. A low-swing input pulse on the gate of the input NMOS **M1** (a low-Vt
   device) discharges the sense node **X** from its keeper-set standby
   voltage Vdd - Vth(M2) toward ground.  M1 conducts in subthreshold at the
   ~100-150 mV input swings, fighting the deliberately feeble keeper M2;
   the *net* current sets the discharge, so sensitivity is an M1/M2 size
   ratio as Section II says, and trip time grows exponentially as the
   swing shrinks toward the sensitivity floor.
2. When X crosses the current-starved inverter's switching threshold, OUT
   rises.  The **rising time grows as the input swing shrinks**, because a
   weakly-driven X crosses the threshold slowly.
3. The self-reset loop (delay cell) recharges X after its delay D, and OUT
   falls with the (swing-independent) falling time.

The paper's governing relation follows directly:

    Wout = Wx - (t_rising - t_falling),   Wx set by the delay cell,

with t_rising = t_trip + intrinsic rise, t_trip = C_x * dV_trip / I_M1(swing).

The stage either *fires* (produces an output pulse of width Wout at the
driver's launch amplitude) or fails in one of the diagnosed ways:
``too_weak`` (swing cannot trip X within the input dwell), ``collapsed``
(Wout below the minimum propagatable width) or ``stuck`` (keeper/INV margin
inverted, the stage fires continuously).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum

from repro.errors import ConfigurationError
from repro.circuit.bias import (
    FixedSwingReference,
    SwingReference,
    adaptive_for_amplitude,
)
from repro.circuit.delay_cell import DelayCellPlan, alternating_plan, single_plan
from repro.circuit.driver import (
    InverterDriver,
    LaunchedDrive,
    NMOSDriver,
    OutputDriver,
)
from repro.circuit.inv_amp import CurrentStarvedInverter
from repro.tech.mosfet import I0_PER_M, Mosfet, check_device, saturation_current
from repro.tech.technology import Technology, tech_45nm_soi
from repro.tech.variation import VariationSample
from repro.units import FF, MM, PS, UM, VT_THERMAL
from repro.wire.rc import WireGeometry


class StageFailure(Enum):
    """Why a stage did not (correctly) repeat its input pulse."""

    NONE = "none"
    TOO_WEAK = "too_weak"  # input swing below sensitivity: pulse dropped
    COLLAPSED = "collapsed"  # output width shrank below the propagatable minimum
    STUCK = "stuck"  # standby margin inverted: stage fires continuously
    #: Bit-level-only failure: the stage repeats isolated pulses but drops
    #: or corrupts bits at speed (reset dead time / residual ISI).  Never
    #: returned by ``SRLRStage.transfer``; used by the diagnostics layer.
    RATE_OR_ISI = "rate_or_isi"


@dataclass(frozen=True)
class SRLRDesignParams:
    """Complete static description of an SRLR-based link design.

    The two named constructors :func:`robust_design` (NMOS driver +
    alternating delay cells + adaptive swing — the paper's proposal) and
    :func:`straightforward_design` (inverter driver + single delay cell +
    fixed swing — the paper's baseline) are the Fig. 6 contenders; the
    three techniques can also be toggled independently for ablations.
    """

    tech: Technology
    delay_plan: DelayCellPlan
    driver: OutputDriver
    swing_reference: SwingReference
    inv: CurrentStarvedInverter = CurrentStarvedInverter()
    n_stages: int = 10
    segment_length: float = 1 * MM
    wire_geometry: WireGeometry | None = None  # None -> technology reference
    #: M1 (input sense NMOS): a low-Vt, long-channel device.  The length
    #: factor divides drive strength and multiplies gate area (shrinking
    #: Pelgrom mismatch) — sense devices are drawn long for exactly this.
    m1_width: float = 4.0 * UM
    m1_length_factor: float = 4.0
    m1_vth_offset: float = -0.08
    #: M2 (keeper): a minute, very long channel pull-up whose current M1
    #: must out-sink to discharge X.  The M1/M2 *current* ratio is the
    #: paper's input-sensitivity sizing knob (Section II).
    m2_width: float = 0.2 * UM
    m2_length_factor: float = 20.0
    m2_vth_offset: float = -0.06
    c_node_x: float = 1.0 * FF
    min_output_width: float = 30 * PS
    #: Dead time after the self-reset completes before the stage can sense
    #: again (X recharge + delay-cell clearing).  Together with Wx this is
    #: what bounds the maximum data rate of the repeated link.
    reset_recovery: float = 30 * PS
    #: Extra X discharge (beyond the INV threshold crossing) that sets the
    #: swing-dependent part of the INV rising time, as a voltage depth.
    rise_sense_depth: float = 0.12

    def __post_init__(self) -> None:
        if self.n_stages < 1:
            raise ConfigurationError(f"n_stages must be >= 1, got {self.n_stages}")
        for key, value in (
            ("segment_length", self.segment_length),
            ("m1_width", self.m1_width),
            ("m1_length_factor", self.m1_length_factor),
            ("m2_width", self.m2_width),
            ("m2_length_factor", self.m2_length_factor),
            ("c_node_x", self.c_node_x),
            ("min_output_width", self.min_output_width),
            ("rise_sense_depth", self.rise_sense_depth),
        ):
            if value <= 0.0:
                raise ConfigurationError(f"{key} must be positive, got {value}")

    @property
    def geometry(self) -> WireGeometry:
        return self.wire_geometry or WireGeometry.reference(self.tech)

    @property
    def total_length(self) -> float:
        return self.n_stages * self.segment_length


#: Width of the pulse the PM launches into the first segment; the repeated
#: pulses along the link settle near this width by design.
DEFAULT_LAUNCH_WIDTH = 150 * PS

#: Default far-end swing target at the typical corner.  This is the
#: "voltage swing selected for test chip fabrication" of Fig. 6; both
#: contender designs are built to deliver it at TT so the comparison is
#: iso-swing (and hence iso-energy to first order).
DEFAULT_NOMINAL_SWING = 0.30


def _nmos_amplitude_for_swing(
    tech: Technology, swing: float, driver: NMOSDriver, segment_length: float
) -> float:
    """Launch amplitude so the NMOS driver delivers ``swing`` at the far end.

    The attenuation depends (weakly) on the driver's pull-up resistance,
    which depends on Vref, which depends on the amplitude — a mild fixed
    point solved by a few substitutions.
    """
    from repro.tech.variation import nominal_sample
    from repro.wire.attenuation import attenuation_table
    from repro.wire.rc import WireSegment

    sample = nominal_sample(tech)
    segment = WireSegment(tech, WireGeometry.reference(tech), segment_length)
    c_load = tech.gate_c_per_m * 4.0 * UM * 4.0  # representative M1 gate
    amplitude = swing / 0.7  # initial guess near the typical attenuation
    for _ in range(4):
        vref = amplitude + tech.vth_n
        launch = driver.launch(sample, "solve", vref)
        table = attenuation_table(segment, launch.r_up, c_load, launch.r_down)
        ratio = table.peak_ratio(DEFAULT_LAUNCH_WIDTH)
        if ratio <= 0.0:
            raise ConfigurationError("wire attenuates the pulse to nothing")
        amplitude = swing / ratio
    if amplitude + tech.vth_n > tech.vdd + 0.15:
        raise ConfigurationError(
            f"target swing {swing} V is unreachable: required Vref exceeds Vdd"
        )
    return amplitude


def _inverter_width_for_swing(
    tech: Technology, swing: float, width_n: float, segment_length: float
) -> float:
    """PMOS width so a full-rail inverter delivers ``swing`` at the far end.

    This is the straightforward design's swing knob: a weak pull-up whose
    resistance, together with the wire, attenuates the launched pulse down
    to the target.  Bisection over width (attenuation is monotone in
    drive resistance).
    """
    from repro.tech.variation import nominal_sample
    from repro.wire.attenuation import attenuation_table
    from repro.wire.rc import WireSegment

    sample = nominal_sample(tech)
    segment = WireSegment(tech, WireGeometry.reference(tech), segment_length)
    c_load = tech.gate_c_per_m * 4.0 * UM * 4.0

    def far_swing(width_p: float) -> float:
        driver = InverterDriver(width_p=width_p, width_n=width_n)
        launch = driver.launch(sample, "solve", tech.vdd)
        table = attenuation_table(segment, launch.r_up, c_load, launch.r_down)
        return table.peak_ratio(DEFAULT_LAUNCH_WIDTH) * launch.amplitude

    lo, hi = 0.2 * UM, 60.0 * UM
    if far_swing(hi) < swing:
        raise ConfigurationError(f"target swing {swing} V is unreachable at Vdd rail")
    if far_swing(lo) > swing:
        raise ConfigurationError(f"target swing {swing} V is below the weakest driver")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if far_swing(mid) < swing:
            lo = mid
        else:
            hi = mid
    return hi


def robust_design(
    tech: Technology | None = None,
    nominal_swing: float = DEFAULT_NOMINAL_SWING,
    n_stages: int = 10,
    **overrides,
) -> SRLRDesignParams:
    """The paper's proposed process-variation-robust SRLR design.

    NMOS-based driver + alternating delay cells + adaptive swing reference
    (Section III).  ``nominal_swing`` is the far-end swing at the typical
    corner (the Fig. 6 sweep axis); the adaptive reference biases the
    driver to deliver the launch amplitude that produces it.
    """
    tech = tech or tech_45nm_soi()
    segment_length = overrides.get("segment_length", 1 * MM)
    driver = overrides.pop("driver", NMOSDriver())
    if "swing_reference" in overrides:
        swing_reference = overrides.pop("swing_reference")
    else:
        amplitude = _nmos_amplitude_for_swing(
            tech, nominal_swing, driver, segment_length
        )
        swing_reference = adaptive_for_amplitude(tech, amplitude)
    return SRLRDesignParams(
        tech=tech,
        delay_plan=overrides.pop("delay_plan", alternating_plan()),
        driver=driver,
        swing_reference=swing_reference,
        n_stages=n_stages,
        **overrides,
    )


def straightforward_design(
    tech: Technology | None = None,
    nominal_swing: float = DEFAULT_NOMINAL_SWING,
    n_stages: int = 10,
    **overrides,
) -> SRLRDesignParams:
    """The paper's baseline: inverter driver + single (6-buffer) delay cell.

    No adaptive swing (the inverter driver has nothing to bias): the
    far-end swing is set at design time by the pull-up width, so it rides
    every process corner uncorrected.
    """
    tech = tech or tech_45nm_soi()
    segment_length = overrides.get("segment_length", 1 * MM)
    if "driver" in overrides:
        driver = overrides.pop("driver")
    else:
        width_n = 8.0 * UM
        width_p = _inverter_width_for_swing(
            tech, nominal_swing, width_n, segment_length
        )
        driver = InverterDriver(width_p=width_p, width_n=width_n)
    return SRLRDesignParams(
        tech=tech,
        delay_plan=overrides.pop("delay_plan", single_plan()),
        driver=driver,
        swing_reference=overrides.pop(
            "swing_reference", FixedSwingReference(tech.vdd)
        ),
        n_stages=n_stages,
        **overrides,
    )


@dataclass(frozen=True)
class StageOutput:
    """Result of one stage processing one input pulse."""

    fired: bool
    failure: StageFailure
    out_width: float  # seconds; 0.0 when not fired
    launch: LaunchedDrive | None  # None when not fired
    stage_delay: float  # input arrival -> output pulse start, seconds
    t_trip: float  # X threshold-crossing time, seconds (inf if never)


@dataclass
class SRLRStage:
    """One instantiated repeater: design + stage index + one die's variation.

    All per-die electrical constants are resolved at construction so the
    per-bit ``transfer`` call is a handful of scalar operations.
    """

    design: SRLRDesignParams
    stage_index: int
    sample: VariationSample
    enabled: bool = True  # the EN port (crossbar crosspoint gating)
    #: Namespace for this stage's device-mismatch draws; a 64-bit bus
    #: gives each bit lane its own prefix so lanes share the die's global
    #: corner but draw independent local mismatch.
    name_prefix: str = ""
    #: The die's driver reference, when the caller already has it: Vref
    #: is one value per die, so a link resolves it at its first stage
    #: and hands it to the others.
    _vref: InitVar[float | None] = None

    # Resolved per-die constants (populated in __post_init__).
    v_standby: float = field(init=False)
    v_threshold: float = field(init=False)
    dv_trip: float = field(init=False)
    wx: float = field(init=False)
    t_intrinsic_rise: float = field(init=False)
    t_fall: float = field(init=False)
    vref: float = field(init=False)
    launch: LaunchedDrive = field(init=False)
    keeper_current: float = field(init=False)

    def __post_init__(self, _vref: float | None) -> None:
        if self.stage_index < 0:
            raise ConfigurationError(
                f"stage_index must be >= 0, got {self.stage_index}"
            )
        d = self.design
        name = f"{self.name_prefix}srlr{self.stage_index}"
        tech = d.tech

        # Mismatch scales with gate *area*: pass the area-equivalent width
        # (W * L/Lmin) to the variation sample; drive strength scales with
        # W/L, so the electrical device gets width / length_factor.
        vth_m1 = max(
            self.sample.vth(f"{name}.m1", "n", d.m1_width * d.m1_length_factor)
            + d.m1_vth_offset,
            0.02,
        )
        m1_width = d.m1_width / d.m1_length_factor
        check_device(m1_width, vth_m1, "n")

        vth_m2 = (
            self.sample.vth(f"{name}.m2", "n", d.m2_width * d.m2_length_factor)
            + d.m2_vth_offset
        )
        self.v_standby = tech.vdd - vth_m2
        self.v_threshold = d.inv.switching_threshold(self.sample, name)
        self.dv_trip = self.v_standby - self.v_threshold
        # The keeper opposes M1's discharge with the current of a minute
        # long-channel device whose gate sits at Vdd and source at X ~ V_M
        # during the descent: overdrive = Vdd - V_M - Vth(M2).
        keeper_width = d.m2_width / d.m2_length_factor
        keeper_vth = max(vth_m2, 0.02)
        self.keeper_current = saturation_current(
            tech, keeper_width, keeper_vth, "n", tech.vdd - self.v_threshold
        )

        # Scalar fast path for the Monte Carlo inner loop: M1's current at
        # (vgs=swing, vds=v_threshold) inlined as plain floats, equivalent
        # to self._m1.ids(swing, self.v_threshold).
        self._fp_vth = vth_m1
        self._fp_i0 = I0_PER_M * m1_width
        self._fp_k = tech.k_drive * m1_width
        self._fp_alpha = tech.alpha
        self._fp_nvt = tech.subthreshold_slope_n * VT_THERMAL
        self._fp_vds = self.v_threshold
        self._fp_vdsat_floor = 0.12 * vth_m1

        cell = d.delay_plan.cell_for_stage(self.stage_index)
        self.wx = cell.delay(self.sample, name)
        self.t_intrinsic_rise = d.inv.intrinsic_rise(self.sample, name)
        self.t_fall = d.inv.fall_time(self.sample, name)

        self.vref = d.swing_reference.vref(self.sample) if _vref is None else _vref
        self.launch = d.driver.launch(self.sample, name, self.vref)

    @property
    def _m1(self) -> Mosfet:
        """The input device M1 (construction keeps only its floats)."""
        d = self.design
        return Mosfet(d.tech, d.m1_width / d.m1_length_factor, self._fp_vth, "n")

    @property
    def is_stuck(self) -> bool:
        """True when the keeper/INV margin is inverted: X sits below the
        inverter threshold at standby and the stage fires continuously."""
        return self.dv_trip <= 0.0

    def net_discharge_current(self, swing: float) -> float:
        """M1's sink current minus the keeper's opposing current at ``swing``.

        Negative means the keeper wins and X never reaches the INV
        threshold: the swing is below the stage's sensitivity floor.
        (Inlined float math; equivalent to ``_m1.ids(swing, V_M)``.)
        """
        if swing <= 0.0:
            return -self.keeper_current
        overdrive = swing - self._fp_vth
        if overdrive <= 0.0:
            i_sat = self._fp_i0 * math.exp(overdrive / self._fp_nvt)
        else:
            i_sat = self._fp_i0 + self._fp_k * overdrive**self._fp_alpha
        vdsat = 0.8 * overdrive
        if vdsat < self._fp_vdsat_floor:
            vdsat = self._fp_vdsat_floor
        if self._fp_vds < vdsat:
            x = self._fp_vds / vdsat
            i_sat = i_sat * x * (2.0 - x)
        return i_sat - self.keeper_current

    def trip_time(self, swing: float) -> float:
        """Time for M1 at gate voltage ``swing`` to pull X across V_M."""
        current = self.net_discharge_current(swing)
        if current <= 0.0:
            return float("inf")
        return self.design.c_node_x * self.dv_trip / current

    def rise_lag(self, swing: float) -> float:
        """Swing-dependent extra rising time beyond the threshold crossing.

        The INV output midpoint lags X's V_M crossing by the time X takes
        to descend a further ``rise_sense_depth`` — inversely proportional
        to the net discharge current, hence growing sharply as the swing
        shrinks (the asymmetry at the heart of Section III-A).
        """
        current = self.net_discharge_current(swing)
        if current <= 0.0:
            return float("inf")
        return self.design.c_node_x * self.design.rise_sense_depth / current

    def transfer(self, in_swing: float, in_dwell: float) -> StageOutput:
        """Process one received pulse (peak ``in_swing``, dwell ``in_dwell``).

        ``in_dwell`` is the time the far-end waveform spends above half its
        peak: the window during which M1 meaningfully conducts.
        """
        no_launch = StageOutput(
            fired=False,
            failure=StageFailure.TOO_WEAK,
            out_width=0.0,
            launch=None,
            stage_delay=float("inf"),
            t_trip=float("inf"),
        )
        if not self.enabled:
            return no_launch
        if self.is_stuck:
            return StageOutput(
                fired=False,
                failure=StageFailure.STUCK,
                out_width=0.0,
                launch=None,
                stage_delay=float("inf"),
                t_trip=0.0,
            )
        t_trip = self.trip_time(in_swing)
        if t_trip > in_dwell:
            return no_launch

        t_rise = self.rise_lag(in_swing) + self.t_intrinsic_rise
        out_width = self.wx - (t_rise - self.t_fall)
        if out_width < self.design.min_output_width:
            return StageOutput(
                fired=False,
                failure=StageFailure.COLLAPSED,
                out_width=max(out_width, 0.0),
                launch=None,
                stage_delay=float("inf"),
                t_trip=t_trip,
            )
        return StageOutput(
            fired=True,
            failure=StageFailure.NONE,
            out_width=out_width,
            launch=self.launch,
            stage_delay=t_trip + t_rise,
            t_trip=t_trip,
        )

    def sensitivity_swing(self, dwell: float, tolerance: float = 1e-4) -> float:
        """Smallest input swing that trips the stage within ``dwell``.

        Bisection over the monotone trip-time curve; used by the sizing
        methodology (M1/M2 ratio vs. input sensitivity, Section II).
        """
        if dwell <= 0.0:
            raise ConfigurationError(f"dwell must be positive, got {dwell}")
        lo, hi = 1e-3, self.design.tech.vdd
        if self.trip_time(hi) > dwell:
            return float("inf")
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self.trip_time(mid) <= dwell:
                hi = mid
            else:
                lo = mid
        return hi
