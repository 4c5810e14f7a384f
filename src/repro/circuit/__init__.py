"""The SRLR circuit, behaviorally: pulses, repeaters, links, test circuits."""

from repro.circuit.bus import (
    BusTransmission,
    BusYieldReport,
    SRLRBus,
    bus_yield,
    random_words,
)
from repro.circuit.bias import (
    BIAS_GENERATOR_POWER,
    AdaptiveSwingReference,
    FixedSwingReference,
    OgueyCurrentReference,
    SwingReference,
    adaptive_for_amplitude,
    fixed_for_amplitude,
)
from repro.circuit.delay_cell import (
    DEFAULT_BUFFER_DELAY,
    DelayCell,
    DelayCellPlan,
    alternating_plan,
    single_plan,
)
from repro.circuit.driver import (
    InverterDriver,
    LaunchedDrive,
    NMOSDriver,
    OutputDriver,
)
from repro.circuit.diagnostics import (
    LinkDiagnosis,
    StageDiagnosis,
    diagnose_link,
    margin_profile,
    stage_margins,
)
from repro.circuit.equalized import RepeaterlessLink
from repro.circuit.eye import EyeReport, eye_at_rate, eye_vs_rate
from repro.circuit.inv_amp import CurrentStarvedInverter
from repro.circuit.link import SRLRLink, StageRecord, TransmissionResult
from repro.circuit.prbs import (
    PRBS_TAPS,
    PrbsGenerator,
    worst_case_patterns,
)
from repro.circuit.pulse import Demodulator, Pulse, PulseModulator, PulseTrain
from repro.circuit.serdes import (
    SERDES_ENERGY_PER_BIT,
    SerializationPoint,
    max_feasible_ratio,
    serialization_sweep,
)
from repro.circuit.sizing import (
    DriverChoice,
    LengthPoint,
    SensitivityPoint,
    SwingEnergyPoint,
    optimize_driver,
    sensitivity_vs_m1_m2_ratio,
    sweep_segment_length,
    sweep_swing_energy,
)
from repro.circuit.srlr import (
    DEFAULT_LAUNCH_WIDTH,
    DEFAULT_NOMINAL_SWING,
    SRLRDesignParams,
    SRLRStage,
    StageFailure,
    StageOutput,
    robust_design,
    straightforward_design,
)
from repro.circuit.waveforms import StageWaveforms, stage_waveforms, waveform_table

__all__ = [
    "AdaptiveSwingReference",
    "BusTransmission",
    "BusYieldReport",
    "EyeReport",
    "LinkDiagnosis",
    "StageDiagnosis",
    "diagnose_link",
    "margin_profile",
    "stage_margins",
    "RepeaterlessLink",
    "SRLRBus",
    "bus_yield",
    "eye_at_rate",
    "eye_vs_rate",
    "random_words",
    "SERDES_ENERGY_PER_BIT",
    "SerializationPoint",
    "max_feasible_ratio",
    "serialization_sweep",
    "BIAS_GENERATOR_POWER",
    "CurrentStarvedInverter",
    "DEFAULT_BUFFER_DELAY",
    "DEFAULT_LAUNCH_WIDTH",
    "DEFAULT_NOMINAL_SWING",
    "DelayCell",
    "DriverChoice",
    "LengthPoint",
    "DelayCellPlan",
    "Demodulator",
    "FixedSwingReference",
    "InverterDriver",
    "LaunchedDrive",
    "NMOSDriver",
    "OgueyCurrentReference",
    "OutputDriver",
    "PRBS_TAPS",
    "PrbsGenerator",
    "Pulse",
    "PulseModulator",
    "PulseTrain",
    "SRLRDesignParams",
    "SRLRLink",
    "SRLRStage",
    "SensitivityPoint",
    "StageFailure",
    "StageOutput",
    "StageRecord",
    "StageWaveforms",
    "SwingEnergyPoint",
    "SwingReference",
    "TransmissionResult",
    "adaptive_for_amplitude",
    "alternating_plan",
    "fixed_for_amplitude",
    "optimize_driver",
    "robust_design",
    "sensitivity_vs_m1_m2_ratio",
    "single_plan",
    "stage_waveforms",
    "straightforward_design",
    "sweep_segment_length",
    "sweep_swing_energy",
    "waveform_table",
]
