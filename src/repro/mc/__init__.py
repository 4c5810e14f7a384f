"""Monte Carlo variation analysis and BER estimation."""

from repro.mc.ber import (
    BerMeasurement,
    ber_upper_bound,
    ber_upper_bound_many,
    measure_ber,
    q_factor_ber,
)
from repro.mc.engine import (
    ImmunityRatio,
    McResult,
    McRun,
    default_stress_pattern,
    immunity_ratio,
    run_monte_carlo,
    simulate_die,
    simulate_dies,
)
from repro.mc.yield_analysis import (
    SwingSweep,
    SwingSweepPoint,
    design_variants,
    sweep_swing,
)

__all__ = [
    "BerMeasurement",
    "ImmunityRatio",
    "simulate_die",
    "simulate_dies",
    "McResult",
    "McRun",
    "SwingSweep",
    "SwingSweepPoint",
    "ber_upper_bound",
    "ber_upper_bound_many",
    "default_stress_pattern",
    "design_variants",
    "immunity_ratio",
    "measure_ber",
    "q_factor_ber",
    "run_monte_carlo",
]
