"""Swing sweeps of Monte Carlo error probability: the Fig. 6 experiment.

Fig. 6 plots error probability (from 1000-run Monte Carlo) against swing
voltage for SRLR design variants.  This module sweeps the nominal far-end
swing, rebuilding each design at every swing point, and collects the error
probabilities — plus the per-technique ablation variants (NMOS vs inverter
driver, alternating vs single delay cells, adaptive vs fixed swing) that
decompose the robust design's advantage.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.circuit.bias import fixed_for_amplitude
from repro.circuit.delay_cell import single_plan
from repro.circuit.srlr import (
    DEFAULT_NOMINAL_SWING,
    SRLRDesignParams,
    _nmos_amplitude_for_swing,
    robust_design,
    straightforward_design,
)
from repro.mc.engine import McResult, MonteCarloConfig, run_monte_carlo
from repro.runtime import (
    ParallelExecutor,
    ProgressHook,
    ResultCache,
    driver_executor,
)
from repro.tech.technology import Technology, tech_45nm_soi


def design_variants(
    tech: Technology | None = None, nominal_swing: float | None = None
) -> dict[str, SRLRDesignParams]:
    """The Fig. 6 contenders plus single-technique ablations.

    Keys:

    * ``robust`` — NMOS driver + alternating delay cells + adaptive swing
      (the paper's proposed design);
    * ``straightforward`` — inverter driver + single delay cell + fixed
      swing (the paper's baseline);
    * ``no_alternating`` — robust with single delay cells;
    * ``no_adaptive`` — robust with a fixed Vref rail;
    * ``no_nmos_driver`` — straightforward driver/reference but with
      alternating delay cells (isolates the driver's contribution).

    Every variant is built for one swing, ``nominal_swing`` (default
    :data:`~repro.circuit.srlr.DEFAULT_NOMINAL_SWING`).
    """
    tech = tech or tech_45nm_soi()
    swing = DEFAULT_NOMINAL_SWING if nominal_swing is None else nominal_swing
    robust = robust_design(tech, nominal_swing=swing)
    straightforward = straightforward_design(tech, nominal_swing=swing)
    # Fixed reference delivering the same nominal amplitude as the robust
    # design's adaptive reference does at TT.
    amplitude = _nmos_amplitude_for_swing(
        tech, swing, robust.driver, robust.segment_length
    )
    return {
        "robust": robust,
        "straightforward": straightforward,
        "no_alternating": dataclasses.replace(robust, delay_plan=single_plan()),
        "no_adaptive": dataclasses.replace(
            robust, swing_reference=fixed_for_amplitude(tech, amplitude)
        ),
        "no_nmos_driver": dataclasses.replace(
            straightforward, delay_plan=robust.delay_plan
        ),
    }


@dataclass
class SwingSweepPoint:
    """Monte Carlo outcomes of every design variant at one swing value."""

    swing: float
    results: dict[str, McResult] = field(default_factory=dict)

    def error_probability(self, variant: str) -> float:
        return self.results[variant].error_probability


@dataclass
class SwingSweep:
    """The full Fig. 6 dataset: error probability vs swing per variant."""

    points: list[SwingSweepPoint] = field(default_factory=list)

    @property
    def swings(self) -> list[float]:
        return [p.swing for p in self.points]

    def series(self, variant: str) -> list[float]:
        return [p.error_probability(variant) for p in self.points]

    def variants(self) -> list[str]:
        return sorted(self.points[0].results) if self.points else []


def sweep_swing(
    swings: list[float],
    variants: list[str] | None = None,
    n_runs: int = MonteCarloConfig.n_runs,
    bit_period: float = MonteCarloConfig.bit_period,
    tech: Technology | None = None,
    base_seed: int = MonteCarloConfig.base_seed,
    n_jobs: int | None = 1,
    executor: ParallelExecutor | None = None,
    cache: ResultCache | None = None,
    progress: ProgressHook | None = None,
) -> SwingSweep:
    """Monte Carlo error probability over a swing sweep (Fig. 6).

    ``variants`` defaults to the two headline designs; pass the ablation
    keys from :func:`design_variants` for the decomposition study.  The
    same seed sequence is used at every (swing, variant) point so the
    comparison is paired: every design faces the same set of dies.

    ``n_jobs`` and ``progress`` build the executor unless a pre-built
    ``executor`` is given (passing both is a :class:`ConfigurationError`);
    it and ``cache`` are forwarded to every underlying
    :func:`run_monte_carlo` block (the dies parallelize; the sweep order
    stays deterministic regardless of worker count).
    """
    if not swings:
        raise ConfigurationError("swings must not be empty")
    variants = variants or ["robust", "straightforward"]
    executor = driver_executor(executor, n_jobs, progress)
    sweep = SwingSweep()
    for swing in swings:
        if swing <= 0.0:
            raise ConfigurationError(f"swing must be positive, got {swing}")
        designs = design_variants(tech, nominal_swing=swing)
        unknown = set(variants) - set(designs)
        if unknown:
            raise ConfigurationError(f"unknown design variants: {sorted(unknown)}")
        point = SwingSweepPoint(swing=swing)
        for key in variants:
            point.results[key] = run_monte_carlo(
                designs[key],
                n_runs=n_runs,
                bit_period=bit_period,
                base_seed=base_seed,
                executor=executor,
                cache=cache,
            )
        sweep.points.append(point)
    return sweep


__all__ = ["SwingSweep", "SwingSweepPoint", "design_variants", "sweep_swing"]
