"""Delay cells and the alternating delay cell plan (Section III-A).

The SRLR's self-reset loop closes through a delay cell: node X's low
interval Wx — and hence the output pulse width — is set by the delay cell's
propagation delay.  The paper's baseline ("single delay cell design") uses
a 6-buffer chain in every repeater; the proposed *alternating* design gives
odd and even repeaters intentionally different delays so that the
process-induced drift of the INV rising time no longer accumulates
monotonically along the link (Eq. (1)/(2)).

Buffers are modeled as current-starved (long effective delay per stage, as
delay cells in pulse circuits are) with delay proportional to the effective
switching resistance of their devices under the current variation sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.tech.mosfet import on_resistance
from repro.tech.technology import Technology
from repro.tech.variation import VariationSample
from repro.units import UM

#: Default per-buffer delay at the typical corner, seconds.  Chosen so the
#: paper's 6-buffer cell gives Wx ~ 156 ps: wide enough that the repeated
#: pulse keeps a sensible swing, narrow enough that the self-reset clears
#: within the 244 ps unit interval of the 4.1 Gb/s link.
DEFAULT_BUFFER_DELAY = 26e-12

#: Gate width of the representative starved-buffer devices, meters.
_BUF_WN = 1.2 * UM
_BUF_WP = 2.6 * UM


@dataclass(frozen=True)
class DelayCell:
    """An ``n_buffers``-stage starved-buffer delay chain."""

    n_buffers: int
    buffer_delay: float = DEFAULT_BUFFER_DELAY

    def __post_init__(self) -> None:
        if self.n_buffers < 1:
            raise ConfigurationError(f"n_buffers must be >= 1, got {self.n_buffers}")
        if self.buffer_delay <= 0.0:
            raise ConfigurationError(
                f"buffer_delay must be positive, got {self.buffer_delay}"
            )

    def nominal_delay(self) -> float:
        return self.n_buffers * self.buffer_delay

    def delay(self, sample: VariationSample, name: str) -> float:
        """Propagation delay under ``sample``'s process point.

        The delay scales with the average effective resistance of the
        buffer's NMOS and PMOS relative to their typical values, so FF dies
        produce short Wx and SS dies long Wx — the global drift that
        Section III-A's analysis rides on.  Local mismatch enters through
        the per-device draws keyed by ``name``.
        """
        scale = _strength_scale(sample, name)
        return self.n_buffers * self.buffer_delay * scale


def _strength_scale(sample: VariationSample, name: str) -> float:
    """Ratio of this die's buffer RC delay to the typical-corner delay."""
    tech = sample.tech
    vth_n = sample.vth(f"{name}.buf_n", "n", _BUF_WN)
    vth_p = sample.vth(f"{name}.buf_p", "p", _BUF_WP)
    return _avg_r(tech, vth_n, vth_p) / _typical_avg_r(tech)


@lru_cache(maxsize=8)
def _typical_avg_r(tech: Technology) -> float:
    return _avg_r(tech, tech.vth_n, tech.vth_p)


def _avg_r(tech: Technology, vth_n: float, vth_p: float) -> float:
    rn = on_resistance(tech, _BUF_WN, vth_n, "n")
    rp = on_resistance(tech, _BUF_WP, vth_p, "p")
    return 0.5 * (rn + rp)


@dataclass(frozen=True)
class DelayCellPlan:
    """Assignment of delay cells to the repeaters along a link.

    ``single_plan`` reproduces the paper's baseline (every repeater gets
    the same 6-buffer cell); ``alternating_plan`` reproduces the proposed
    design (odd repeaters long, even repeaters short, same average).
    """

    cells: tuple[DelayCell, ...]  # cycled over stage indices

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigurationError("plan must contain at least one delay cell")

    def cell_for_stage(self, stage_index: int) -> DelayCell:
        if stage_index < 0:
            raise ConfigurationError(f"stage_index must be >= 0, got {stage_index}")
        return self.cells[stage_index % len(self.cells)]

    @property
    def mean_nominal_delay(self) -> float:
        return sum(c.nominal_delay() for c in self.cells) / len(self.cells)


def single_plan(
    n_buffers: int = 6, buffer_delay: float = DEFAULT_BUFFER_DELAY
) -> DelayCellPlan:
    """The straightforward design: one delay cell everywhere (6 buffers).

    The paper notes this choice is the most reliable at the *typical*
    process condition — its weakness only appears at skewed corners.
    """
    return DelayCellPlan(cells=(DelayCell(n_buffers, buffer_delay),))


def alternating_plan(
    n_buffers: int = 6,
    delta_fraction: float = 0.03,
    buffer_delay: float = DEFAULT_BUFFER_DELAY,
    long_first: bool = True,
) -> DelayCellPlan:
    """The proposed design: odd and even SRLRs get different delay cells.

    Odd repeaters get a cell slowed by ``delta_fraction`` (up-sized loads /
    extra starving), even repeaters one sped up by the same fraction, so
    the *average* matches the single design and the typical operating
    point is unchanged; only the corner-drift behavior differs.  The
    intentional +-delta is what re-widens pulses that the accumulated
    INV rising-time drift has narrowed (and vice versa), per Section III-A.
    """
    if not 0.0 < delta_fraction < 1.0:
        raise ConfigurationError(
            f"delta_fraction must lie in (0, 1), got {delta_fraction}"
        )
    long_cell = DelayCell(n_buffers, buffer_delay * (1.0 + delta_fraction))
    short_cell = DelayCell(n_buffers, buffer_delay * (1.0 - delta_fraction))
    cells = (long_cell, short_cell) if long_first else (short_cell, long_cell)
    return DelayCellPlan(cells=cells)
