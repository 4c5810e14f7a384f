"""Repeaterless and FFE-equalized long links: the [25]-[27] design style.

The prior works of Table I drive 5-10 mm wires directly — no repeaters —
and recover bandwidth with equalization (capacitive pre-emphasis [25],
FFE transceivers [26], adaptive pre-emphasis [27]).  This module builds
that alternative on our exact wire solver so the Fig. 8 comparison rests
on *simulated* physics on both sides, not only on published anchors:

* the channel is linear, so a full NRZ eye follows exactly from the
  single-bit pulse response by superposition (textbook ISI analysis:
  worst-case eye = main cursor minus the summed magnitudes of all other
  cursors);
* a feed-forward equalizer (FFE) is a tap vector applied to the drive
  levels — again linear, so the equalized pulse response is the tap-
  weighted sum of shifted responses.

The headline physics this reproduces: an unequalized 10 mm wire's eye
collapses below 1 Gb/s (tau ~ 3 ns), FFE buys several Gb/s at the cost of
drive energy, and the SRLR's repeat-per-mm approach sidesteps the whole
problem — the paper's Section I argument, now measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.tech.technology import Technology
from repro.units import FF, MM, fj_per_bit_per_cm
from repro.wire.ladder import build_ladder
from repro.wire.rc import WireGeometry, WireSegment
from repro.wire.transient import TransientSolver


@dataclass
class RepeaterlessLink:
    """A directly driven (optionally FFE-equalized) long on-chip wire.

    Attributes
    ----------
    tech:
        Process technology (wire parameters).
    length:
        End-to-end wire length (the prior works drive 5-10 mm).
    r_drive:
        Driver Thevenin resistance; long-wire drivers are big (low ohms),
        which is exactly their area problem (the 1760 um^2 of [26]).
    drive_amplitude:
        Unequalized drive level, volts.
    taps:
        FFE tap vector applied to the NRZ levels; ``(1.0,)`` means no
        equalization, ``(1.3, -0.3)`` is a classic 2-tap pre-emphasis.
        Tap magnitudes > 1 boost transition energy accordingly.
    c_load:
        Receiver input capacitance.
    """

    tech: Technology
    length: float = 10 * MM
    r_drive: float = 80.0
    drive_amplitude: float = 0.4
    taps: tuple[float, ...] = (1.0,)
    c_load: float = 10 * FF
    n_sections: int = 40

    solver: TransientSolver = field(init=False)

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ConfigurationError(f"length must be positive, got {self.length}")
        if not self.taps:
            raise ConfigurationError("taps must not be empty")
        if self.taps[0] <= 0.0:
            raise ConfigurationError("the main FFE tap must be positive")
        if self.drive_amplitude <= 0.0:
            raise ConfigurationError("drive_amplitude must be positive")
        segment = WireSegment(
            self.tech, WireGeometry.reference(self.tech), self.length
        )
        self.segment = segment
        self.solver = TransientSolver(
            build_ladder(segment, self.r_drive, self.c_load, self.n_sections)
        )

    # --- linear ISI analysis ------------------------------------------------------------

    def _cursors(self, bit_period: float, n_post: int = None) -> np.ndarray:
        """Far-end samples of the single-bit (equalized) pulse response.

        Returns the pulse response sampled at the decision instants
        t_s + j*T for j = 0..n_post, where t_s (the sampling phase) is
        chosen at the main cursor's peak.
        """
        if bit_period <= 0.0:
            raise ConfigurationError("bit_period must be positive")
        tau = self.solver.slowest_time_constant
        horizon = max(int(np.ceil(8.0 * tau / bit_period)) + len(self.taps), 4)
        if n_post is not None:
            horizon = max(horizon, n_post + 1)
        # Unequalized single-UI pulse response on a fine grid.
        t_end = (horizon + 1) * bit_period
        times = np.linspace(0.0, t_end, 2400)
        far_node = self.solver.network.n_nodes - 1
        far = self.solver.pulse_response(times, bit_period, 1.0, [far_node])[:, 0]
        # FFE: weighted sum of UI-shifted responses.
        eq = np.zeros_like(far)
        for i, tap in enumerate(self.taps):
            shift = i * bit_period
            eq += tap * np.interp(times - shift, times, far, left=0.0)
        # Sampling phase: at the equalized main-cursor peak (within the
        # first couple of UIs).
        search = times <= (1 + len(self.taps)) * bit_period
        t_sample = times[search][int(np.argmax(eq[search]))]
        sample_times = t_sample + bit_period * np.arange(horizon)
        return np.interp(sample_times, times, eq, left=0.0, right=0.0)

    def eye_height(self, data_rate: float) -> float:
        """Worst-case inner eye opening at the receiver, volts.

        main cursor - sum(|other cursors|), scaled by the drive amplitude;
        negative means the eye is closed for some bit pattern (linear
        channels make this bound exact and the pattern achievable).
        """
        if data_rate <= 0.0:
            raise ConfigurationError("data_rate must be positive")
        cursors = self._cursors(1.0 / data_rate)
        main = cursors[0]
        isi = float(np.sum(np.abs(cursors[1:])))
        return self.drive_amplitude * (main - isi)

    def max_data_rate(
        self, min_eye: float = 0.05, lo: float = 5e7, hi: float = 2e10
    ) -> float:
        """Highest rate with at least ``min_eye`` volts of inner eye."""
        if self.eye_height(lo) < min_eye:
            return 0.0
        if self.eye_height(hi) >= min_eye:
            return hi
        for _ in range(40):
            mid = (lo * hi) ** 0.5
            if self.eye_height(mid) >= min_eye:
                lo = mid
            else:
                hi = mid
        return lo

    # --- energy ---------------------------------------------------------------------------

    def energy_per_bit(self, activity: float = 0.5) -> float:
        """Supply energy per bit, joules.

        Wire charging at the drive amplitude, inflated by the FFE's
        transition boosting (sum |taps| of drive excursion per transition)
        — the standard first-order cost of pre-emphasis.
        """
        if not 0.0 < activity <= 1.0:
            raise ConfigurationError("activity must lie in (0, 1]")
        c_total = self.segment.capacitance + self.c_load
        boost = float(np.sum(np.abs(self.taps)))
        return activity * c_total * self.drive_amplitude * self.tech.vdd * boost

    def energy_fj_per_bit_per_cm(self, activity: float = 0.5) -> float:
        return fj_per_bit_per_cm(self.energy_per_bit(activity), self.length)


__all__ = ["RepeaterlessLink"]
