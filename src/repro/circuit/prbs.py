"""PRBS generation: the data source of the on-chip test circuit.

The fabricated link is fed by pseudo-random binary sequence data generated
on-chip, and a test circuit performs data comparison and error counting
(Section IV).  This module reproduces the data source exactly: standard
Fibonacci LFSRs (PRBS7, PRBS15, PRBS31 with their ITU polynomial taps).
The comparison and error count live in :func:`repro.mc.ber.measure_ber`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Standard maximal-length LFSR feedback taps (1-indexed bit positions).
PRBS_TAPS: dict[int, tuple[int, int]] = {
    7: (7, 6),  # x^7 + x^6 + 1
    9: (9, 5),  # x^9 + x^5 + 1
    15: (15, 14),  # x^15 + x^14 + 1
    23: (23, 18),  # x^23 + x^18 + 1
    31: (31, 28),  # x^31 + x^28 + 1
}


@dataclass
class PrbsGenerator:
    """A Fibonacci LFSR producing a maximal-length pseudo-random bit stream.

    ``order`` selects the polynomial (7, 9, 15, 23 or 31); ``seed`` is the
    initial register contents and must be nonzero (the all-zero state is
    the LFSR's single fixed point).
    """

    order: int
    seed: int = 1

    def __post_init__(self) -> None:
        if self.order not in PRBS_TAPS:
            raise ConfigurationError(
                f"unsupported PRBS order {self.order}; choose from {sorted(PRBS_TAPS)}"
            )
        mask = (1 << self.order) - 1
        if not 0 < self.seed <= mask:
            raise ConfigurationError(
                f"seed must be a nonzero {self.order}-bit value, got {self.seed}"
            )
        self._state = self.seed
        self._mask = mask
        tap_a, tap_b = PRBS_TAPS[self.order]
        self._shift_a = tap_a - 1
        self._shift_b = tap_b - 1

    @property
    def period(self) -> int:
        """Sequence period: 2^order - 1 for a maximal-length LFSR."""
        return (1 << self.order) - 1

    def next_bit(self) -> int:
        """Advance the register one step and return the output bit."""
        new = ((self._state >> self._shift_a) ^ (self._state >> self._shift_b)) & 1
        self._state = ((self._state << 1) | new) & self._mask
        return new

    def bits(self, n: int) -> list[int]:
        """The next ``n`` output bits."""
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        return [self.next_bit() for _ in range(n)]

    def reset(self, seed: int | None = None) -> None:
        """Reset the register to ``seed`` (default: the construction seed)."""
        seed = self.seed if seed is None else seed
        if not 0 < seed <= self._mask:
            raise ConfigurationError(
                f"seed must be a nonzero {self.order}-bit value, got {seed}"
            )
        self._state = seed


def worst_case_patterns(run_length: int = 4, repeats: int = 4) -> list[int]:
    """The paper's worst-case stress sequence family.

    Section III-B identifies '11110' — a run of 1s followed by a 0 — as the
    sequence that exposes the inverter driver's baseline-wander failure.
    This helper builds repeats of (run_length 1s, then a 0) with isolated
    1s between groups, which also stresses minimum-swing sensing.
    """
    if run_length < 1 or repeats < 1:
        raise ConfigurationError("run_length and repeats must be >= 1")
    pattern: list[int] = []
    for _ in range(repeats):
        pattern.extend([1] * run_length)
        pattern.append(0)
        pattern.extend([0, 1, 0])  # isolated 1 on a quiet baseline
    return pattern
