"""The 64-bit parallel SRLR datapath (Fig. 3).

The paper's router datapath is 64 SRLR lanes side by side: every lane
shares the die's global process corner and the single adaptive-swing bias
generator, but draws its own local device mismatch.  This module models
that bus:

* word-level transmission (one bit lane per payload bit),
* lane-to-lane latency **skew** (the asynchronous repeaters' arrival
  spread, which bounds how little retiming margin the DM needs),
* bus-level **yield**: one bad lane kills the word, so a w-bit bus's die
  failure probability is roughly 1 - (1 - p_lane)^w — quantified here by
  direct Monte Carlo rather than the independence approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.circuit.link import SRLRLink, transmit_batch
from repro.circuit.prbs import PrbsGenerator
from repro.circuit.srlr import SRLRDesignParams, robust_design
from repro.tech.variation import VariationSample, monte_carlo_sample, nominal_sample


@dataclass
class BusTransmission:
    """Outcome of sending words through the bus."""

    words_sent: list[int]
    words_received: list[int]
    n_bits: int
    lane_errors: list[int]  # bit errors per lane
    energy: float

    @property
    def word_errors(self) -> int:
        return sum(1 for a, b in zip(self.words_sent, self.words_received) if a != b)

    @property
    def ok(self) -> bool:
        return self.word_errors == 0


@dataclass
class SRLRBus:
    """``n_bits`` parallel SRLR links on one die.

    All lanes share the :class:`VariationSample` (one die, one global
    corner, one bias generator) while per-lane name prefixes give every
    lane's devices independent mismatch draws.
    """

    design: SRLRDesignParams
    n_bits: int = 64
    sample: VariationSample = None  # type: ignore[assignment]
    lanes: list[SRLRLink] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise ConfigurationError(f"n_bits must be >= 1, got {self.n_bits}")
        if self.sample is None:
            self.sample = nominal_sample(self.design.tech)
        self.lanes = [
            SRLRLink(self.design, self.sample, name_prefix=f"bit{j}.")
            for j in range(self.n_bits)
        ]

    # --- word transport ---------------------------------------------------------------

    def transmit_words(self, words: list[int], bit_period: float) -> BusTransmission:
        """Send ``words`` (n_bits-wide integers), one word per bit period.

        The lanes go through the link kernel as one batch, one bit plane
        per lane; lane energies are summed in lane order.
        """
        mask = (1 << self.n_bits) - 1
        for w in words:
            if not 0 <= w <= mask:
                raise ConfigurationError(
                    f"word {w:#x} does not fit in {self.n_bits} bits"
                )
        planes = [[(w >> j) & 1 for w in words] for j in range(self.n_bits)]
        energy = 0.0
        lane_errors = []
        received_planes = []
        for outcome in transmit_batch(self.lanes, planes, bit_period):
            energy += outcome.energy
            lane_errors.append(outcome.n_errors)
            received_planes.append(outcome.received)
        received_words = [
            sum(received_planes[j][k] << j for j in range(self.n_bits))
            for k in range(len(words))
        ]
        return BusTransmission(
            words_sent=list(words),
            words_received=received_words,
            n_bits=self.n_bits,
            lane_errors=lane_errors,
            energy=energy,
        )

    # --- skew --------------------------------------------------------------------------

    def lane_latencies(self) -> list[float]:
        """Isolated-pulse latency of every lane (seconds)."""
        return [lane.latency() for lane in self.lanes]

    def skew(self) -> float:
        """Max - min lane latency: the DM's retiming margin requirement."""
        latencies = self.lane_latencies()
        finite = [t for t in latencies if t != float("inf")]
        if len(finite) != len(latencies):
            return float("inf")
        return max(finite) - min(finite)


def random_words(n_words: int, n_bits: int = 64, seed: int = 21) -> list[int]:
    """PRBS-derived test words (the bus equivalent of the PRBS generator)."""
    if n_words < 1:
        raise ConfigurationError(f"n_words must be >= 1, got {n_words}")
    gen = PrbsGenerator(31, seed=seed + 1)
    words = []
    for _ in range(n_words):
        bits = gen.bits(n_bits)
        words.append(sum(b << j for j, b in enumerate(bits)))
    return words


@dataclass(frozen=True)
class BusYieldReport:
    """Monte Carlo bus yield vs the single-lane baseline."""

    n_bits: int
    n_runs: int
    lane_failure_probability: float
    bus_failure_probability: float

    @property
    def independence_prediction(self) -> float:
        """1 - (1 - p_lane)^w: what independent lanes would give."""
        return 1.0 - (1.0 - self.lane_failure_probability) ** self.n_bits


def bus_yield(
    design: SRLRDesignParams | None = None,
    n_bits: int = 8,
    n_runs: int = 100,
    n_words: int = 32,
    bit_period: float = 1.0 / 4.1e9,
    base_seed: int = 3001,
) -> BusYieldReport:
    """Monte Carlo yield of an ``n_bits`` bus vs its lanes.

    Lanes on one die share the global corner, so lane failures are
    strongly correlated: the measured bus failure probability sits far
    below the independent-lanes prediction — the reason a 64-bit SRLR
    datapath is viable at all.
    """
    if n_runs < 1 or n_words < 1:
        raise ConfigurationError("n_runs and n_words must be >= 1")
    design = design or robust_design()
    words = random_words(n_words, n_bits)
    lane_fail = 0
    bus_fail = 0
    for i in range(n_runs):
        sample = monte_carlo_sample(design.tech, base_seed + i)
        bus = SRLRBus(design, n_bits=n_bits, sample=sample)
        outcome = bus.transmit_words(words, bit_period)
        failing_lanes = sum(1 for e in outcome.lane_errors if e > 0)
        lane_fail += failing_lanes
        bus_fail += 0 if outcome.ok else 1
    return BusYieldReport(
        n_bits=n_bits,
        n_runs=n_runs,
        lane_failure_probability=lane_fail / (n_runs * n_bits),
        bus_failure_probability=bus_fail / n_runs,
    )


__all__ = [
    "BusTransmission",
    "BusYieldReport",
    "SRLRBus",
    "bus_yield",
    "random_words",
]
