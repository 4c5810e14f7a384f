"""Per-link fault models: where the errors come from.

Each model is a small frozen dataclass (picklable, hashable, content
addressable) that materializes one *state* object per link.  States
answer two questions for every traversal:

* what is the probability that this flit arrives with at least one bit
  flipped (``flit_error_probability``), and
* is the link permanently dropping traffic right now (``drops``).

The probabilities are fed by the circuit layer where it matters:
:class:`CircuitBer` propagates a pulse through the calibrated SRLR link
at the requested swing/corner and converts the worst-stage sensing
margin into a BER with the same Q-factor extrapolation the paper (and
:func:`repro.mc.ber.q_factor_ber`) uses for its 1e-9 claim.

Determinism: states draw only from RNG streams derived with
:func:`repro.runtime.seeds.derived_seed` from ``(base_seed, link
token)``, and episodic models advance their schedules keyed by *cycle
number*, not call count — so a campaign's per-link error counts are
bitwise identical for any worker count and any traffic interleaving
that visits cycles in order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.config import check_fields, checked
from repro.errors import ConfigurationError
from repro.circuit.link import SRLRLink
from repro.circuit.srlr import robust_design
from repro.mc.ber import q_factor_ber
from repro.runtime.seeds import derived_seed
from repro.tech.corners import fixed_corners
from repro.tech.variation import corner_sample

#: Model keys accepted by :func:`make_fault_model`.
FAULT_MODELS = ("none", "uniform", "circuit", "droop", "burst", "dead")


def flit_error_probability(ber: float, flit_bits: int) -> float:
    """P(at least one of ``flit_bits`` bits flips) at a per-bit ``ber``.

    Uses ``-expm1(n*log1p(-ber))`` so BERs far below 1/n stay exact
    instead of cancelling to zero.
    """
    if not 0.0 <= ber <= 1.0:
        raise ConfigurationError(f"ber must lie in [0, 1], got {ber}")
    if flit_bits < 1:
        raise ConfigurationError(f"flit_bits must be >= 1, got {flit_bits}")
    if ber == 1.0:
        return 1.0
    return -math.expm1(flit_bits * math.log1p(-ber))


# --- per-link states --------------------------------------------------------------------


class LinkFaultState:
    """Fault behavior of one link under one model (default: fault-free)."""

    def flit_error_probability(self, cycle: int, flit_bits: int) -> float:
        return 0.0

    def drops(self, cycle: int) -> bool:
        """True when the link is permanently absorbing whole packets."""
        return False

    def fixed_flit_error_probability(self, flit_bits: int) -> float | None:
        """The flit error probability if it never changes, else None.

        A fixed probability (and no drops) lets the fault channel draw
        its uniforms in blocks and keep only the faulty draw indices
        (:class:`repro.fault.injector.FixedRateChannel`).
        """
        return None


class _ConstantBerState(LinkFaultState):
    def __init__(self, ber: float) -> None:
        self.ber = ber
        # flit_error_probability(ber, flit_bits), computed once for the
        # flit width in use rather than once per flit traversal.
        self._flit_bits = None
        self._p_flit = 0.0

    def flit_error_probability(self, cycle: int, flit_bits: int) -> float:
        if flit_bits != self._flit_bits:
            self._p_flit = flit_error_probability(self.ber, flit_bits)
            self._flit_bits = flit_bits
        return self._p_flit

    def fixed_flit_error_probability(self, flit_bits: int) -> float | None:
        return self.flit_error_probability(0, flit_bits)


class _EpisodeState(LinkFaultState):
    """Base BER with exponential on/off episodes of elevated BER.

    The episode schedule is drawn lazily *in cycle order* from a
    dedicated RNG stream, so it depends only on ``(seed, link token)``
    — never on how many flits happened to traverse the link.
    """

    def __init__(
        self,
        base_ber: float,
        episode_ber: float,
        mean_interval: float,
        mean_duration: float,
        rng: np.random.Generator,
    ) -> None:
        self.base_ber = base_ber
        self.episode_ber = episode_ber
        self.mean_interval = mean_interval
        self.mean_duration = mean_duration
        self._rng = rng
        self._start = self._next_gap(0)
        self._end = self._start + self._next_duration()

    def _next_gap(self, after: int) -> int:
        return after + 1 + int(self._rng.exponential(self.mean_interval))

    def _next_duration(self) -> int:
        return 1 + int(self._rng.exponential(self.mean_duration))

    def _in_episode(self, cycle: int) -> bool:
        while cycle >= self._end:
            self._start = self._next_gap(self._end)
            self._end = self._start + self._next_duration()
        return cycle >= self._start

    def flit_error_probability(self, cycle: int, flit_bits: int) -> float:
        ber = self.episode_ber if self._in_episode(cycle) else self.base_ber
        return flit_error_probability(ber, flit_bits)


class _BurstState(LinkFaultState):
    """Per-traversal burst probability on top of a base BER."""

    def __init__(self, base_ber: float, burst_probability: float) -> None:
        self.base_ber = base_ber
        self.burst_probability = burst_probability

    def flit_error_probability(self, cycle: int, flit_bits: int) -> float:
        p = flit_error_probability(self.base_ber, flit_bits)
        return 1.0 - (1.0 - p) * (1.0 - self.burst_probability)


class _DeadState(LinkFaultState):
    """A link that fails permanently at ``fail_cycle``."""

    def __init__(self, fail_cycle: int, mode: str, base: LinkFaultState) -> None:
        self.fail_cycle = fail_cycle
        self.mode = mode
        self.base = base

    def flit_error_probability(self, cycle: int, flit_bits: int) -> float:
        if cycle >= self.fail_cycle and self.mode == "garbage":
            return 1.0
        return self.base.flit_error_probability(cycle, flit_bits)

    def drops(self, cycle: int) -> bool:
        return cycle >= self.fail_cycle and self.mode == "drop"


class _CompositeState(LinkFaultState):
    def __init__(self, states: list[LinkFaultState]) -> None:
        self.states = states

    def flit_error_probability(self, cycle: int, flit_bits: int) -> float:
        ok = 1.0
        for state in self.states:
            ok *= 1.0 - state.flit_error_probability(cycle, flit_bits)
        return 1.0 - ok

    def drops(self, cycle: int) -> bool:
        return any(state.drops(cycle) for state in self.states)


# --- models -----------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultModel:
    """Base model: no faults.  Subclasses override :meth:`make_state`."""

    @property
    def key(self) -> str:
        return "none"

    def make_state(self, token: str, base_seed: int) -> LinkFaultState:
        return LinkFaultState()

    def make_states(
        self, tokens: list[str], base_seed: int
    ) -> dict[str, LinkFaultState]:
        """One state per link token (override for cross-link models)."""
        return {token: self.make_state(token, base_seed) for token in tokens}

    def _rng(self, token: str, base_seed: int, purpose: str) -> np.random.Generator:
        return np.random.default_rng(
            derived_seed(base_seed, f"fault/{self.key}/{purpose}/{token}")
        )


@dataclass(frozen=True)
class NoFaults(FaultModel):
    """Explicit fault-free model (the parity/golden-regression anchor)."""


@dataclass(frozen=True)
class UniformBer(FaultModel):
    """A flat per-bit error rate on every link (the campaign sweep axis)."""

    ber: float = checked(1e-6, interval="[0, 1]")

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def key(self) -> str:
        return "uniform"

    def make_state(self, token: str, base_seed: int) -> LinkFaultState:
        return _ConstantBerState(self.ber)


@functools.lru_cache(maxsize=64)
def circuit_ber(
    swing: float,
    noise_sigma: float = 0.006,
    bit_period: float = 1.0 / 4.1e9,
    corner: str = "TT",
) -> float:
    """Per-bit error rate of the SRLR link at (swing, corner, rate).

    Propagates one pulse through the calibrated robust design at the
    requested far-end ``swing`` and global ``corner``, takes the *worst
    stage's* sensing margin (input swing minus the smallest swing that
    still trips the stage within its dwell), and converts margin to BER
    with the Gaussian Q-factor — the same extrapolation the paper uses
    to state BER < 1e-9 from a finite error count.  A pulse that dies
    before the last stage is a stuck link: BER 0.5.
    """
    if swing <= 0.0:
        raise ConfigurationError(f"swing must be positive, got {swing}")
    design = robust_design(nominal_swing=swing)
    corners = fixed_corners(design.tech)
    if corner not in corners:
        raise ConfigurationError(
            f"unknown corner {corner!r}; choose from {sorted(corners)}"
        )
    sample = corner_sample(design.tech, corners[corner])
    link = SRLRLink(design, sample)
    records = link.propagate_pulse(dwell_limit=bit_period)
    if len(records) < design.n_stages or not records[-1].fired:
        return 0.5
    margin = math.inf
    for stage, record in zip(link.stages, records):
        sensitivity = stage.sensitivity_swing(record.in_dwell)
        margin = min(margin, record.in_swing - sensitivity)
    if margin <= 0.0:
        return 0.5
    return min(q_factor_ber(margin, noise_sigma), 0.5)


@dataclass(frozen=True)
class CircuitBer(FaultModel):
    """Swing/corner-dependent BER derived from the circuit layer.

    ``noise_sigma`` is the aggregate received-voltage noise (thermal +
    supply + residual crosstalk) at speed; 6 mV against the calibrated
    design's ~50 mV worst-stage margin puts the nominal 300 mV link far
    below 1e-9 (the paper's regime), while reduced swings or the slow
    corner collapse the margin and climb into the measurable range.
    """

    swing: float = 0.30
    noise_sigma: float = 0.006
    bit_period: float = 1.0 / 4.1e9
    corner: str = "TT"

    @property
    def key(self) -> str:
        return "circuit"

    @property
    def ber(self) -> float:
        return circuit_ber(self.swing, self.noise_sigma, self.bit_period, self.corner)

    def make_state(self, token: str, base_seed: int) -> LinkFaultState:
        return _ConstantBerState(self.ber)


@dataclass(frozen=True)
class SupplyDroop(FaultModel):
    """Supply-droop episodes: intervals of collapsed margin, elevated BER.

    Episodes arrive per link with exponential inter-arrival
    (``mean_interval_cycles``) and exponential duration
    (``mean_duration_cycles``); during an episode the per-bit error rate
    is ``droop_ber`` instead of ``base_ber``.
    """

    base_ber: float = checked(1e-12, interval="[0, 1]")
    droop_ber: float = checked(1e-3, interval="[0, 1]")
    mean_interval_cycles: float = checked(400.0, interval="(0, inf)")
    mean_duration_cycles: float = checked(40.0, interval="(0, inf)")

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def key(self) -> str:
        return "droop"

    def make_state(self, token: str, base_seed: int) -> LinkFaultState:
        return _EpisodeState(
            self.base_ber,
            self.droop_ber,
            self.mean_interval_cycles,
            self.mean_duration_cycles,
            self._rng(token, base_seed, "episodes"),
        )


@dataclass(frozen=True)
class CrosstalkBurst(FaultModel):
    """Aggressor-coupling bursts: a per-traversal chance the flit is hit.

    Unlike a per-bit BER, a crosstalk event couples into many bits of
    the parallel bus at once, so it is modeled as a flat per-flit
    corruption probability on top of ``base_ber``.
    """

    burst_probability: float = checked(1e-4, interval="[0, 1]")
    base_ber: float = checked(0.0, interval="[0, 1]")

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def key(self) -> str:
        return "burst"

    def make_state(self, token: str, base_seed: int) -> LinkFaultState:
        return _BurstState(self.base_ber, self.burst_probability)


@dataclass(frozen=True)
class DeadLinks(FaultModel):
    """Permanent link degradation: named or randomly chosen victims die.

    ``victims`` selects links by token (``"x,y->x,y"``); ``n_random``
    additionally kills that many links chosen by a content-addressed
    draw over the sorted token list.  ``mode`` is ``"garbage"`` (the
    wire delivers corrupted flits — a stuck driver) or ``"drop"`` (the
    receiver absorbs whole packets — a severed wire).
    """

    victims: tuple[str, ...] = ()
    n_random: int = 0
    fail_cycle: int = 0
    mode: str = "garbage"
    base_ber: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("garbage", "drop"):
            raise ConfigurationError(
                f"mode must be 'garbage' or 'drop', got {self.mode!r}"
            )
        if self.n_random < 0:
            raise ConfigurationError(f"n_random must be >= 0, got {self.n_random}")
        if self.fail_cycle < 0:
            raise ConfigurationError(f"fail_cycle must be >= 0, got {self.fail_cycle}")
        if not 0.0 <= self.base_ber <= 1.0:
            raise ConfigurationError(f"base_ber must lie in [0, 1], got {self.base_ber}")

    @property
    def key(self) -> str:
        return "dead"

    def make_states(
        self, tokens: list[str], base_seed: int
    ) -> dict[str, LinkFaultState]:
        victims = set(self.victims)
        unknown = victims - set(tokens)
        if unknown:
            raise ConfigurationError(f"unknown victim links: {sorted(unknown)}")
        if self.n_random:
            pool = sorted(set(tokens) - victims)
            if self.n_random > len(pool):
                raise ConfigurationError(
                    f"n_random={self.n_random} exceeds the {len(pool)} eligible links"
                )
            rng = np.random.default_rng(derived_seed(base_seed, "fault/dead/victims"))
            picks = rng.choice(len(pool), size=self.n_random, replace=False)
            victims.update(pool[i] for i in sorted(int(i) for i in picks))
        states: dict[str, LinkFaultState] = {}
        for token in tokens:
            base = _ConstantBerState(self.base_ber)
            if token in victims:
                states[token] = _DeadState(self.fail_cycle, self.mode, base)
            else:
                states[token] = base
        return states

    def make_state(self, token: str, base_seed: int) -> LinkFaultState:
        base = _ConstantBerState(self.base_ber)
        if token in self.victims:
            return _DeadState(self.fail_cycle, self.mode, base)
        return base


@dataclass(frozen=True)
class CompositeFault(FaultModel):
    """Independent composition of several fault sources."""

    models: tuple[FaultModel, ...] = ()

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigurationError("CompositeFault needs at least one model")

    @property
    def key(self) -> str:
        return "composite(" + ",".join(m.key for m in self.models) + ")"

    def make_states(
        self, tokens: list[str], base_seed: int
    ) -> dict[str, LinkFaultState]:
        per_model = [m.make_states(tokens, base_seed) for m in self.models]
        return {
            token: _CompositeState([states[token] for states in per_model])
            for token in tokens
        }

    def make_state(self, token: str, base_seed: int) -> LinkFaultState:
        return _CompositeState([m.make_state(token, base_seed) for m in self.models])


def make_fault_model(key: str, **kwargs) -> FaultModel:
    """Build a fault model by key (the CLI entry point)."""
    factories = {
        "none": NoFaults,
        "uniform": UniformBer,
        "circuit": CircuitBer,
        "droop": SupplyDroop,
        "burst": CrosstalkBurst,
        "dead": DeadLinks,
    }
    if key not in factories:
        raise ConfigurationError(
            f"unknown fault model {key!r}; choose from {FAULT_MODELS}"
        )
    return factories[key](**kwargs)


__all__ = [
    "FAULT_MODELS",
    "CircuitBer",
    "CompositeFault",
    "CrosstalkBurst",
    "DeadLinks",
    "FaultModel",
    "LinkFaultState",
    "NoFaults",
    "SupplyDroop",
    "UniformBer",
    "circuit_ber",
    "flit_error_probability",
    "make_fault_model",
]
