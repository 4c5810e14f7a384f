"""Monte Carlo engine over SRLR link designs.

Reproduces the paper's 1000-run Monte Carlo methodology (Fig. 6): each run
draws one die — a global (die-to-die) corner shared by every device plus
independent local mismatch per device — instantiates the link on that die,
transmits a stress pattern, and records whether any bit failed.

The per-die failure *probability* (fraction of dies that cannot carry the
pattern error-free) is the paper's "error probability" axis; "process
variation immunity" is its reciprocal ratio between designs.

Dies are independent, so the engine fans them across worker processes via
:class:`repro.runtime.ParallelExecutor`; each executor chunk of dies goes
through the batched link kernel in one call (:func:`simulate_dies`).
Each die's randomness depends only on its own integer seed, so any
``n_jobs`` or chunking produces results *identical* to the serial
reference (``n_jobs=1``), and an opt-in
:class:`repro.runtime.ResultCache` can skip whole blocks whose inputs
hash to an already-computed entry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.config import check_fields, checked
from repro.circuit.link import SRLRLink, transmit_batch
from repro.circuit.prbs import PrbsGenerator, worst_case_patterns
from repro.circuit.srlr import (
    SRLRDesignParams,
    robust_design,
    straightforward_design,
)
from repro.runtime import (
    MISS,
    ParallelExecutor,
    ResultCache,
    TaskFailure,
    checkpoint_store,
    content_key,
    driver_executor,
    run_checkpointed,
    sequential_seeds,
)
from repro.tech.variation import monte_carlo_sample


def default_stress_pattern(n_prbs: int = 127) -> list[int]:
    """The measurement pattern: PRBS7 traffic plus the '11110' stressors."""
    return PrbsGenerator(7).bits(n_prbs) + worst_case_patterns()


#: Named link designs submittable by JSON configs.
DESIGNS: dict[str, Callable[..., SRLRDesignParams]] = {
    "robust": robust_design,
    "straightforward": straightforward_design,
}


@dataclass(frozen=True)
class MonteCarloConfig:
    """One Monte Carlo campaign: the service's ``monte_carlo`` config,
    and the defaults and checks of :func:`run_monte_carlo`.

    ``design`` names a :data:`DESIGNS` builder, called with
    ``design_kwargs`` (:func:`run_monte_carlo` takes the design itself).
    Die ``i`` draws seed ``base_seed + i``.  ``pattern`` defaults to the
    paper's stress pattern; ``block_size`` is the dies per service task.
    """

    design: str = checked("robust", choices=sorted(DESIGNS))
    design_kwargs: dict[str, Any] = field(default_factory=dict)
    n_runs: int = checked(1000, interval="[1, inf)")
    base_seed: int = 2013
    bit_period: float = checked(1.0 / 4.1e9, interval="(0, inf)")
    local_enabled: bool = True
    pattern: tuple[int, ...] | None = checked(None, choices=(0, 1))
    block_size: int = checked(16, interval="[1, inf)")

    def __post_init__(self) -> None:
        check_fields(self)
        pattern = self.pattern or default_stress_pattern()
        object.__setattr__(self, "pattern", tuple(pattern))


@dataclass(frozen=True)
class McRun:
    """One die's outcome."""

    seed: int
    ok: bool
    n_errors: int
    stuck: bool
    dvth_n: float
    dvth_p: float


@dataclass
class McResult:
    """Aggregate over all dies of one design point."""

    design: SRLRDesignParams
    runs: list[McRun] = field(default_factory=list)
    #: Dies whose *simulation task* exhausted its retry budget under a
    #: :class:`~repro.runtime.ResilienceConfig` (not signaling failures —
    #: those are ordinary ``runs`` with ``ok=False``).  Empty without one.
    failures: list[TaskFailure] = field(default_factory=list)

    @classmethod
    def from_values(
        cls, design: SRLRDesignParams, values: list[McRun | TaskFailure]
    ) -> "McResult":
        """The result of campaign-ordered die outcomes; a
        :class:`TaskFailure` slot goes to ``failures``."""
        return cls(
            design=design,
            runs=[v for v in values if not isinstance(v, TaskFailure)],
            failures=[v for v in values if isinstance(v, TaskFailure)],
        )

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.runs if not r.ok)

    @property
    def error_probability(self) -> float:
        """Fraction of dies failing the stress pattern (Fig. 6 y-axis)."""
        if not self.runs:
            return 0.0
        return self.n_failures / self.n_runs

    def failure_seeds(self) -> list[int]:
        return [r.seed for r in self.runs if not r.ok]


def simulate_dies(
    seeds: list[int],
    design: SRLRDesignParams,
    pattern: tuple[int, ...],
    bit_period: float,
    local_enabled: bool,
) -> list[McRun]:
    """Draw each die by its seed, transmit the pattern, record the outcomes.

    Dies are built in seed order (each from its own seeded stream) and
    then sent through the batched link kernel in one call, so every
    :class:`McRun` depends only on its own seed — any partition of the
    seeds into blocks gives the same runs.  Module-level (not a closure)
    so a :class:`ParallelExecutor` can ship it to worker processes.
    """
    samples = []
    links = []
    for seed in seeds:
        sample = monte_carlo_sample(design.tech, seed, local_enabled=local_enabled)
        samples.append(sample)
        links.append(SRLRLink(design, sample))
    outcomes = transmit_batch(links, list(pattern), bit_period)
    return [
        McRun(
            seed=seed,
            ok=outcome.ok,
            n_errors=outcome.n_errors,
            stuck=outcome.stuck,
            dvth_n=sample.global_corner.dvth_n,
            dvth_p=sample.global_corner.dvth_p,
        )
        for seed, sample, outcome in zip(seeds, samples, outcomes)
    ]


def simulate_die(
    seed: int,
    design: SRLRDesignParams,
    pattern: tuple[int, ...],
    bit_period: float,
    local_enabled: bool,
) -> McRun:
    """One die of :func:`simulate_dies`."""
    return simulate_dies([seed], design, pattern, bit_period, local_enabled)[0]


def run_payload(run: McRun) -> dict:
    """The JSON checkpoint payload of one die (floats round-trip exactly)."""
    return asdict(run)


def run_from_payload(payload: dict) -> McRun:
    return McRun(**payload)


def run_monte_carlo(
    design: SRLRDesignParams,
    n_runs: int = MonteCarloConfig.n_runs,
    bit_period: float = MonteCarloConfig.bit_period,
    pattern: list[int] | None = None,
    base_seed: int = MonteCarloConfig.base_seed,
    local_enabled: bool = MonteCarloConfig.local_enabled,
    n_jobs: int | None = 1,
    executor: ParallelExecutor | None = None,
    cache: ResultCache | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> McResult:
    """Monte Carlo yield analysis of one link design.

    Die ``i`` is drawn from seed ``base_seed + i`` (the paper's scheme),
    so individual failing dies can be reproduced exactly, and designs
    run with the same ``base_seed`` see the same dies.
    ``local_enabled=False`` restricts variation to global corners only
    (useful for ablating the two variation scales).  The defaults and
    checks of these parameters are :class:`MonteCarloConfig`'s: a bad
    value is a :class:`~repro.errors.ConfigurationError` naming it.

    ``n_jobs`` fans the dies across worker processes; results are
    identical for every worker count.  A pre-built ``executor`` replaces
    it (passing both is a :class:`~repro.errors.ConfigurationError`) and
    carries everything else about execution: a ``progress`` hook, or a
    :class:`~repro.runtime.ResilienceConfig` (per-die timeouts,
    deterministic retries, worker-crash recovery) under which dies
    whose task exhausted its budget land in
    :attr:`McResult.failures` instead of aborting the campaign.
    ``cache`` (a :class:`~repro.runtime.ResultCache`) skips the whole
    block when an entry keyed by (design, pattern, seeds, ...) already
    exists.

    ``checkpoint`` (a path) persists each die durably as it completes;
    ``resume=True`` replays a partially-written store — bound to this
    exact campaign configuration — and computes only the missing dies,
    so a run killed at any instant converges to the bitwise result of an
    uninterrupted one.  Every die depends only on its own seed, which is
    why replayed and recomputed dies mix freely.
    """
    pattern = MonteCarloConfig(
        n_runs=n_runs,
        base_seed=base_seed,
        bit_period=bit_period,
        local_enabled=local_enabled,
        pattern=pattern,
    ).pattern
    seeds = sequential_seeds(base_seed, n_runs)

    campaign_key = content_key(
        "run_monte_carlo/v1",
        design,
        pattern,
        bit_period,
        tuple(seeds),
        local_enabled,
    )
    if cache is not None:
        cached = cache.get(campaign_key)
        if cached is not MISS:
            return McResult(design=design, runs=list(cached))

    # Each executor chunk is one batch through the link kernel; under a
    # ResilienceConfig the executor runs one die per task, so timeouts,
    # retries and TaskFailure records stay per die.
    worker = partial(
        simulate_dies,
        design=design,
        pattern=pattern,
        bit_period=bit_period,
        local_enabled=local_enabled,
    )
    executor = driver_executor(executor, n_jobs)
    config = {"kind": "run_monte_carlo/v1", "campaign": campaign_key}
    with checkpoint_store(checkpoint, config, resume) as store:
        values = run_checkpointed(
            executor,
            worker,
            seeds,
            [str(i) for i in range(n_runs)],
            store,
            encode=run_payload,
            decode=run_from_payload,
            chunked=True,
        )
    result = McResult.from_values(design, values)
    if cache is not None and not result.failures:
        cache.put(campaign_key, result.runs)
    return result


class ImmunityRatio(float):
    """The immunity ratio plus how it was obtained.

    Behaves as a plain ``float`` (every existing call site keeps working)
    while exposing whether the value is exact or only a *lower bound* —
    the contender never failed, so one pseudo-failure of probability
    ``1 / (2 * n_runs)`` was substituted to keep the ratio finite.
    """

    is_lower_bound: bool
    pseudo_failure_probability: float | None

    def __new__(
        cls,
        value: float,
        is_lower_bound: bool = False,
        pseudo_failure_probability: float | None = None,
    ) -> "ImmunityRatio":
        self = super().__new__(cls, value)
        self.is_lower_bound = is_lower_bound
        self.pseudo_failure_probability = pseudo_failure_probability
        return self

    def __getnewargs__(self):
        # float's default pickling bypasses our __new__; route the extra
        # state through it so cached/pickled ratios keep their flags.
        return (float(self), self.is_lower_bound, self.pseudo_failure_probability)

    def describe(self) -> str:
        bound = ">=" if self.is_lower_bound else "="
        note = (
            f" (lower bound: contender never failed; pseudo-failure "
            f"p={self.pseudo_failure_probability:.2e} substituted)"
            if self.is_lower_bound
            else ""
        )
        return f"immunity {bound} {float(self):.2f}x{note}"


def immunity_ratio(reference: McResult, contender: McResult) -> ImmunityRatio:
    """Process-variation immunity of ``contender`` relative to ``reference``.

    The paper reports the robust SRLR achieving "about 3.7 times higher
    process variation immunity" than the straightforward design at the
    selected swing: the ratio of failure probabilities (reference over
    contender).  When the contender never fails the ratio is unbounded by
    the data; the returned value substitutes one pseudo-failure of
    probability ``1/(2*n_runs)`` and flags itself as a lower bound via
    :attr:`ImmunityRatio.is_lower_bound` instead of doing so silently.
    """
    p_ref = reference.error_probability
    p_new = contender.error_probability
    if p_ref == 0.0 and p_new == 0.0:
        return ImmunityRatio(1.0)
    if p_ref == 0.0:
        return ImmunityRatio(0.0)
    if p_new == 0.0:
        pseudo = 1.0 / (2 * max(contender.n_runs, 1))
        return ImmunityRatio(
            p_ref / pseudo, is_lower_bound=True, pseudo_failure_probability=pseudo
        )
    return ImmunityRatio(p_ref / p_new)


__all__ = [
    "DESIGNS",
    "ImmunityRatio",
    "McResult",
    "McRun",
    "MonteCarloConfig",
    "default_stress_pattern",
    "immunity_ratio",
    "run_from_payload",
    "run_monte_carlo",
    "run_payload",
    "simulate_die",
    "simulate_dies",
]
