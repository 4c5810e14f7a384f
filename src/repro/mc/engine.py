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

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.circuit.link import SRLRLink, transmit_batch
from repro.circuit.prbs import PrbsGenerator, worst_case_patterns
from repro.circuit.srlr import SRLRDesignParams
from repro.runtime import (
    MISS,
    CheckpointStore,
    ParallelExecutor,
    ProgressHook,
    ResilienceConfig,
    ResultCache,
    TaskFailure,
    content_key,
    make_seeds,
    open_checkpoint,
)
from repro.tech.variation import monte_carlo_sample


def default_stress_pattern(n_prbs: int = 127) -> list[int]:
    """The measurement pattern: PRBS7 traffic plus the '11110' stressors."""
    return PrbsGenerator(7).bits(n_prbs) + worst_case_patterns()


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
    #: non-strict :class:`~repro.runtime.ResilienceConfig` (not signaling
    #: failures — those are ordinary ``runs`` with ``ok=False``).  Empty
    #: on the default strict-less path.
    failures: list[TaskFailure] = field(default_factory=list)

    @property
    def n_task_failures(self) -> int:
        return len(self.failures)

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
    return {
        "seed": run.seed,
        "ok": run.ok,
        "n_errors": run.n_errors,
        "stuck": run.stuck,
        "dvth_n": run.dvth_n,
        "dvth_p": run.dvth_p,
    }


def run_from_payload(payload: dict) -> McRun:
    return McRun(
        seed=int(payload["seed"]),
        ok=bool(payload["ok"]),
        n_errors=int(payload["n_errors"]),
        stuck=bool(payload["stuck"]),
        dvth_n=float(payload["dvth_n"]),
        dvth_p=float(payload["dvth_p"]),
    )


def run_monte_carlo(
    design: SRLRDesignParams,
    n_runs: int = 1000,
    bit_period: float = 1.0 / 4.1e9,
    pattern: list[int] | None = None,
    base_seed: int = 2013,
    local_enabled: bool = True,
    seed_scheme: str = "sequential",
    n_jobs: int | None = 1,
    executor: ParallelExecutor | None = None,
    cache: ResultCache | None = None,
    progress: ProgressHook | None = None,
    resilience: ResilienceConfig | None = None,
    checkpoint: str | Path | CheckpointStore | None = None,
    resume: bool = False,
) -> McResult:
    """Monte Carlo yield analysis of one link design.

    Each run's seed comes from a deterministic per-task stream (the
    default ``sequential`` scheme is the paper's ``base_seed + i``, so
    individual failing dies can be reproduced exactly; ``spawn`` derives
    collision-resistant seeds through ``SeedSequence.spawn``).
    ``local_enabled=False`` restricts variation to global corners only
    (useful for ablating the two variation scales).

    ``n_jobs`` (or a pre-built ``executor``) fans the dies across worker
    processes; results are identical for every worker count.  ``cache``
    (a :class:`~repro.runtime.ResultCache`) skips the whole block when an
    entry keyed by (design, pattern, seeds, ...) already exists.

    ``resilience`` opts the dies into the fault-tolerant task layer
    (per-die timeouts, deterministic retries, worker-crash recovery);
    with ``strict=False``, dies whose task exhausted its budget land in
    :attr:`McResult.failures` instead of aborting the campaign.

    ``checkpoint`` (a path or open :class:`~repro.runtime.CheckpointStore`)
    persists each die durably as it completes; ``resume=True`` replays a
    partially-written store — bound to this exact campaign configuration
    — and computes only the missing dies, so a run killed at any instant
    converges to the bitwise result of an uninterrupted one.  Every die
    depends only on its own seed, which is why replayed and recomputed
    dies mix freely.
    """
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    if bit_period <= 0.0:
        raise ConfigurationError(f"bit_period must be positive, got {bit_period}")
    pattern = default_stress_pattern() if pattern is None else pattern
    seeds = make_seeds(base_seed, n_runs, seed_scheme)

    campaign_key = content_key(
        "run_monte_carlo/v1",
        design,
        tuple(pattern),
        bit_period,
        tuple(seeds),
        local_enabled,
    )
    if cache is not None:
        cached = cache.get(campaign_key)
        if cached is not MISS:
            return McResult(design=design, runs=list(cached))

    store = open_checkpoint(
        checkpoint, {"kind": "run_monte_carlo/v1", "campaign": campaign_key}, resume
    )
    try:
        return _run_campaign(
            design, seeds, pattern, bit_period, local_enabled, n_runs,
            n_jobs, executor, cache, progress, resilience,
            store, campaign_key,
        )
    finally:
        # Each record was fsynced as it landed, so closing here (even on
        # KeyboardInterrupt mid-campaign) never loses completed dies.
        if store is not None and not isinstance(checkpoint, CheckpointStore):
            store.close()


def _run_campaign(
    design: SRLRDesignParams,
    seeds: list[int],
    pattern: list[int],
    bit_period: float,
    local_enabled: bool,
    n_runs: int,
    n_jobs: int | None,
    executor: ParallelExecutor | None,
    cache: ResultCache | None,
    progress: ProgressHook | None,
    resilience: ResilienceConfig | None,
    store: CheckpointStore | None,
    campaign_key: str,
) -> McResult:
    done: dict[int, McRun] = {}
    if store is not None:
        done = {int(k): run_from_payload(p) for k, p in store.items()}
    pending = [(i, seed) for i, seed in enumerate(seeds) if i not in done]

    computed: dict[int, McRun | TaskFailure] = {}
    if pending:
        # Each executor chunk is one batch through the link kernel; under
        # a ResilienceConfig the executor runs one die per task, so
        # timeouts, retries and TaskFailure records stay per die.
        worker = partial(
            simulate_dies,
            design=design,
            pattern=tuple(pattern),
            bit_period=bit_period,
            local_enabled=local_enabled,
        )
        executor = executor or ParallelExecutor(
            n_jobs=n_jobs, progress=progress, resilience=resilience
        )

        on_result = None
        if store is not None:

            def on_result(indices: list[int], values: list) -> None:
                # Persist each die as its chunk lands; a TaskFailure is
                # never checkpointed — a resumed run retries it.
                for j, value in zip(indices, values):
                    if not isinstance(value, TaskFailure):
                        store.append(str(pending[j][0]), run_payload(value))

        values = executor.map_chunks(
            worker, [seed for _, seed in pending], on_result=on_result
        )
        for (i, _), value in zip(pending, values):
            computed[i] = value

    runs: list[McRun] = []
    failures: list[TaskFailure] = []
    for i in range(n_runs):
        value = done.get(i, computed.get(i))
        if isinstance(value, TaskFailure):
            # Re-point the record at the die index (the executor saw
            # only the pending subset).
            failures.append(
                TaskFailure(
                    index=i,
                    error_type=value.error_type,
                    message=value.message,
                    traceback=value.traceback,
                    attempts=value.attempts,
                    kind=value.kind,
                )
            )
        else:
            runs.append(value)
    result = McResult(design=design, runs=runs, failures=failures)
    if cache is not None and not failures:
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
    "ImmunityRatio",
    "McResult",
    "McRun",
    "default_stress_pattern",
    "immunity_ratio",
    "run_from_payload",
    "run_monte_carlo",
    "run_payload",
    "simulate_die",
    "simulate_dies",
]
