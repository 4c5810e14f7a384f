"""The DSE engine: strategy loop, parallel evaluation, replay, caching.

:class:`DseEngine` drives a :class:`~repro.dse.strategies.SearchStrategy`
through ask/evaluate/tell rounds.  Each asked batch is resolved in three
tiers, cheapest first:

1. **replay** — the search already met this candidate, or the
   checkpoint store holds it (a resumed search);
2. **result cache** — an optional cross-run
   :class:`~repro.runtime.ResultCache` entry under the same content key;
3. **evaluation** — remaining candidates fan out together through one
   :class:`~repro.runtime.ParallelExecutor` map.

A candidate's identity is ``content_key(evaluator, params, seed)`` where
the seed itself derives from ``(base_seed, params)`` via
:func:`repro.runtime.derived_seed`.  Identity therefore depends only on
*what* is evaluated — never on worker count, batch composition or which
run first met the candidate — which is what makes three different
executions interchangeable: a fresh run, a cache-warm run and a resumed
run all produce bitwise-identical records and therefore identical
fronts.

With ``checkpoint=`` (a path) every record is persisted, as
``asdict(record)``, to a :class:`~repro.runtime.CheckpointStore` the
moment its batch resolves; ``resume=True`` replays a store bound to the
same run configuration (:meth:`DseEngine.run_config`).

Constraint-infeasible candidates are recorded without spending a
simulation; model-rejected ones (:class:`InfeasibleDesign`) are recorded
with the rejection reason.  Both enter the strategy as all-``inf``
vectors and can never appear in the reported front.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.dse.objectives import (
    InfeasibleDesign,
    Objective,
    infeasible_vector,
    signed_vector,
)
from repro.dse.pareto import hypervolume, pareto_front_indices
from repro.dse.space import ParamSpace
from repro.dse.strategies import SearchStrategy
from repro.errors import ConfigurationError
from repro.runtime import (
    MISS,
    CheckpointStore,
    ParallelExecutor,
    ResultCache,
    content_key,
    derived_seed,
    stable_token,
)


@dataclass(frozen=True)
class EvalRecord:
    """One completed candidate evaluation."""

    key: str  # content hash of (evaluator, params, seed)
    generation: int
    index: int  # position within its generation's batch
    params: dict[str, float]
    seed: int
    feasible: bool
    objectives: dict[str, float]  # named metric values ({} when infeasible)
    reason: str = ""  # why infeasible (empty when feasible)
    elapsed: float = 0.0


def eval_record(
    key: str,
    generation: int,
    index: int,
    params: dict[str, float],
    seed: int,
    metrics: dict[str, float],
    reason: str,
    elapsed: float = 0.0,
) -> EvalRecord:
    """The record of one candidate from its ``(metrics, reason)`` outcome.

    The one constructor behind engine-evaluated, cache-served and
    service-evaluated (``dse_batch``) candidates, so all three compare
    equal field by field.
    """
    return EvalRecord(
        key=key,
        generation=generation,
        index=index,
        params=params,
        seed=seed,
        feasible=not reason,
        objectives={k: float(v) for k, v in metrics.items()},
        reason=reason,
        elapsed=elapsed,
    )


def candidate_key(evaluator, params: dict[str, float], seed: int) -> str:
    """The content identity of one evaluation (store + cache key)."""
    return content_key("dse-eval/v1", evaluator, params, seed)


def candidate_seed(base_seed: int, params: dict[str, float]) -> int:
    """The deterministic per-candidate seed (content-addressed)."""
    return derived_seed(base_seed, stable_token(params))


def _evaluate_task(task: tuple) -> tuple[dict[str, float], str]:
    """Worker body: ``(metrics, infeasible_reason)`` for one candidate.

    Module-level so candidate batches can cross process boundaries; the
    result depends only on the task tuple.
    """
    evaluator, params, seed = task
    try:
        return evaluator(params, seed), ""
    except InfeasibleDesign as exc:
        return {}, str(exc) or "infeasible"


@dataclass
class DseResult:
    """Everything one search produced."""

    space: ParamSpace
    objectives: tuple[Objective, ...]
    records: list[EvalRecord]  # evaluation order, unique per candidate
    front: list[EvalRecord]  # feasible non-dominated records
    generations: int
    n_evaluated: int  # computed fresh this run
    n_replayed: int  # served from the checkpoint store
    n_cache_hits: int  # served from the cross-run result cache
    elapsed: float

    def signed_front(self) -> list[tuple[float, ...]]:
        """The front as minimization vectors (objective order)."""
        return [signed_vector(self.objectives, r.objectives) for r in self.front]

    def front_hypervolume(self, reference: tuple[float, ...] | None = None) -> float:
        """Hypervolume of the front; auto-reference = nadir + 10% span."""
        signed = self.signed_front()
        if not signed:
            return 0.0
        if reference is None:
            lo = [min(v[m] for v in signed) for m in range(len(self.objectives))]
            hi = [max(v[m] for v in signed) for m in range(len(self.objectives))]
            reference = tuple(
                h + 0.1 * max(h - l, 1e-12) for l, h in zip(lo, hi)
            )
        return hypervolume(signed, reference)


@dataclass
class DseEngine:
    """One configured search: space + evaluator + strategy + runtime."""

    space: ParamSpace
    evaluator: object  # picklable callable with .objectives
    strategy: SearchStrategy
    base_seed: int = 2013
    n_jobs: int | None = 1
    executor: ParallelExecutor | None = None
    cache: ResultCache | None = None
    checkpoint: str | Path | None = None
    progress: object | None = None  # callable(generation, n_new, n_total)
    _store: CheckpointStore | None = field(default=None, init=False, repr=False)
    _by_key: dict[str, EvalRecord] = field(default_factory=dict, repr=False)
    _order: list[str] = field(default_factory=list, repr=False)

    def run_config(self) -> dict:
        """The configuration a checkpoint binds to (resume compatibility)."""
        return {
            "space": self.space.spec(),
            "evaluator": stable_token(self.evaluator),
            "objectives": [
                {"name": o.name, "sense": o.sense} for o in self.evaluator.objectives
            ],
            "strategy": self.strategy.describe(),
            "base_seed": self.base_seed,
        }

    def run(self, resume: bool = False) -> DseResult:
        """Execute the search to completion and report the front.

        ``resume=True`` continues a checkpoint written by an identical
        configuration: the strategy loop replays deterministically, so
        stored candidates short-circuit and only missing work runs.  The
        store is closed on every exit path; each record was fsynced as
        it landed, so an exception loses no completed evaluation.
        """
        if self.checkpoint is None:
            return self._run()
        self._store = CheckpointStore(self.checkpoint)
        try:
            self._store.begin(self.run_config(), resume=resume)
            return self._run()
        finally:
            self._store.close()
            self._store = None

    def _run(self) -> DseResult:
        t_start = time.perf_counter()
        executor = self.executor or ParallelExecutor(n_jobs=self.n_jobs)
        self._by_key.clear()
        self._order.clear()
        n_evaluated = n_replayed = cache_hits_before = 0
        if self.cache is not None:
            cache_hits_before = self.cache.hits
        self.strategy.reset(self.space, self.base_seed)
        generation = 0
        while True:
            batch = self.strategy.ask()
            if batch is None:
                break
            if not batch:
                raise ConfigurationError(
                    "strategy asked an empty batch; return None to finish"
                )
            records, fresh, replayed = self._resolve_batch(
                batch, generation, executor
            )
            n_evaluated += fresh
            n_replayed += replayed
            signed = [
                signed_vector(self.evaluator.objectives, r.objectives)
                if r.feasible
                else infeasible_vector(self.evaluator.objectives)
                for r in records
            ]
            self.strategy.tell(batch, signed)
            if self.progress is not None:
                self.progress(generation, fresh, len(self._order))
            generation += 1
        records = [self._by_key[k] for k in self._order]
        front = self._front_of(records)
        return DseResult(
            space=self.space,
            objectives=tuple(self.evaluator.objectives),
            records=records,
            front=front,
            generations=generation,
            n_evaluated=n_evaluated,
            n_replayed=n_replayed,
            n_cache_hits=(
                self.cache.hits - cache_hits_before if self.cache is not None else 0
            ),
            elapsed=time.perf_counter() - t_start,
        )

    # --- batch resolution -------------------------------------------------------------

    def _resolve_batch(
        self,
        batch: list[dict[str, float]],
        generation: int,
        executor: ParallelExecutor,
    ) -> tuple[list[EvalRecord], int, int]:
        """Records for one asked batch: replayed, cached or computed."""
        resolved: list[EvalRecord | None] = [None] * len(batch)
        pending: list[tuple[int, str, dict[str, float], int]] = []
        replayed = 0
        for i, params in enumerate(batch):
            self.space.validate(params)
            seed = candidate_seed(self.base_seed, params)
            key = candidate_key(self.evaluator, params, seed)
            record = self._by_key.get(key)
            if record is None and self._store is not None:
                payload = self._store.get(key)
                if payload is not None:
                    record = EvalRecord(**payload)
                    replayed += 1
            if record is not None:
                resolved[i] = record
                continue
            if not self.space.feasible(params):
                resolved[i] = eval_record(
                    key, generation, i, params, seed, {},
                    "violates space constraints",
                )
                continue
            pending.append((i, key, params, seed))

        fresh = self._evaluate_pending(pending, generation, resolved, executor)
        records: list[EvalRecord] = []
        for record in resolved:
            assert record is not None
            records.append(record)
            if record.key not in self._by_key:
                self._by_key[record.key] = record
                self._order.append(record.key)
                if self._store is not None:
                    self._store.append(record.key, asdict(record))
        return records, fresh, replayed

    def _evaluate_pending(
        self,
        pending: list[tuple[int, str, dict[str, float], int]],
        generation: int,
        resolved: list[EvalRecord | None],
        executor: ParallelExecutor,
    ) -> int:
        """Fill ``resolved`` slots for candidates that need real work."""
        # Consult the cross-run cache first, and evaluate each distinct
        # key once even if a batch repeats a candidate.
        tasks: dict[str, tuple] = {}
        for i, key, params, seed in pending:
            if self.cache is not None and key not in tasks:
                value = self.cache.get(key)
                if value is not MISS:
                    metrics, reason = value
                    resolved[i] = eval_record(
                        key, generation, i, params, seed, metrics, reason
                    )
                    continue
            tasks.setdefault(key, (self.evaluator, params, seed))
        unique = list(tasks.items())
        outcomes: dict[str, tuple[dict[str, float], str, float]] = {}
        if unique:
            t0 = time.perf_counter()
            results = executor.map(_evaluate_task, [task for _, task in unique])
            per_task = (time.perf_counter() - t0) / len(unique)
            for (key, _), (metrics, reason) in zip(unique, results):
                outcomes[key] = (metrics, reason, per_task)
                if self.cache is not None:
                    self.cache.put(key, (metrics, reason))
        fresh = len(outcomes)
        for i, key, params, seed in pending:
            if resolved[i] is not None:
                continue
            if key in outcomes:
                metrics, reason, elapsed = outcomes[key]
                resolved[i] = eval_record(
                    key, generation, i, params, seed, metrics, reason, elapsed
                )
            else:
                # A batch-internal duplicate whose first copy came from
                # the cache: reuse whatever the earlier slot resolved to.
                twin = next(
                    r for r in resolved if r is not None and r.key == key
                )
                resolved[i] = twin
        return fresh

    # --- front ------------------------------------------------------------------------

    def _front_of(self, records: list[EvalRecord]) -> list[EvalRecord]:
        feasible = [r for r in records if r.feasible]
        if not feasible:
            return []
        signed = [
            signed_vector(self.evaluator.objectives, r.objectives) for r in feasible
        ]
        front = [feasible[i] for i in pareto_front_indices(signed)]
        # Present the front along the first objective for stable reading.
        first = self.evaluator.objectives[0]
        return sorted(front, key=lambda r: first.signed(r.objectives[first.name]))


def run_dse(
    space: ParamSpace,
    evaluator,
    strategy: SearchStrategy,
    base_seed: int = 2013,
    n_jobs: int | None = 1,
    cache: ResultCache | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    progress=None,
) -> DseResult:
    """One-call search: build a :class:`DseEngine` and run it."""
    engine = DseEngine(
        space=space,
        evaluator=evaluator,
        strategy=strategy,
        base_seed=base_seed,
        n_jobs=n_jobs,
        cache=cache,
        checkpoint=checkpoint,
        progress=progress,
    )
    return engine.run(resume=resume)


__all__ = [
    "DseEngine",
    "DseResult",
    "EvalRecord",
    "candidate_key",
    "candidate_seed",
    "eval_record",
    "run_dse",
]
