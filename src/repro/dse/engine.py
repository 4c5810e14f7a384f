"""The DSE search: strategy loop, parallel evaluation, replay, caching.

:func:`run_dse` drives a :class:`~repro.dse.strategies.SearchStrategy`
through ask/evaluate/tell rounds.  Each asked batch is resolved
cheapest first:

1. **replay** — the search already met this candidate, or the
   checkpoint store holds it (a resumed search);
2. **space constraints** — a candidate that violates them is recorded
   without spending a simulation;
3. **result cache** — an optional cross-run
   :class:`~repro.runtime.ResultCache` entry under the same content key;
4. **evaluation** — the remaining candidates run through
   :func:`~repro.runtime.run_checkpointed`, the checkpointed task loop
   every campaign driver shares, one executor map per batch.

A candidate's identity is ``content_key(evaluator, params, seed)`` where
the seed itself derives from ``(base_seed, params)`` via
:func:`repro.runtime.derived_seed`.  Identity therefore depends only on
*what* is evaluated — never on worker count, batch composition or which
run first met the candidate — which is what makes three different
executions interchangeable: a fresh run, a cache-warm run and a resumed
run all produce bitwise-identical records and therefore identical
fronts.

With ``checkpoint=`` (a path) every record is persisted, as
``asdict(record)``, to a :class:`~repro.runtime.CheckpointStore`: an
evaluated one the moment its executor chunk lands, the others when
their batch resolves.  ``resume=True`` replays a store bound to the
same run configuration (space, evaluator, objectives, strategy and
base seed).  A record's ``elapsed`` is its own evaluation's wall time,
measured where it ran (0 for records that spent no evaluation).

Model-rejected candidates (:class:`InfeasibleDesign`) are recorded with
the rejection reason.  They and constraint-infeasible ones enter the
strategy as all-``inf`` vectors and can never appear in the reported
front.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import partial
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
    ParallelExecutor,
    ResultCache,
    checkpoint_store,
    content_key,
    derived_seed,
    run_checkpointed,
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
    """``(metrics, infeasible_reason)`` for one candidate: the evaluation
    behind the search's worker and the ``dse_batch`` service adapter.

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


def _evaluate_record(evaluator, task: tuple) -> EvalRecord:
    """Worker body: the record of one candidate, timed where it runs."""
    key, generation, index, params, seed = task
    t0 = time.perf_counter()
    metrics, reason = _evaluate_task((evaluator, params, seed))
    return eval_record(
        key, generation, index, params, seed, metrics, reason,
        time.perf_counter() - t0,
    )


def _front(
    objectives: tuple[Objective, ...], records: list[EvalRecord]
) -> list[EvalRecord]:
    """The feasible non-dominated records, along the first objective."""
    feasible = [r for r in records if r.feasible]
    signed = [signed_vector(objectives, r.objectives) for r in feasible]
    front = [feasible[i] for i in pareto_front_indices(signed)]
    first = objectives[0]
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
    """Run ``strategy`` over ``space`` to completion and report the front.

    ``evaluator`` is a picklable callable ``(params, seed) -> metrics``
    with an ``objectives`` attribute.  ``resume=True`` continues a
    ``checkpoint`` written by an identical configuration: the strategy
    loop replays deterministically, so stored candidates short-circuit
    and only missing work runs.  ``progress``, if given, is called as
    ``progress(generation, n_fresh, n_total)`` after every batch.
    """
    t_start = time.perf_counter()
    executor = ParallelExecutor(n_jobs=n_jobs)
    worker = partial(_evaluate_record, evaluator)
    objectives = tuple(evaluator.objectives)
    hits_before = cache.hits if cache is not None else 0
    cache_put = None
    if cache is not None:
        def cache_put(key: str, record: EvalRecord) -> None:
            cache.put(key, (record.objectives, record.reason))
    records: dict[str, EvalRecord] = {}  # first-met order, one per key
    n_evaluated = n_replayed = generation = 0
    config = {  # what a store binds to: resume needs all of it unchanged
        "space": space.spec(),
        "evaluator": stable_token(evaluator),
        "objectives": [{"name": o.name, "sense": o.sense} for o in objectives],
        "strategy": strategy.describe(),
        "base_seed": base_seed,
    }
    with checkpoint_store(checkpoint, config, resume) as store:
        strategy.reset(space, base_seed)
        while (batch := strategy.ask()) is not None:
            if not batch:
                raise ConfigurationError(
                    "strategy asked an empty batch; return None to finish"
                )
            # Each slot resolves to a record (memo, store, constraints,
            # cache) or to the key of a task; a batch-internal duplicate
            # runs once.
            slots: list[EvalRecord | str] = []
            tasks: dict[str, tuple] = {}
            for i, params in enumerate(batch):
                space.validate(params)
                seed = candidate_seed(base_seed, params)
                key = candidate_key(evaluator, params, seed)
                record = records.get(key)
                if record is None and store is not None and key in store:
                    record = EvalRecord(**store.get(key))
                    n_replayed += 1
                if record is None and not space.feasible(params):
                    record = eval_record(
                        key, generation, i, params, seed, {},
                        "violates space constraints",
                    )
                if record is None and cache is not None and key not in tasks:
                    value = cache.get(key)
                    if value is not MISS:
                        record = eval_record(key, generation, i, params, seed, *value)
                if record is None:
                    tasks.setdefault(key, (key, generation, i, params, seed))
                slots.append(key if record is None else record)

            # Evaluated records reach the store and the cache as their
            # executor chunk lands.
            fresh = run_checkpointed(
                executor, worker, list(tasks.values()), list(tasks), store,
                encode=asdict, on_value=cache_put,
            )
            computed = dict(zip(tasks, fresh))
            n_evaluated += len(computed)
            resolved = [computed[s] if isinstance(s, str) else s for s in slots]
            for record in resolved:
                if record.key not in records:
                    records[record.key] = record
                    if store is not None:
                        # Writes only constraint and cache records:
                        # append skips a key the store already holds.
                        store.append(record.key, asdict(record))
            strategy.tell(batch, [
                signed_vector(objectives, r.objectives)
                if r.feasible
                else infeasible_vector(objectives)
                for r in resolved
            ])
            if progress is not None:
                progress(generation, len(computed), len(records))
            generation += 1
    ordered = list(records.values())
    return DseResult(
        space=space,
        objectives=objectives,
        records=ordered,
        front=_front(objectives, ordered),
        generations=generation,
        n_evaluated=n_evaluated,
        n_replayed=n_replayed,
        n_cache_hits=cache.hits - hits_before if cache is not None else 0,
        elapsed=time.perf_counter() - t_start,
    )


__all__ = [
    "DseResult",
    "EvalRecord",
    "candidate_key",
    "candidate_seed",
    "eval_record",
    "run_dse",
]
