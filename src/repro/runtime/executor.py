"""The parallel task executor behind Monte Carlo runs and sweeps.

:class:`ParallelExecutor` fans an order-preserving ``map`` over worker
processes.  The contract that everything else in the repo leans on:

* **Determinism** — results depend only on ``(fn, items)``, never on
  ``n_jobs``, chunking, completion order, retries or crash/respawn
  boundaries.  Tasks carry their own seeds (see
  :mod:`repro.runtime.seeds`); the executor merely schedules them.
* **Serial reference** — ``n_jobs=1`` runs the exact in-process loop
  ``[fn(x) for x in items]``, byte for byte the pre-runtime behavior.
* **Graceful degradation** — if the function or items cannot cross a
  process boundary (closures, lambdas, local classes), the executor
  falls back to the serial path instead of crashing mid-experiment.  The
  degradation is *loud*: a :class:`SerialFallbackWarning` is emitted,
  the metrics carry :attr:`RunMetrics.fallback_reason`, and the executor
  counts every occurrence in :attr:`ParallelExecutor.serial_fallbacks`,
  so a large sweep cannot quietly lose its parallelism.
* **Fault tolerance (opt-in)** — with a
  :class:`~repro.runtime.ResilienceConfig` attached, tasks run under
  per-task soft timeouts and bounded deterministic retries inside the
  workers, a parent-side watchdog kills and respawns the pool when a
  chunk hangs past its hard deadline, ``BrokenProcessPool`` (a worker
  killed by the OS) respawns the pool and re-enqueues only the in-flight
  work, and a task that exhausts its budget yields a structured
  :class:`~repro.runtime.TaskFailure` in its result slot instead of
  aborting the campaign.
  See docs/RESILIENCE.md.

Chunking amortizes pickling: items are split into ``chunk_size`` blocks
(auto-sized to ~4 chunks per worker) and each block round-trips to a
worker as one task.  :meth:`ParallelExecutor.map_chunks` hands each
block to a chunk-level function whole (the Monte Carlo engine runs one
batched link-kernel call per chunk); ``map(fn)`` is the same machinery
with the chunk function ``[fn(x) for x in chunk]``.  An optional
``on_result`` callback receives each
completed chunk's ``(global indices, results)`` as it lands — the hook
the crash-safe checkpoint stores (:mod:`repro.runtime.checkpoint`) use
to persist progress incrementally.

There is one serial loop and one process loop.  The resilience policy
decides only what a chunk runs: without one, the whole chunk goes to
the chunk function and the first exception (or a broken pool)
propagates as raised; with one, each item runs under
:func:`~repro.runtime.resilience.run_one_resilient`.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.errors import ConfigurationError
from repro.runtime.metrics import ProgressHook, RunMetrics
from repro.runtime.resilience import (
    WATCHDOG_POLL,
    ResilienceConfig,
    TaskFailure,
    TaskOutcome,
    run_chunk_resilient,
    run_one_resilient,
)

#: ``on_result`` callback: (global item indices, their results), called
#: once per completed chunk, in completion order.
ResultHook = Callable[[list[int], list[Any]], None]


class SerialFallbackWarning(RuntimeWarning):
    """A parallel map degraded to the serial path (unpicklable work)."""


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None``, ``0`` and negative values mean "all cores"; positive values
    are taken literally.
    """
    if n_jobs is None or n_jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return n_jobs


def _run_chunk(fn: Callable[[Any], Any], chunk: list[Any]) -> list[Any]:
    """Worker-side body: evaluate one chunk, preserving item order."""
    return [fn(item) for item in chunk]


def _run_one(chunk_fn: Callable[[list[Any]], list[Any]], item: Any) -> Any:
    """One item through a chunk-level function, as a one-item chunk."""
    return chunk_fn([item])[0]


def _is_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


@dataclass
class _ChunkTask:
    """One chunk of work for the pool (a singleton once on probation)."""

    indices: range  # global item positions
    attempts: dict[int, int]  # per-item attempts already burned


@dataclass
class ParallelExecutor:
    """Order-preserving parallel ``map`` with progress metrics.

    Parameters
    ----------
    n_jobs:
        Worker processes.  ``1`` (default) is the exact serial path;
        ``None``/``0``/negative use every core.
    chunk_size:
        Items per worker task; ``None`` auto-sizes to ~4 chunks/worker.
    progress:
        Optional hook called with the live :class:`RunMetrics` after
        every completed chunk.
    resilience:
        Optional :class:`~repro.runtime.ResilienceConfig` enabling
        timeouts, retries, crash recovery and quarantine.  ``None``
        (default) runs each chunk whole, and the first worker exception
        (or worker death) propagates.
    """

    n_jobs: int | None = 1
    chunk_size: int | None = None
    progress: ProgressHook | None = None
    resilience: ResilienceConfig | None = None
    #: Metrics of the most recent ``map`` call.
    last_metrics: RunMetrics | None = field(default=None, repr=False)
    #: How many ``map`` calls requested processes but degraded to serial.
    serial_fallbacks: int = 0
    #: Total pool kill+respawn cycles across this executor's lifetime.
    pool_respawns: int = 0

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_result: ResultHook | None = None,
    ) -> list[Any]:
        """``[fn(x) for x in items]``, possibly across processes.

        With :attr:`resilience` set, slots whose task exhausted its retry
        budget hold a :class:`~repro.runtime.TaskFailure` instead of a
        value.
        """
        return self._map(fn, partial(_run_chunk, fn), fn, items, on_result)

    def map_chunks(
        self,
        chunk_fn: Callable[[list[Any]], list[Any]],
        items: Sequence[Any],
        on_result: ResultHook | None = None,
    ) -> list[Any]:
        """:meth:`map` for a function of a whole chunk.

        ``chunk_fn(chunk)`` returns one result per item of ``chunk``, in
        order, and must give each item the result it would get alone —
        then results do not depend on chunking, as for :meth:`map`.  It
        lets a chunk's items share work (one batched kernel call per
        chunk).  Under :attr:`resilience`, every item runs as its own
        one-item chunk, so timeouts, retries and
        :class:`~repro.runtime.TaskFailure` records stay per item.
        """
        return self._map(
            partial(_run_one, chunk_fn), chunk_fn, chunk_fn, items, on_result
        )

    def _map(
        self,
        fn: Callable[[Any], Any],
        chunk_fn: Callable[[list[Any]], list[Any]],
        named: Callable[..., Any],
        items: Sequence[Any],
        on_result: ResultHook | None,
    ) -> list[Any]:
        """The one backend dispatch: under :attr:`resilience` the loops
        run ``fn`` per item, without it ``chunk_fn`` per chunk."""
        items = list(items)
        n_jobs = resolve_n_jobs(self.n_jobs)
        use_processes = n_jobs > 1 and len(items) > 1
        fallback_reason = None
        if use_processes and not (_is_picklable(chunk_fn) and _is_picklable(items)):
            # A closure or local object cannot cross the process
            # boundary; degrade to the serial reference path — but say so
            # loudly rather than quietly losing the parallelism.
            use_processes = False
            name = getattr(named, "__qualname__", None) or repr(named)
            fallback_reason = (
                f"evaluator {name!r} (or its items) cannot be pickled across"
                f" a process boundary; ran serially despite n_jobs={n_jobs}"
            )
            self.serial_fallbacks += 1
            warnings.warn(fallback_reason, SerialFallbackWarning, stacklevel=3)

        metrics = RunMetrics(
            total_tasks=len(items),
            n_jobs=n_jobs if use_processes else 1,
            backend="process" if use_processes else "serial",
            fallback_reason=fallback_reason,
        )
        self.last_metrics = metrics
        if use_processes:
            results = self._map_processes(
                fn, chunk_fn, items, metrics, n_jobs, on_result
            )
        else:
            results = self._map_serial(fn, chunk_fn, items, metrics, on_result)
        metrics.finish()
        return results

    def _chunk_span(self, n_items: int, n_jobs: int) -> int:
        size = self.chunk_size
        if size is None:
            size = max(1, n_items // (4 * n_jobs) + (n_items % (4 * n_jobs) > 0))
        elif size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {size}")
        return size

    def _deliver(
        self,
        indices: list[int],
        block: list[Any],
        n_failures: int,
        t0: float | None,
        metrics: RunMetrics,
        on_result: ResultHook | None,
    ) -> None:
        """Report one landed chunk: ``on_result``, metrics, progress.
        ``t0`` is when the chunk started (``None``: it took no time)."""
        if on_result is not None:
            on_result(indices, block)
        elapsed = 0.0 if t0 is None else time.perf_counter() - t0
        metrics.note_chunk(len(indices), elapsed, n_failures=n_failures)
        if self.progress is not None:
            self.progress(metrics)

    def _map_serial(
        self,
        fn: Callable[[Any], Any],
        chunk_fn: Callable[[list[Any]], list[Any]],
        items: list[Any],
        metrics: RunMetrics,
        on_result: ResultHook | None,
    ) -> list[Any]:
        """The in-process loop, chunk by chunk.

        Without a policy a chunk is one ``chunk_fn`` call and the first
        exception propagates.  Under one, each item runs under it; worker
        death cannot be survived here (there is no worker), so the
        watchdog/respawn machinery does not apply, but everything else —
        including bitwise parity with the process path — does.
        """
        config = self.resilience
        results: list[Any] = []
        size = self._chunk_span(len(items), 1) if items else 1
        for start in range(0, len(items), size):
            chunk = items[start : start + size]
            t0 = time.perf_counter()
            if config is None:
                block, n_failures = chunk_fn(chunk), 0
            else:
                outcomes = [
                    run_one_resilient(fn, start + j, item, config)
                    for j, item in enumerate(chunk)
                ]
                block = [self._settle(out, metrics) for out in outcomes]
                n_failures = sum(1 for out in outcomes if not out.ok)
            results.extend(block)
            indices = list(range(start, start + len(chunk)))
            self._deliver(indices, block, n_failures, t0, metrics, on_result)
        return results

    def _settle(
        self,
        outcome: TaskOutcome,
        metrics: RunMetrics,
        prior_attempts: int = 0,
    ) -> Any:
        """Turn one worker outcome into a result-slot value: the task's
        value, or its :class:`~repro.runtime.TaskFailure`.

        ``prior_attempts`` were burned by earlier crashes/hangs and were
        already counted as retries at re-enqueue time; only the
        worker-side extras are new here.
        """
        metrics.note_resilience(
            retries=max(0, outcome.attempts - 1 - prior_attempts),
            timeouts=outcome.timeouts,
            quarantined=0 if outcome.ok else 1,
        )
        return outcome.value if outcome.ok else outcome.failure

    def _map_processes(
        self,
        fn: Callable[[Any], Any],
        chunk_fn: Callable[[list[Any]], list[Any]],
        items: list[Any],
        metrics: RunMetrics,
        n_jobs: int,
        on_result: ResultHook | None,
    ) -> list[Any]:
        """The worker-pool loop.

        Without a policy a chunk is one ``chunk_fn`` call in a worker,
        every chunk is queued in the pool at once, and the first
        exception — or a broken pool — propagates as raised.  Under one,
        each item of a chunk runs under it in the worker, and the parent
        adds crash recovery, probation and the hard-deadline watchdog.
        """
        config = self.resilience
        n = len(items)
        results: list[Any] = [None] * n
        filled = [False] * n

        size = self._chunk_span(n, n_jobs)
        queue: deque[_ChunkTask] = deque(
            _ChunkTask(range(i, min(i + size, n)), {})
            for i in range(0, n, size)
        )
        #: Singleton tasks suspected of crashing/hanging a worker.  They
        #: run *alone* (nothing else in flight) so the next pool break
        #: implicates exactly one task — innocents never burn retry
        #: budget for a neighbor's crash.
        probation: deque[_ChunkTask] = deque()
        max_workers = min(n_jobs, len(queue))
        hard = config.hard_limit() if config is not None else None
        # Under a policy at most one chunk per worker is in flight, so a
        # chunk's hard deadline starts ticking roughly when it starts
        # running (not while it sits in the pool's internal queue) and a
        # pool break sends at most ``max_workers`` chunks to probation.
        cap = max_workers if config is not None else len(queue)
        pool = ProcessPoolExecutor(max_workers=max_workers)
        # future -> (task, submit time, hard deadline or None)
        inflight: dict[Any, tuple[_ChunkTask, float, float | None]] = {}

        def submit_one(task: _ChunkTask) -> None:
            if config is None:
                span = task.indices
                future = pool.submit(chunk_fn, items[span.start : span.stop])
            else:
                payload = [
                    (i, items[i], task.attempts.get(i, 0)) for i in task.indices
                ]
                future = pool.submit(run_chunk_resilient, fn, payload, config)
            now = time.perf_counter()
            deadline = now + hard * len(task.indices) if hard is not None else None
            inflight[future] = (task, now, deadline)

        def submit_ready() -> None:
            # Suspects run strictly alone.
            if probation:
                if not inflight:
                    submit_one(probation.popleft())
                return
            while queue and len(inflight) < cap:
                submit_one(queue.popleft())

        def demote(task: _ChunkTask) -> None:
            """Split a task implicated in an *ambiguous* pool break into
            uncharged probation singletons: nobody is convicted until a
            task crashes or hangs while running alone."""
            for i in task.indices:
                if not filled[i]:
                    probation.append(
                        _ChunkTask(range(i, i + 1), {i: task.attempts.get(i, 0)})
                    )

        def requeue_failed(task: _ChunkTask, kind: str) -> None:
            """A task *definitively* died or hung (it was running alone):
            charge the attempt and re-probation it, or quarantine once
            the budget is gone."""
            error_type = "WorkerCrashError" if kind == "crash" else "TaskTimeoutError"
            message = (
                "worker process died while running this task"
                if kind == "crash"
                else "worker hung past the hard (watchdog) deadline"
            )
            for i in task.indices:
                if filled[i]:
                    continue
                attempts = task.attempts.get(i, 0) + 1
                if attempts >= config.max_attempts:
                    failure = TaskFailure(
                        index=i,
                        error_type=error_type,
                        message=message,
                        traceback="",
                        attempts=attempts,
                        kind=kind,
                    )
                    metrics.note_resilience(quarantined=1)
                    results[i] = failure
                    filled[i] = True
                    self._deliver([i], [failure], 1, None, metrics, on_result)
                else:
                    metrics.note_resilience(retries=1)
                    probation.append(_ChunkTask(range(i, i + 1), {i: attempts}))

        def respawn_pool() -> None:
            nonlocal pool
            _kill_pool(pool)
            pool = ProcessPoolExecutor(max_workers=max_workers)
            self.pool_respawns += 1
            metrics.note_respawn()

        try:
            submit_ready()
            while inflight or queue or probation:
                if not inflight:
                    submit_ready()
                    continue
                timeout = WATCHDOG_POLL if hard is not None else None
                done, _ = wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                crashed_tasks: list[_ChunkTask] = []
                for future in done:
                    task, t0, _deadline = inflight.pop(future)
                    try:
                        out = future.result()
                    except BrokenProcessPool:
                        if config is None:
                            raise
                        crashed_tasks.append(task)
                        continue
                    if config is None:
                        block, n_failures = out, 0
                    else:
                        block = [
                            self._settle(
                                outcome,
                                metrics,
                                prior_attempts=task.attempts.get(outcome.index, 0),
                            )
                            for outcome in out
                        ]
                        n_failures = sum(1 for outcome in out if not outcome.ok)
                    span = task.indices
                    results[span.start : span.stop] = block
                    filled[span.start : span.stop] = [True] * len(span)
                    self._deliver(list(span), block, n_failures, t0, metrics, on_result)
                if crashed_tasks:
                    # A dead worker breaks every in-flight future, not
                    # just its own, and nothing says which task killed
                    # it.  Only a singleton that was running alone is
                    # convicted outright; everything else goes to
                    # probation to be rerun in isolation.
                    crashed_tasks.extend(task for task, _, _ in inflight.values())
                    inflight.clear()
                    respawn_pool()
                    if len(crashed_tasks) == 1 and len(crashed_tasks[0].indices) == 1:
                        requeue_failed(crashed_tasks[0], kind="crash")
                    else:
                        for task in crashed_tasks:
                            demote(task)
                elif hard is not None:
                    now = time.perf_counter()
                    expired = [
                        future
                        for future, (_, _, deadline) in inflight.items()
                        if deadline is not None and now > deadline
                    ]
                    if expired:
                        expired_tasks = [inflight[f][0] for f in expired]
                        survivors = [
                            task
                            for future, (task, _, _) in inflight.items()
                            if future not in expired
                        ]
                        inflight.clear()
                        respawn_pool()
                        for task in expired_tasks:
                            # The deadline identifies the future exactly,
                            # but inside a multi-item chunk the hanging
                            # item is unknown — isolate before charging.
                            if len(task.indices) == 1:
                                requeue_failed(task, kind="hang")
                            else:
                                demote(task)
                        # Innocent bystanders of the pool kill restart
                        # without losing budget.
                        for task in survivors:
                            queue.append(task)
                submit_ready()
        finally:
            _kill_pool(pool)

        assert all(filled)
        return results


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Force a pool down *now*, hung workers included.

    ``shutdown()`` alone waits politely for running tasks; a hung worker
    would stall the watchdog forever.  Killing the worker processes first
    (via the executor's internal process table — there is no public API)
    makes shutdown immediate.
    """
    for proc in list(getattr(pool, "_processes", {}).values() or []):
        try:
            proc.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def driver_executor(
    executor: ParallelExecutor | None,
    n_jobs: int | None = 1,
    progress: ProgressHook | None = None,
) -> ParallelExecutor:
    """The executor a campaign driver runs on.

    A pre-built ``executor`` carries its own worker count and progress
    hook, so a driver refuses ``n_jobs``/``progress`` alongside it
    rather than silently dropping them; without one, a fresh executor is
    built from them.
    """
    if executor is None:
        return ParallelExecutor(n_jobs=n_jobs, progress=progress)
    if n_jobs != 1 or progress is not None:
        raise ConfigurationError(
            "pass n_jobs/progress or a pre-built executor, not both: the"
            " executor carries its own worker count and progress hook"
        )
    return executor


__all__ = [
    "ParallelExecutor",
    "ResultHook",
    "SerialFallbackWarning",
    "driver_executor",
    "resolve_n_jobs",
]
