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
  aborting the campaign (``strict=True`` restores abort semantics).
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

from repro.errors import (
    ConfigurationError,
    ExecutionError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime.metrics import ProgressHook, RunMetrics
from repro.runtime.resilience import (
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
    """One unit of in-flight work on the resilient path."""

    indices: tuple[int, ...]  # global item positions
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
        (default) is the exact legacy behavior: the first worker
        exception (or worker death) propagates.
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

        With :attr:`resilience` set and ``strict=False``, slots whose
        task exhausted its retry budget hold a
        :class:`~repro.runtime.TaskFailure` instead of a value.
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
        """The one backend dispatch: the resilient paths run ``fn`` per
        item, the legacy paths run ``chunk_fn`` per chunk."""
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
        if self.resilience is not None:
            if use_processes:
                results = self._map_processes_resilient(
                    fn, items, metrics, n_jobs, on_result
                )
            else:
                results = self._map_serial_resilient(fn, items, metrics, on_result)
        elif not use_processes:
            results = self._map_serial(chunk_fn, items, metrics, on_result)
        else:
            results = self._map_processes(chunk_fn, items, metrics, n_jobs, on_result)
        metrics.finish()
        return results

    # --- legacy backends --------------------------------------------------------------

    def _chunks(self, items: list[Any], n_jobs: int) -> list[list[Any]]:
        size = self._chunk_span(len(items), n_jobs)
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _chunk_span(self, n_items: int, n_jobs: int) -> int:
        size = self.chunk_size
        if size is None:
            size = max(1, n_items // (4 * n_jobs) + (n_items % (4 * n_jobs) > 0))
        elif size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {size}")
        return size

    def _map_serial(
        self,
        chunk_fn: Callable[[list[Any]], list[Any]],
        items: list[Any],
        metrics: RunMetrics,
        on_result: ResultHook | None,
    ) -> list[Any]:
        results = []
        chunks = self._chunks(items, 1) if items else []
        start = 0
        for chunk in chunks:
            t0 = time.perf_counter()
            block = chunk_fn(chunk)
            results.extend(block)
            if on_result is not None:
                on_result(list(range(start, start + len(chunk))), block)
            start += len(chunk)
            metrics.note_chunk(len(chunk), time.perf_counter() - t0)
            if self.progress is not None:
                self.progress(metrics)
        return results

    def _map_processes(
        self,
        chunk_fn: Callable[[list[Any]], list[Any]],
        items: list[Any],
        metrics: RunMetrics,
        n_jobs: int,
        on_result: ResultHook | None,
    ) -> list[Any]:
        chunks = self._chunks(items, n_jobs)
        starts: list[int] = []
        offset = 0
        for chunk in chunks:
            starts.append(offset)
            offset += len(chunk)
        results: list[list[Any] | None] = [None] * len(chunks)
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(chunks))) as pool:
            submitted = {}
            for idx, chunk in enumerate(chunks):
                future = pool.submit(chunk_fn, chunk)
                submitted[future] = (idx, len(chunk), time.perf_counter())
            pending = set(submitted)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    idx, n_tasks, t0 = submitted[future]
                    results[idx] = future.result()
                    if on_result is not None:
                        on_result(
                            list(range(starts[idx], starts[idx] + n_tasks)),
                            results[idx],
                        )
                    metrics.note_chunk(n_tasks, time.perf_counter() - t0)
                    if self.progress is not None:
                        self.progress(metrics)
        flat: list[Any] = []
        for block in results:
            assert block is not None
            flat.extend(block)
        return flat

    # --- resilient backends -----------------------------------------------------------

    def _map_serial_resilient(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        metrics: RunMetrics,
        on_result: ResultHook | None,
    ) -> list[Any]:
        """In-process resilient path: soft timeouts + retries + quarantine.

        Worker death cannot be survived here (there is no worker), so the
        watchdog/respawn machinery does not apply; everything else —
        including bitwise parity with the process path — does.
        """
        config = self.resilience
        assert config is not None
        results: list[Any] = []
        chunks = self._chunks(items, 1) if items else []
        start = 0
        for chunk in chunks:
            t0 = time.perf_counter()
            outcomes = [
                run_one_resilient(fn, start + j, item, config)
                for j, item in enumerate(chunk)
            ]
            block = [self._settle(out, metrics, config) for out in outcomes]
            results.extend(block)
            if on_result is not None:
                on_result(list(range(start, start + len(chunk))), block)
            start += len(chunk)
            metrics.note_chunk(
                len(chunk),
                time.perf_counter() - t0,
                n_failures=sum(1 for out in outcomes if not out.ok),
            )
            if self.progress is not None:
                self.progress(metrics)
        return results

    def _settle(
        self,
        outcome: TaskOutcome,
        metrics: RunMetrics,
        config: ResilienceConfig,
        prior_attempts: int = 0,
    ) -> Any:
        """Turn one worker outcome into a result-slot value (or raise).

        ``prior_attempts`` were burned by earlier crashes/hangs and were
        already counted as retries at re-enqueue time; only the
        worker-side extras are new here.
        """
        metrics.note_resilience(
            retries=max(0, outcome.attempts - 1 - prior_attempts),
            timeouts=outcome.timeouts,
            quarantined=0 if outcome.ok else 1,
        )
        if outcome.ok:
            return outcome.value
        failure = outcome.failure
        if config.strict:
            raise self._strict_error(failure)
        return failure

    @staticmethod
    def _strict_error(failure: TaskFailure) -> ExecutionError:
        detail = failure.summary()
        if failure.traceback:
            detail += "\n" + failure.traceback
        if failure.kind == "timeout":
            return TaskTimeoutError(detail)
        if failure.kind in ("crash", "hang"):
            return WorkerCrashError(detail)
        return ExecutionError(detail)

    def _map_processes_resilient(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        metrics: RunMetrics,
        n_jobs: int,
        on_result: ResultHook | None,
    ) -> list[Any]:
        config = self.resilience
        assert config is not None
        n = len(items)
        results: list[Any] = [None] * n
        filled = [False] * n

        size = self._chunk_span(n, n_jobs)
        queue: deque[_ChunkTask] = deque(
            _ChunkTask(tuple(range(i, min(i + size, n))), {})
            for i in range(0, n, size)
        )
        #: Singleton tasks suspected of crashing/hanging a worker.  They
        #: run *alone* (nothing else in flight) so the next pool break
        #: implicates exactly one task — innocents never burn retry
        #: budget for a neighbor's crash.
        probation: deque[_ChunkTask] = deque()
        max_workers = min(n_jobs, len(queue))
        hard = config.hard_limit()
        pool = ProcessPoolExecutor(max_workers=max_workers)
        # future -> (task, submit time, hard deadline or None)
        inflight: dict[Any, tuple[_ChunkTask, float, float | None]] = {}

        def submit_one(task: _ChunkTask) -> None:
            payload = [
                (i, items[i], task.attempts.get(i, 0)) for i in task.indices
            ]
            future = pool.submit(run_chunk_resilient, fn, payload, config)
            now = time.monotonic()
            deadline = now + hard * len(task.indices) if hard is not None else None
            inflight[future] = (task, now, deadline)

        def submit_ready() -> None:
            # Suspects run strictly alone; normal work is capped at the
            # worker count so a chunk's hard deadline starts ticking
            # roughly when it starts running, not while it sits in the
            # pool's internal queue.
            if probation:
                if not inflight:
                    submit_one(probation.popleft())
                return
            while queue and len(inflight) < max_workers:
                submit_one(queue.popleft())

        def demote(task: _ChunkTask) -> None:
            """Split a task implicated in an *ambiguous* pool break into
            uncharged probation singletons: nobody is convicted until a
            task crashes or hangs while running alone."""
            for i in task.indices:
                if not filled[i]:
                    probation.append(_ChunkTask((i,), {i: task.attempts.get(i, 0)}))

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
                    if config.strict:
                        raise self._strict_error(failure)
                    results[i] = failure
                    filled[i] = True
                    if on_result is not None:
                        on_result([i], [failure])
                    metrics.note_chunk(1, 0.0, n_failures=1)
                    if self.progress is not None:
                        self.progress(metrics)
                else:
                    metrics.note_resilience(retries=1)
                    probation.append(_ChunkTask((i,), {i: attempts}))

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
                timeout = config.watchdog_poll if hard is not None else None
                done, _ = wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                crashed_tasks: list[_ChunkTask] = []
                for future in done:
                    task, t0, _deadline = inflight.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        crashed_tasks.append(task)
                        continue
                    block = []
                    n_failures = 0
                    indices = []
                    for outcome in outcomes:
                        value = self._settle(
                            outcome,
                            metrics,
                            config,
                            prior_attempts=task.attempts.get(outcome.index, 0),
                        )
                        results[outcome.index] = value
                        filled[outcome.index] = True
                        indices.append(outcome.index)
                        block.append(value)
                        if not outcome.ok:
                            n_failures += 1
                    if on_result is not None:
                        on_result(indices, block)
                    metrics.note_chunk(
                        len(outcomes), time.perf_counter() - t0, n_failures=n_failures
                    )
                    if self.progress is not None:
                        self.progress(metrics)
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
                    now = time.monotonic()
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


__all__ = [
    "ParallelExecutor",
    "ResultHook",
    "SerialFallbackWarning",
    "resolve_n_jobs",
]
