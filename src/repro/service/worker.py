"""The campaign worker: lease, heartbeat, execute, commit, repeat.

``scripts/run_worker.py`` runs one of these per process; any number of
them — across machines sharing the database file — drain the same
queue.  The loop:

1. :meth:`CampaignDB.lease` claims a task row (open, or expired-lease);
2. a daemon heartbeat thread extends the lease every
   ``lease_seconds / 3`` while the task computes, so long tasks never
   expire under a live worker — and a SIGKILLed worker's rows return to
   the queue one lease period later with no cleanup;
3. the task executes once, in-process, through
   :class:`repro.runtime.ParallelExecutor` under a
   :class:`repro.runtime.ResilienceConfig` with the optional soft
   ``timeout`` and no in-process retries: an exception or timeout
   becomes a :class:`~repro.runtime.TaskFailure`;
4. :meth:`CampaignDB.complete` commits the payload under the lease-owner
   guard (a lost race after an expiry is counted, not an error — the
   winner's payload is byte-identical), or :meth:`CampaignDB.fail`
   requeues the task, or parks it once its ``max_attempts`` leases are
   spent — the queue's attempt count is the only retry budget.

An optional shared :class:`repro.runtime.ResultCache` short-circuits
tasks whose ``(kind, campaign config hash, task key)`` content identity
was already computed — by this worker, a previous campaign, or another
process entirely.  Cache counters (including ``put_errors``) are
accumulated into the database's ``workers`` table so ``service.py
status`` can surface them fleet-wide.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.runtime import (
    MISS,
    ParallelExecutor,
    ResilienceConfig,
    ResultCache,
    TaskFailure,
    content_key,
)
from repro.service.adapters import get_adapter
from repro.service.db import CampaignDB, LeasedTask, default_worker_id


def execute_task(item: tuple[str, dict, dict]) -> dict:
    """Run one ``(kind, config, spec)`` task row (module-level: picklable,
    so the executor can ship it to worker sub-processes if asked to)."""
    kind, config, spec = item
    return get_adapter(kind).run_task(config, spec)


def task_cache_key(task: LeasedTask) -> str:
    """Content identity of one task's payload in a shared ResultCache."""
    return content_key(
        "service-task/v1", task.kind, task.config_key, task.task_key
    )


@dataclass
class WorkerReport:
    """What one :func:`run_worker` invocation did."""

    worker_id: str
    tasks_done: int = 0
    tasks_failed: int = 0
    lost_races: int = 0
    cache_hits: int = 0
    failures: list[str] = field(default_factory=list)


class _Heartbeat:
    """Daemon thread extending the worker's live leases (own DB handle —
    SQLite connections are not shared across threads)."""

    def __init__(self, db_path, worker_id: str, lease_seconds: float) -> None:
        self._db_path = db_path
        self._worker_id = worker_id
        self._lease_seconds = lease_seconds
        self._interval = max(0.1, lease_seconds / 3.0)
        self._lock = threading.Lock()
        self._held: set[tuple[int, str]] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def hold(self, campaign_id: int, task_key: str) -> None:
        with self._lock:
            self._held.add((campaign_id, task_key))

    def drop(self, campaign_id: int, task_key: str) -> None:
        with self._lock:
            self._held.discard((campaign_id, task_key))

    def _run(self) -> None:
        db = CampaignDB(self._db_path)
        try:
            while not self._stop.wait(self._interval):
                with self._lock:
                    held = list(self._held)
                db.heartbeat(self._worker_id, held, self._lease_seconds)
        finally:
            db.close()


def run_worker(
    db_path,
    worker_id: str | None = None,
    lease_seconds: float = 60.0,
    poll_seconds: float = 0.5,
    campaign: str | None = None,
    max_tasks: int | None = None,
    drain: bool = False,
    max_attempts: int = 3,
    timeout: float | None = None,
    cache: ResultCache | None = None,
) -> WorkerReport:
    """Pull and execute tasks until stopped (see module docstring).

    ``drain=True`` exits once every task row (of ``campaign``, or of the
    whole database) is settled — it keeps polling while rows are leased
    elsewhere, so a drain-mode worker outlives a crashed peer and picks
    up its expired leases.  ``max_tasks`` bounds the number of leases
    this call executes (testing / fair-share).  ``timeout`` is the soft
    per-task budget in seconds (``None``: unbounded).  A task that
    raises or times out runs exactly ``max_attempts`` times in all,
    once per lease, before its row is parked as failed.
    """
    worker_id = worker_id or default_worker_id()
    executor = ParallelExecutor(
        resilience=ResilienceConfig(timeout=timeout, max_retries=0)
    )
    report = WorkerReport(worker_id=worker_id)
    db = CampaignDB(db_path)
    heartbeat = _Heartbeat(db_path, worker_id, lease_seconds)
    heartbeat.start()
    db.record_worker(worker_id)  # announce before the first lease
    try:
        while max_tasks is None or report.tasks_done + report.tasks_failed < max_tasks:
            leased = db.lease(
                worker_id, n=1, lease_seconds=lease_seconds, campaign=campaign
            )
            if not leased:
                if drain and db.incomplete_count(campaign) == 0:
                    break
                # Nothing claimable right now: new campaigns may arrive,
                # or a dead peer's leases may expire — keep polling.
                time.sleep(poll_seconds)
                continue
            task = leased[0]
            heartbeat.hold(task.campaign_id, task.task_key)
            try:
                _execute_one(task, db, executor, cache, report, max_attempts)
            finally:
                heartbeat.drop(task.campaign_id, task.task_key)
    finally:
        heartbeat.stop()
        db.release(worker_id)
        db.record_worker(
            worker_id,
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
            cache_put_errors=cache.put_errors if cache else 0,
        )
        db.close()
    return report


def _execute_one(
    task: LeasedTask,
    db: CampaignDB,
    executor: ParallelExecutor,
    cache: ResultCache | None,
    report: WorkerReport,
    max_attempts: int,
) -> None:
    payload = MISS
    if cache is not None:
        payload = cache.get(task_cache_key(task))
        if payload is not MISS:
            report.cache_hits += 1
    if payload is MISS:
        value = executor.map(
            execute_task, [(task.kind, task.config, task.spec)]
        )[0]
        if isinstance(value, TaskFailure):
            outcome = db.fail(
                report.worker_id,
                task.campaign_id,
                task.task_key,
                value.summary(),
                max_attempts=max_attempts,
            )
            if outcome == "lost":
                report.lost_races += 1
            else:
                report.tasks_failed += 1
                report.failures.append(f"{task.task_key}: {value.summary()}")
                db.record_worker(report.worker_id, tasks_failed=1)
            return
        payload = value
        if cache is not None:
            cache.put(task_cache_key(task), payload)
    if db.complete(
        report.worker_id, task.campaign_id, task.task_key, payload
    ):
        report.tasks_done += 1
        db.record_worker(report.worker_id, tasks_done=1)
    else:
        # Our lease expired and another worker claimed or completed the
        # row; its committed payload is byte-identical to ours, so the
        # race loses nothing (see db.py module docstring).
        report.lost_races += 1


__all__ = ["WorkerReport", "execute_task", "run_worker", "task_cache_key"]
