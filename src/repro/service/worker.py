"""The campaign worker: lease, heartbeat, execute, commit, repeat.

``scripts/run_worker.py`` runs one of these per process; any number of
them — across machines sharing the database file — drain the same
queue.  The loop:

1. :meth:`CampaignDB.lease` claims a batch of task rows (open, or
   expired-lease).  The first lease takes one row; each later one takes
   as many as the previous batch's mean task time fits into
   :data:`BATCH_BUDGET_S`, capped at :data:`MAX_BATCH` (and by
   ``max_tasks``), so a task slower than the budget is leased alone;
2. a daemon heartbeat thread extends every leased row every
   ``lease_seconds / 3`` while the batch computes, so long tasks never
   expire under a live worker — and a SIGKILLed worker's rows return to
   the queue one lease period later with no cleanup;
3. each task executes once, in-process, under
   :func:`repro.runtime.resilience.run_one_resilient` with a
   :class:`repro.runtime.ResilienceConfig` of the optional soft
   ``timeout`` and no in-process retries: an exception or timeout
   becomes a :class:`~repro.runtime.TaskFailure`;
4. one transaction commits the batch: :meth:`CampaignDB.complete` per
   payload under its row's lease-owner guard (a lost race after an
   expiry is counted, not an error — the winner's payload is
   byte-identical), or :meth:`CampaignDB.fail`, which requeues the task
   or parks it once its ``max_attempts`` leases are spent — the queue's
   attempt count is the only retry budget — plus the worker's summed
   counters.  An exception (``KeyboardInterrupt`` included) still
   commits the tasks that finished; the rows not reached are released.

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
    ResilienceConfig,
    ResultCache,
    TaskFailure,
    content_key,
)
from repro.runtime.resilience import run_one_resilient
from repro.service.adapters import get_adapter
from repro.service.db import CampaignDB, LeasedTask, default_worker_id


#: Wall-clock budget of one lease batch, in seconds (see batch_size).
#: It bounds what a SIGKILL can strand until the lease expires: one
#: batch, about this much work, or one task if that is longer.  At 50 ms
#: the cap below binds for every task up to ~3 ms, e.g. an
#: ``srlr_energy`` grid cell (~1.2 ms on a 2-vCPU Xeon VM, ~2.2 ms in its
#: slow state), and a 10 ms task still gets batches of five.
BATCH_BUDGET_S = 0.05

#: Most tasks one lease takes.  A lease plus a commit cost ~0.4 ms per
#: batch; measured queue time per ``srlr_energy`` cell (200-cell sweep,
#: same VM) was 0.65 ms at 1 task per batch, 0.33 ms at 8, 0.27 ms at 16
#: and 0.26 ms at 32, so past 16 a larger batch buys ~1% of a task and
#: strands more rows on a kill.
MAX_BATCH = 16


def execute_task(item: tuple[str, dict, dict]) -> dict:
    """Run one ``(kind, config, spec)`` task row.

    Looked up on the module at every call, so a wrapper installed here
    (a profiling probe, a test double) sees every task."""
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

    def hold(self, rows: list[tuple[int, str]]) -> None:
        with self._lock:
            self._held.update(rows)

    def drop(self, rows: list[tuple[int, str]]) -> None:
        with self._lock:
            self._held.difference_update(rows)

    def _run(self) -> None:
        db = CampaignDB(self._db_path)
        try:
            while not self._stop.wait(self._interval):
                with self._lock:
                    held = list(self._held)
                db.heartbeat(self._worker_id, held, self._lease_seconds)
        finally:
            db.close()


def batch_size(mean_task_s: float) -> int:
    """How many tasks the next lease takes, after a batch whose tasks
    took ``mean_task_s`` each: as many as fit into
    :data:`BATCH_BUDGET_S`, at least one and at most :data:`MAX_BATCH`."""
    if mean_task_s <= 0.0:
        return MAX_BATCH
    return max(1, min(MAX_BATCH, int(BATCH_BUDGET_S / mean_task_s)))


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
    up its expired leases.  ``max_tasks`` bounds the number of tasks
    this call settles (testing / fair-share).  ``timeout`` is the soft
    per-task budget in seconds (``None``: unbounded).  A task that
    raises or times out runs exactly ``max_attempts`` times in all,
    once per lease, before its row is parked as failed.
    """
    worker_id = worker_id or default_worker_id()
    policy = ResilienceConfig(timeout=timeout, max_retries=0)
    report = WorkerReport(worker_id=worker_id)
    db = CampaignDB(db_path)
    heartbeat = _Heartbeat(db_path, worker_id, lease_seconds)
    heartbeat.start()
    db.record_worker(worker_id)  # announce before the first lease
    size = 1  # the first batch measures how long a task takes
    try:
        while max_tasks is None or report.tasks_done + report.tasks_failed < max_tasks:
            n = size
            if max_tasks is not None:
                n = min(n, max_tasks - report.tasks_done - report.tasks_failed)
            leased = db.lease(
                worker_id, n=n, lease_seconds=lease_seconds, campaign=campaign
            )
            if not leased:
                if drain and db.incomplete_count(campaign) == 0:
                    break
                # Nothing claimable right now: new campaigns may arrive,
                # or a dead peer's leases may expire — keep polling.
                time.sleep(poll_seconds)
                continue
            held = [(task.campaign_id, task.task_key) for task in leased]
            heartbeat.hold(held)
            finished: list[tuple[LeasedTask, dict | TaskFailure]] = []
            try:
                started = time.perf_counter()
                for task in leased:
                    finished.append((task, _execute_one(task, policy, cache, report)))
                size = batch_size((time.perf_counter() - started) / len(leased))
            finally:
                # Interrupted or not, what finished is committed; rows
                # not reached are released below.
                _commit(db, finished, report, max_attempts)
                heartbeat.drop(held)
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
    policy: ResilienceConfig,
    cache: ResultCache | None,
    report: WorkerReport,
) -> dict | TaskFailure:
    """One task's payload (from the cache, or computed), or its
    :class:`~repro.runtime.TaskFailure`."""
    if cache is not None:
        payload = cache.get(task_cache_key(task))
        if payload is not MISS:
            report.cache_hits += 1
            return payload
    outcome = run_one_resilient(
        execute_task, 0, (task.kind, task.config, task.spec), policy
    )
    if not outcome.ok:
        return outcome.failure
    if cache is not None:
        cache.put(task_cache_key(task), outcome.value)
    return outcome.value


def _commit(
    db: CampaignDB,
    finished: list[tuple[LeasedTask, dict | TaskFailure]],
    report: WorkerReport,
    max_attempts: int,
) -> None:
    """Commit a batch's results and the worker's counters in one
    transaction; each row keeps its own lease-owner guard."""
    if not finished:
        return
    done = failed = lost = 0
    failures = []
    with db.transaction():
        for task, value in finished:
            if isinstance(value, TaskFailure):
                outcome = db.fail(
                    report.worker_id,
                    task.campaign_id,
                    task.task_key,
                    value.summary(),
                    max_attempts=max_attempts,
                )
                if outcome == "lost":
                    lost += 1
                else:
                    failed += 1
                    failures.append(f"{task.task_key}: {value.summary()}")
            elif db.complete(
                report.worker_id, task.campaign_id, task.task_key, value
            ):
                done += 1
            else:
                # Our lease expired and another worker claimed or
                # completed the row; its committed payload is
                # byte-identical to ours, so the race loses nothing (see
                # db.py module docstring).
                lost += 1
        db.record_worker(report.worker_id, tasks_done=done, tasks_failed=failed)
    report.tasks_done += done
    report.tasks_failed += failed
    report.lost_races += lost
    report.failures.extend(failures)


__all__ = [
    "BATCH_BUDGET_S",
    "MAX_BATCH",
    "WorkerReport",
    "batch_size",
    "execute_task",
    "run_worker",
    "task_cache_key",
]
