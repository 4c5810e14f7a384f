"""Execution metrics and progress hooks for the parallel runtime.

The executor records one :class:`ChunkRecord` per completed chunk and
aggregates them into a :class:`RunMetrics`.  A progress hook — any
callable taking the :class:`RunMetrics` — is invoked after every chunk,
which is what ``scripts/run_all_experiments.py`` uses to report
throughput while long Monte Carlo blocks run.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

#: A progress hook receives the live metrics after each completed chunk.
ProgressHook = Callable[["RunMetrics"], None]


@dataclass(frozen=True)
class ChunkRecord:
    """Timing of one completed chunk of tasks."""

    index: int
    n_tasks: int
    elapsed: float
    n_failures: int = 0

    @property
    def throughput(self) -> float:
        """Tasks per second inside this chunk."""
        if self.elapsed <= 0.0:
            return float("inf")
        return self.n_tasks / self.elapsed


@dataclass
class RunMetrics:
    """Aggregate progress of one ``ParallelExecutor.map`` call."""

    total_tasks: int = 0
    completed_tasks: int = 0
    failed_tasks: int = 0
    #: Extra attempts spent re-running failed tasks (resilient path).
    retries: int = 0
    #: Soft (in-worker) timeout expiries, successful-after-retry included.
    timeouts: int = 0
    #: Times the process pool had to be killed and respawned (worker
    #: death or watchdog-detected hang).
    pool_respawns: int = 0
    #: Tasks that exhausted their retry budget and yielded a
    #: :class:`~repro.runtime.TaskFailure` record instead of a value.
    quarantined: int = 0
    n_jobs: int = 1
    backend: str = "serial"
    #: Why a parallel request degraded to the serial path (``None`` when
    #: the requested backend actually ran).
    fallback_reason: str | None = None
    started_at: float = field(default_factory=time.perf_counter)
    wall_time: float = 0.0
    chunks: list[ChunkRecord] = field(default_factory=list)
    cache_hit: bool = False

    def note_chunk(self, n_tasks: int, elapsed: float, n_failures: int = 0) -> ChunkRecord:
        record = ChunkRecord(
            index=len(self.chunks),
            n_tasks=n_tasks,
            elapsed=elapsed,
            n_failures=n_failures,
        )
        self.chunks.append(record)
        self.completed_tasks += n_tasks
        self.failed_tasks += n_failures
        self.wall_time = time.perf_counter() - self.started_at
        return record

    def note_resilience(
        self, retries: int = 0, timeouts: int = 0, quarantined: int = 0
    ) -> None:
        """Accumulate resilient-path counters (see field docs above)."""
        self.retries += retries
        self.timeouts += timeouts
        self.quarantined += quarantined

    def note_respawn(self) -> None:
        self.pool_respawns += 1

    def finish(self) -> None:
        self.wall_time = time.perf_counter() - self.started_at

    @property
    def throughput(self) -> float:
        """Overall tasks per second so far."""
        if self.wall_time <= 0.0:
            return float("inf")
        return self.completed_tasks / self.wall_time

    @property
    def fraction_done(self) -> float:
        if self.total_tasks <= 0:
            return 1.0
        return self.completed_tasks / self.total_tasks

    def summary(self) -> str:
        fallback = (
            f", serial fallback: {self.fallback_reason}"
            if self.fallback_reason
            else ""
        )
        resilience = ""
        if self.retries or self.timeouts or self.pool_respawns or self.quarantined:
            resilience = (
                f" [{self.retries} retries, {self.timeouts} timeouts,"
                f" {self.pool_respawns} respawns, {self.quarantined} quarantined]"
            )
        return (
            f"{self.completed_tasks}/{self.total_tasks} tasks"
            f" ({self.backend}, n_jobs={self.n_jobs})"
            f" in {self.wall_time:.2f}s"
            f" ({self.throughput:.1f} tasks/s, {self.failed_tasks} failed)"
            f"{resilience}{fallback}"
        )


def print_progress(metrics: RunMetrics, stream=None) -> None:
    """A minimal progress hook: one status line per completed chunk."""
    stream = stream or sys.stderr
    print(f"\r[runtime] {metrics.summary()}", end="", file=stream, flush=True)
    if metrics.completed_tasks >= metrics.total_tasks:
        print(file=stream)


__all__ = ["ChunkRecord", "ProgressHook", "RunMetrics", "print_progress"]
