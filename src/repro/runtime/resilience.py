"""Fault tolerance for the parallel task layer.

The campaigns behind the paper's statistical claims (Monte Carlo yield,
swing sweeps, fault campaigns) run for minutes to hours under
:class:`~repro.runtime.ParallelExecutor`.  Without this module a single
hung task, a worker killed by the OOM killer, or a transient exception
loses the entire run.  :class:`ResilienceConfig` opts a ``map`` into:

* **per-task soft timeouts** — each task runs under a ``SIGALRM`` timer
  inside the worker; expiry raises :class:`repro.errors.TaskTimeoutError`
  and counts as a failed attempt;
* **deterministic bounded retries** — a failed attempt is re-run up to
  ``max_retries`` times with a fixed exponential backoff.  Tasks carry their own
  content-addressed seeds (:mod:`repro.runtime.seeds`), so a retry
  re-evaluates exactly the same pure function of the item and the final
  results are bitwise identical to a clean run;
* **quarantine** — a task that exhausts its attempts yields a structured
  :class:`TaskFailure` record in its result slot instead of aborting the
  campaign.

The executor adds the parts that need the parent process: a watchdog
that hard-kills chunks whose workers hang past the soft timeout (e.g.
blocked signals, stuck C code) and ``BrokenProcessPool`` recovery that
respawns the pool and re-enqueues only the in-flight work — see
:meth:`repro.runtime.ParallelExecutor.map` and docs/RESILIENCE.md.

Everything here that crosses a process boundary (the config, the
outcome, the failure record) is a plain picklable dataclass.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.config import check_fields, checked
from repro.errors import TaskTimeoutError

#: Failure categories carried by :attr:`TaskFailure.kind`.
FAILURE_KINDS = ("exception", "timeout", "crash", "hang")

#: Retry ``k`` (1-based) sleeps ``min(BACKOFF_MAX, BACKOFF_BASE *
#: BACKOFF_FACTOR**(k-1))`` seconds.  Deterministic — no jitter — so
#: retried runs stay reproducible.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0

#: Parent-side poll interval while hard deadlines are armed, seconds.
WATCHDOG_POLL = 0.05


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget.

    Placed in the task's result slot (quarantine mode) so the rest of the
    campaign survives; consumers decide whether a hole is tolerable.
    """

    index: int  # position within the mapped items
    error_type: str  # exception class name; "WorkerCrashError" for crashes
    message: str
    traceback: str  # formatted worker-side traceback ("" for crashes/hangs)
    attempts: int  # total attempts spent, crashes included
    kind: str  # one of FAILURE_KINDS

    def summary(self) -> str:
        return (
            f"task {self.index} failed after {self.attempts} attempt(s)"
            f" [{self.kind}]: {self.error_type}: {self.message}"
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the fault-tolerant execution path.

    Parameters
    ----------
    timeout:
        Soft per-task wall-clock budget in seconds, enforced by
        ``SIGALRM`` inside the worker (``None`` disables).  Platforms
        without ``SIGALRM`` fall back to the watchdog alone.  The parent
        watchdog kills the pool once a task runs past ``4 * timeout``
        (a chunk of ``n`` tasks gets ``n *`` this budget).
    max_retries:
        Extra attempts after the first, per task.  Worker-side failures
        (exception, soft timeout) and parent-side ones (crash, hang)
        draw from the same budget.
    """

    timeout: float | None = checked(None, interval="(0, inf)")
    max_retries: int = checked(2, interval="[0, inf)")

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def max_attempts(self) -> int:
        """Total attempts a task may spend (first try + retries)."""
        return self.max_retries + 1

    def hard_limit(self) -> float | None:
        """Per-task hard (watchdog) budget in seconds, or ``None``."""
        if self.timeout is None:
            return None
        return 4.0 * self.timeout


def backoff(attempt: int) -> float:
    """Sleep before retrying after ``attempt`` failed attempts."""
    return min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))


@dataclass(frozen=True)
class TaskOutcome:
    """Worker-side result envelope: a value or a structured failure."""

    index: int
    attempts: int
    timeouts: int = 0
    value: Any = None
    failure: TaskFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@contextmanager
def soft_deadline(seconds: float | None):
    """Raise :class:`TaskTimeoutError` in this thread after ``seconds``.

    A no-op when ``seconds`` is ``None``, when the platform lacks
    ``SIGALRM`` (Windows), or off the main thread (where Python cannot
    deliver signals) — the parent watchdog remains the backstop.
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expire(signum, frame):
        raise TaskTimeoutError(f"task exceeded its {seconds}s soft timeout")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_one_resilient(
    fn: Callable[[Any], Any],
    index: int,
    item: Any,
    config: ResilienceConfig,
    prior_attempts: int = 0,
) -> TaskOutcome:
    """Evaluate one task under the retry/timeout policy.

    ``prior_attempts`` carries attempts already burned by worker crashes
    or hangs, so a task re-enqueued after a pool respawn keeps one
    unified budget.  ``fn(item)`` must be a pure function of ``item``
    (tasks carry their own seeds), which is what makes a retried run
    bitwise identical to a clean one.
    """
    attempts = prior_attempts
    timeouts = 0
    while True:
        attempts += 1
        try:
            with soft_deadline(config.timeout):
                value = fn(item)
            return TaskOutcome(index=index, attempts=attempts, timeouts=timeouts, value=value)
        except Exception as exc:
            timed_out = isinstance(exc, TaskTimeoutError)
            if timed_out:
                timeouts += 1
            if attempts >= config.max_attempts:
                failure = TaskFailure(
                    index=index,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=traceback.format_exc(),
                    attempts=attempts,
                    kind="timeout" if timed_out else "exception",
                )
                return TaskOutcome(
                    index=index, attempts=attempts, timeouts=timeouts, failure=failure
                )
        time.sleep(backoff(attempts))


def run_chunk_resilient(
    fn: Callable[[Any], Any],
    indexed: list[tuple[int, Any, int]],
    config: ResilienceConfig,
) -> list[TaskOutcome]:
    """Worker-side body: ``(index, item, prior_attempts)`` triples in,
    one :class:`TaskOutcome` per task out, order preserved."""
    return [
        run_one_resilient(fn, index, item, config, prior)
        for index, item, prior in indexed
    ]


__all__ = [
    "FAILURE_KINDS",
    "ResilienceConfig",
    "TaskFailure",
    "TaskOutcome",
    "run_chunk_resilient",
    "run_one_resilient",
    "soft_deadline",
]
