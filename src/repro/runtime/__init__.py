"""Parallel execution runtime: executor, seeds, metrics, cache, resilience.

The subsystem behind ``run_monte_carlo(..., n_jobs=...)``,
``sweep_grid(..., n_jobs=...)`` and the other campaign drivers: an
order-preserving chunked process-pool executor whose results are
independent of worker count, deterministic per-task seed streams,
lightweight progress metrics, an opt-in on-disk result cache keyed by a
content hash of the inputs, a fault-tolerant task layer (timeouts,
deterministic retries, worker-crash recovery, poison-task quarantine —
:mod:`repro.runtime.resilience`), and the crash-safe JSONL checkpoint
store plus the one checkpointed task loop (:func:`checkpoint_store`,
:func:`run_checkpointed`)
that gives every long-running campaign ``checkpoint=``/``resume=``
(:mod:`repro.runtime.checkpoint`).
"""

from repro.runtime.cache import (
    MISS,
    CacheStats,
    ResultCache,
    content_key,
    stable_token,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    callable_token,
    checkpoint_store,
    git_provenance,
    run_checkpointed,
)
from repro.runtime.executor import (
    ParallelExecutor,
    ResultHook,
    SerialFallbackWarning,
    driver_executor,
    resolve_n_jobs,
)
from repro.runtime.metrics import ChunkRecord, ProgressHook, RunMetrics, print_progress
from repro.runtime.resilience import (
    FAILURE_KINDS,
    ResilienceConfig,
    TaskFailure,
    TaskOutcome,
)
from repro.runtime.seeds import derived_seed, sequential_seeds

__all__ = [
    "CHECKPOINT_VERSION",
    "CacheStats",
    "CheckpointStore",
    "ChunkRecord",
    "FAILURE_KINDS",
    "MISS",
    "ParallelExecutor",
    "ProgressHook",
    "ResilienceConfig",
    "ResultCache",
    "ResultHook",
    "RunMetrics",
    "SerialFallbackWarning",
    "TaskFailure",
    "TaskOutcome",
    "callable_token",
    "checkpoint_store",
    "content_key",
    "derived_seed",
    "driver_executor",
    "git_provenance",
    "print_progress",
    "resolve_n_jobs",
    "run_checkpointed",
    "sequential_seeds",
    "stable_token",
]
