"""Chaos suite for the resilient execution layer (docs/RESILIENCE.md).

Workers that raise, sleep past their timeout, ignore ``SIGALRM`` and
hang, or die outright via ``os._exit`` — the executor must retry
deterministically, respawn the pool, quarantine poison tasks as
structured :class:`TaskFailure` records, and above all keep the
determinism contract: a run with retries/crashes/respawns is *bitwise
identical* to a clean run, for every ``n_jobs``.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    ExecutionError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime import (
    MISS,
    ParallelExecutor,
    ResilienceConfig,
    ResultCache,
    TaskFailure,
)

POISON = 3
ITEMS = list(range(8))


def _double(x: int) -> int:
    return x * 2


def _boom(x: int) -> int:
    if x == POISON:
        raise ValueError(f"poison {x}")
    return x * 2


def _flaky(arg: tuple[int, str]) -> int:
    """Fail the first attempt of every item, succeed after (via sentinel)."""
    x, sentinel_dir = arg
    marker = Path(sentinel_dir) / f"tried-{x}"
    if not marker.exists():
        marker.touch()
        raise RuntimeError(f"transient failure at {x}")
    return x * 2


def _sleepy(x: int) -> int:
    if x == POISON:
        time.sleep(30.0)
    return x * 2


def _hard_hang(x: int) -> int:
    """Defeat the soft timeout: only the parent watchdog can recover."""
    if x == POISON:
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        time.sleep(30.0)
    return x * 2


def _suicidal(x: int) -> int:
    if x == POISON:
        os._exit(42)
    return x * 2


def _fast_config(**overrides) -> ResilienceConfig:
    base = dict(max_retries=1, backoff_base=0.0)
    base.update(overrides)
    return ResilienceConfig(**base)


# --- config validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"hard_timeout": 0.0},
        {"max_retries": -1},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"watchdog_poll": 0.0},
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigurationError):
        ResilienceConfig(**kwargs)


def test_backoff_is_deterministic_and_capped():
    config = ResilienceConfig(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
    assert config.backoff(1) == pytest.approx(0.1)
    assert config.backoff(2) == pytest.approx(0.2)
    assert config.backoff(3) == pytest.approx(0.3)  # capped
    assert config.backoff(10) == pytest.approx(0.3)


def test_task_failure_is_picklable():
    failure = TaskFailure(3, "ValueError", "poison", "tb", 2, "exception")
    assert pickle.loads(pickle.dumps(failure)) == failure


# --- retries: bitwise parity -----------------------------------------------------------


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_retried_run_bitwise_identical_to_clean(tmp_path, n_jobs):
    """Every item fails once, then succeeds: the retried results must
    equal the clean reference exactly, for every worker count."""
    sentinel = tmp_path / f"jobs{n_jobs}"
    sentinel.mkdir()
    items = [(x, str(sentinel)) for x in ITEMS]
    clean = [x * 2 for x in ITEMS]

    executor = ParallelExecutor(n_jobs=n_jobs, resilience=_fast_config())
    assert executor.map(_flaky, items) == clean
    metrics = executor.last_metrics
    assert metrics.retries >= len(ITEMS)
    assert metrics.quarantined == 0
    assert metrics.failed_tasks == 0


def test_without_resilience_first_error_still_propagates():
    """resilience=None is the exact legacy contract."""
    with pytest.raises(ValueError, match="poison"):
        ParallelExecutor(n_jobs=1).map(_boom, ITEMS)


# --- quarantine ------------------------------------------------------------------------


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_exhausted_task_quarantined_with_structured_record(n_jobs):
    executor = ParallelExecutor(n_jobs=n_jobs, resilience=_fast_config())
    out = executor.map(_boom, ITEMS)
    failure = out[POISON]
    assert isinstance(failure, TaskFailure)
    assert failure.index == POISON
    assert failure.error_type == "ValueError"
    assert f"poison {POISON}" in failure.message
    assert "ValueError" in failure.traceback
    assert failure.attempts == 2  # first try + one retry
    assert failure.kind == "exception"
    assert [v for i, v in enumerate(out) if i != POISON] == [
        x * 2 for x in ITEMS if x != POISON
    ]
    assert executor.last_metrics.quarantined == 1
    assert executor.last_metrics.failed_tasks == 1


def _boom_chunk(chunk: list[int]) -> list[int]:
    return [_boom(x) for x in chunk]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_map_chunks_keeps_failures_per_item(n_jobs):
    # Under resilience each item runs as a one-item chunk: the poison
    # item is quarantined alone, its chunk neighbours still complete.
    executor = ParallelExecutor(
        n_jobs=n_jobs, chunk_size=4, resilience=_fast_config()
    )
    out = executor.map_chunks(_boom_chunk, ITEMS)
    assert isinstance(out[POISON], TaskFailure)
    assert out[POISON].index == POISON and out[POISON].attempts == 2
    assert [v for i, v in enumerate(out) if i != POISON] == [
        x * 2 for x in ITEMS if x != POISON
    ]


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_soft_timeout_cancels_hung_task(n_jobs):
    config = _fast_config(timeout=0.25)
    executor = ParallelExecutor(n_jobs=n_jobs, chunk_size=1, resilience=config)
    t0 = time.monotonic()
    out = executor.map(_sleepy, ITEMS)
    elapsed = time.monotonic() - t0
    failure = out[POISON]
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "timeout"
    assert failure.error_type == "TaskTimeoutError"
    assert executor.last_metrics.timeouts == 2  # both attempts expired
    assert elapsed < 20.0  # nowhere near the 30s sleep
    assert [v for i, v in enumerate(out) if i != POISON] == [
        x * 2 for x in ITEMS if x != POISON
    ]


# --- worker death and hangs (process path only) ----------------------------------------


def test_worker_death_respawns_pool_and_quarantines_poison():
    executor = ParallelExecutor(n_jobs=2, chunk_size=2, resilience=_fast_config())
    out = executor.map(_suicidal, ITEMS)
    failure = out[POISON]
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "crash"
    assert failure.error_type == "WorkerCrashError"
    assert failure.attempts == 2
    assert executor.pool_respawns >= 1
    assert executor.last_metrics.pool_respawns >= 1
    # Innocent chunk-mates of the poison task were re-enqueued and
    # completed — no collateral quarantine.
    assert [v for i, v in enumerate(out) if i != POISON] == [
        x * 2 for x in ITEMS if x != POISON
    ]


def test_sigalrm_immune_hang_caught_by_watchdog():
    config = _fast_config(timeout=0.2, hard_timeout=0.6)
    executor = ParallelExecutor(n_jobs=2, chunk_size=1, resilience=config)
    t0 = time.monotonic()
    out = executor.map(_hard_hang, ITEMS)
    elapsed = time.monotonic() - t0
    failure = out[POISON]
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "hang"
    assert executor.pool_respawns >= 1
    assert elapsed < 20.0
    assert [v for i, v in enumerate(out) if i != POISON] == [
        x * 2 for x in ITEMS if x != POISON
    ]


# --- strict mode -----------------------------------------------------------------------


def test_strict_mode_raises_instead_of_quarantining():
    executor = ParallelExecutor(
        n_jobs=1, resilience=_fast_config(strict=True)
    )
    with pytest.raises(ExecutionError, match="poison"):
        executor.map(_boom, ITEMS)


def test_strict_timeout_raises_task_timeout():
    executor = ParallelExecutor(
        n_jobs=1, chunk_size=1, resilience=_fast_config(timeout=0.2, strict=True)
    )
    with pytest.raises(TaskTimeoutError):
        executor.map(_sleepy, ITEMS)


def test_strict_crash_raises_worker_crash():
    executor = ParallelExecutor(
        n_jobs=2, chunk_size=1, resilience=_fast_config(strict=True)
    )
    with pytest.raises(WorkerCrashError):
        executor.map(_suicidal, ITEMS)


# --- on_result hook --------------------------------------------------------------------


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("resilient", [False, True])
def test_on_result_covers_every_item_exactly_once(n_jobs, resilient):
    seen: dict[int, int] = {}

    def on_result(indices, block):
        assert len(indices) == len(block)
        for i, value in zip(indices, block):
            assert i not in seen
            seen[i] = value

    executor = ParallelExecutor(
        n_jobs=n_jobs,
        chunk_size=3,
        resilience=_fast_config() if resilient else None,
    )
    out = executor.map(_double, ITEMS, on_result=on_result)
    assert out == [x * 2 for x in ITEMS]
    assert seen == {i: x * 2 for i, x in enumerate(ITEMS)}


def test_on_result_reports_quarantined_slots_too():
    seen: dict[int, object] = {}
    executor = ParallelExecutor(n_jobs=2, chunk_size=2, resilience=_fast_config())
    executor.map(_suicidal, ITEMS, on_result=lambda idx, blk: seen.update(zip(idx, blk)))
    assert set(seen) == set(range(len(ITEMS)))
    assert isinstance(seen[POISON], TaskFailure)


# --- ResultCache.put hardening (ISSUE satellite) ---------------------------------------


def test_cache_put_failure_counted_and_leaves_no_tmp(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)

    def exploding_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("repro.runtime.cache.pickle.dump", exploding_dump)
    cache.put("a" * 64, [1, 2, 3])  # must not raise
    assert cache.put_errors == 1
    assert "1 failed writes" in cache.summary()
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []
    monkeypatch.undo()
    # The cache still works after a failed write.
    cache.put("a" * 64, [1, 2, 3])
    assert cache.get("a" * 64) == [1, 2, 3]
    assert cache.put_errors == 1


def test_cache_put_keyboard_interrupt_still_propagates(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    monkeypatch.setattr(
        "repro.runtime.cache.pickle.dump",
        lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
    )
    with pytest.raises(KeyboardInterrupt):
        cache.put("b" * 64, 1)
    assert [p for p in tmp_path.rglob("*.tmp")] == []


# --- ResultCache.stats / prune (service satellite) -------------------------------------


def test_cache_stats_counts_entries_and_counters(tmp_path):
    cache = ResultCache(tmp_path)
    empty = cache.stats()
    assert (empty.entries, empty.total_bytes) == (0, 0)
    assert "0 entries" in empty.describe()

    cache.put("a" * 64, [1, 2, 3])
    cache.put("b" * 64, {"x": 1})
    assert cache.get("a" * 64) == [1, 2, 3]
    assert cache.get("c" * 64) is MISS

    stats = cache.stats()
    assert stats.entries == 2
    assert stats.total_bytes > 0
    assert (stats.hits, stats.misses, stats.put_errors) == (1, 1, 0)
    assert str(tmp_path) in stats.describe()


def test_cache_stats_sees_other_writers(tmp_path):
    """The store is shared: entries written by another handle (process)
    show up in on-disk stats even though the local counters are zero."""
    ResultCache(tmp_path).put("a" * 64, 1)
    fresh = ResultCache(tmp_path)
    stats = fresh.stats()
    assert stats.entries == 1
    assert (stats.hits, stats.misses) == (0, 0)


def test_cache_prune_by_age(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("a" * 64, 1)
    cache.put("b" * 64, 2)
    old = cache._path("a" * 64)
    now = time.time()
    os.utime(old, (now - 100.0, now - 100.0))

    assert cache.prune(max_age=50.0, now=now) == 1
    assert cache.get("a" * 64) is MISS  # pruned -> recomputable miss
    assert cache.get("b" * 64) == 2  # young entry survived
    assert cache.stats(now=now).entries == 1

    assert cache.prune(max_age=0.0, now=now + 1.0) == 1  # empties the rest
    assert cache.stats().entries == 0


def test_cache_prune_rejects_negative_age(tmp_path):
    with pytest.raises(ValueError, match="max_age"):
        ResultCache(tmp_path).prune(max_age=-1.0)
