"""Parallel-vs-serial parity of the `repro.runtime` execution engine.

The whole value of the parallel runner rests on one property: for any
``n_jobs`` and any chunking, the results are *identical* to the serial
reference path.  These tests enforce it bitwise for `run_monte_carlo`
and `analysis.sweep`, plus the cache's hit/miss/corruption behavior and
the executor/seed-stream building blocks.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.analysis.sweep import grid_points, sweep, sweep_grid
from repro.mc import run_monte_carlo
from repro.runtime import (
    MISS,
    ParallelExecutor,
    ResultCache,
    SerialFallbackWarning,
    content_key,
    derived_seed,
    make_seeds,
    resolve_n_jobs,
    sequential_seeds,
    spawned_seeds,
    stable_token,
)

N_JOBS_GRID = [1, 2, 4]


# --- executor building blocks ----------------------------------------------------------


def _square(x):
    return x * x


def _metrics_of(x):
    return {"y": x * x, "z": -x}


def test_executor_preserves_order_any_jobs_any_chunking():
    items = list(range(23))
    expected = [_square(x) for x in items]
    for n_jobs in N_JOBS_GRID:
        for chunk_size in (None, 1, 3, 50):
            ex = ParallelExecutor(n_jobs=n_jobs, chunk_size=chunk_size)
            assert ex.map(_square, items) == expected


def _square_chunk(chunk):
    return [_square(x) for x in chunk]


def test_map_chunks_hands_each_chunk_to_the_function_whole():
    items = list(range(23))
    for n_jobs in N_JOBS_GRID:
        for chunk_size in (None, 1, 3, 50):
            ex = ParallelExecutor(n_jobs=n_jobs, chunk_size=chunk_size)
            seen = []
            out = ex.map_chunks(
                _square_chunk, items, on_result=lambda idx, vals: seen.append(idx)
            )
            assert out == [_square(x) for x in items]
            assert sorted(i for idx in seen for i in idx) == items
    calls = []
    ParallelExecutor(n_jobs=1, chunk_size=10).map_chunks(
        lambda chunk: calls.append(list(chunk)) or chunk, items
    )
    assert calls == [items[:10], items[10:20], items[20:]]


def test_executor_serial_path_is_plain_loop():
    ex = ParallelExecutor(n_jobs=1)
    assert ex.map(_square, [3, 1, 2]) == [9, 1, 4]
    assert ex.last_metrics.backend == "serial"
    assert ex.last_metrics.completed_tasks == 3


def test_executor_metrics_account_for_every_task():
    ex = ParallelExecutor(n_jobs=2, chunk_size=4)
    ex.map(_square, list(range(10)))
    m = ex.last_metrics
    assert m.total_tasks == 10
    assert m.completed_tasks == 10
    assert sum(c.n_tasks for c in m.chunks) == 10
    assert m.wall_time > 0.0
    assert m.throughput > 0.0
    assert "10/10 tasks" in m.summary()


def test_executor_progress_hook_fires_per_chunk():
    seen = []
    ex = ParallelExecutor(n_jobs=1, chunk_size=2, progress=lambda m: seen.append(m.completed_tasks))
    ex.map(_square, list(range(6)))
    assert seen == [2, 4, 6]


def test_executor_unpicklable_fn_falls_back_to_serial():
    captured = []  # closure => not picklable
    ex = ParallelExecutor(n_jobs=4)
    with pytest.warns(SerialFallbackWarning, match="cannot be pickled"):
        result = ex.map(lambda x: captured.append(x) or x + 1, [1, 2, 3])
    assert result == [2, 3, 4]
    assert ex.last_metrics.backend == "serial"
    assert captured == [1, 2, 3]
    # The fallback is observable after the fact, not just at warn time.
    assert ex.serial_fallbacks == 1
    assert ex.last_metrics.fallback_reason is not None
    assert "serial fallback" in ex.last_metrics.summary()


def test_executor_requested_serial_is_not_a_fallback():
    ex = ParallelExecutor(n_jobs=1)
    ex.map(lambda x: x, [1, 2])  # closure is fine on the serial path
    assert ex.serial_fallbacks == 0
    assert ex.last_metrics.fallback_reason is None


def test_executor_rejects_bad_chunk_size():
    with pytest.raises(ConfigurationError):
        ParallelExecutor(n_jobs=2, chunk_size=0).map(_square, [1, 2])


def test_resolve_n_jobs():
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs(None) >= 1
    assert resolve_n_jobs(0) >= 1
    assert resolve_n_jobs(-1) >= 1


# --- seed streams ----------------------------------------------------------------------


def test_sequential_seeds_match_legacy_scheme():
    assert sequential_seeds(2013, 5) == [2013, 2014, 2015, 2016, 2017]


def test_spawned_seeds_deterministic_and_distinct():
    a = spawned_seeds(7, 100)
    b = spawned_seeds(7, 100)
    assert a == b
    assert len(set(a)) == 100
    # Prefix stability: growing n extends the stream without moving it.
    assert spawned_seeds(7, 10) == a[:10]
    # Different base seeds give disjoint streams (the sequential scheme
    # fails exactly this: base 7 and base 8 share 99 of 100 seeds).
    assert not set(a) & set(spawned_seeds(8, 100))


def test_make_seeds_scheme_dispatch():
    assert make_seeds(5, 3, "sequential") == [5, 6, 7]
    assert make_seeds(5, 3, "spawn") == spawned_seeds(5, 3)
    with pytest.raises(ConfigurationError):
        make_seeds(5, 3, "nope")


# --- Monte Carlo parity ----------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_serial(robust):
    return run_monte_carlo(robust, n_runs=24, base_seed=321, n_jobs=1)


@pytest.mark.parametrize("n_jobs", N_JOBS_GRID)
def test_run_monte_carlo_parallel_parity(robust, mc_serial, n_jobs):
    result = run_monte_carlo(robust, n_runs=24, base_seed=321, n_jobs=n_jobs)
    # Bitwise identity of the full McRun list, not just the aggregate.
    assert result.runs == mc_serial.runs
    assert result.error_probability == mc_serial.error_probability


@pytest.mark.parametrize("n_jobs", [2, 4])
def test_run_monte_carlo_spawn_scheme_parity(robust, n_jobs):
    serial = run_monte_carlo(robust, n_runs=12, base_seed=9, seed_scheme="spawn")
    parallel = run_monte_carlo(
        robust, n_runs=12, base_seed=9, seed_scheme="spawn", n_jobs=n_jobs
    )
    assert parallel.runs == serial.runs


def test_run_monte_carlo_chunking_does_not_change_results(robust, mc_serial):
    ex = ParallelExecutor(n_jobs=2, chunk_size=5)
    result = run_monte_carlo(robust, n_runs=24, base_seed=321, executor=ex)
    assert result.runs == mc_serial.runs


# --- sweep parity ----------------------------------------------------------------------


@pytest.mark.parametrize("n_jobs", N_JOBS_GRID)
def test_sweep_parallel_parity(n_jobs):
    serial = sweep("x", [1.0, 2.0, 3.0, 4.0, 5.0], _metrics_of, n_jobs=1)
    parallel = sweep("x", [1.0, 2.0, 3.0, 4.0, 5.0], _metrics_of, n_jobs=n_jobs)
    assert parallel == serial
    assert parallel.metrics["y"] == (1.0, 4.0, 9.0, 16.0, 25.0)


def test_sweep_closure_evaluator_warns_and_still_works_with_n_jobs():
    offset = 10.0  # closure capture => serial fallback, same answer
    with pytest.warns(SerialFallbackWarning):
        result = sweep("x", [1.0, 2.0], lambda x: {"y": x + offset}, n_jobs=4)
    assert result.metrics["y"] == (11.0, 12.0)


def test_sweep_validation_unchanged():
    with pytest.raises(ConfigurationError):
        sweep("x", [], _metrics_of)
    with pytest.raises(ConfigurationError):
        sweep("x", [1.0, 2.0], lambda x: {"y": 1.0} if x < 2 else {"z": 1.0})


# --- N-dimensional grid sweep -----------------------------------------------------------


def _metrics_of_point(point):
    return {"s": point["a"] + point["b"], "p": point["a"] * point["b"]}


def test_grid_points_row_major_order():
    points = grid_points({"a": [1.0, 2.0], "b": [10.0, 20.0, 30.0]})
    assert points == [
        {"a": 1.0, "b": 10.0},
        {"a": 1.0, "b": 20.0},
        {"a": 1.0, "b": 30.0},
        {"a": 2.0, "b": 10.0},
        {"a": 2.0, "b": 20.0},
        {"a": 2.0, "b": 30.0},
    ]


def test_grid_points_validation():
    with pytest.raises(ConfigurationError):
        grid_points({})
    with pytest.raises(ConfigurationError):
        grid_points({"a": [1.0], "b": []})


@pytest.mark.parametrize("n_jobs", N_JOBS_GRID)
def test_sweep_grid_parallel_parity(n_jobs):
    axes = {"a": [1.0, 2.0, 3.0], "b": [10.0, 20.0]}
    serial = sweep_grid(axes, _metrics_of_point, n_jobs=1)
    parallel = sweep_grid(axes, _metrics_of_point, n_jobs=n_jobs)
    assert parallel == serial
    assert serial.parameters == ("a", "b")
    assert serial.metrics["s"] == (11.0, 21.0, 12.0, 22.0, 13.0, 23.0)


def test_sweep_grid_rows_and_series():
    result = sweep_grid({"a": [1.0, 2.0], "b": [3.0]}, _metrics_of_point)
    assert result.headers() == ["a", "b", "p", "s"]
    assert result.rows() == [[1.0, 3.0, 3.0, 4.0], [2.0, 3.0, 6.0, 5.0]]
    assert result.series("p") == [({"a": 1.0, "b": 3.0}, 3.0), ({"a": 2.0, "b": 3.0}, 6.0)]
    with pytest.raises(ConfigurationError):
        result.series("nope")


def test_sweep_grid_closure_evaluator_warns_and_still_works():
    scale = 2.0
    with pytest.warns(SerialFallbackWarning):
        result = sweep_grid(
            {"a": [1.0, 2.0]}, lambda p: {"y": p["a"] * scale}, n_jobs=4
        )
    assert result.metrics["y"] == (2.0, 4.0)


def test_sweep_grid_key_mismatch_raises():
    with pytest.raises(ConfigurationError):
        sweep_grid(
            {"a": [1.0, 2.0]},
            lambda p: {"y": 1.0} if p["a"] < 2 else {"z": 1.0},
            n_jobs=1,
        )


# --- derived seeds ----------------------------------------------------------------------


def test_derived_seed_deterministic_and_token_sensitive():
    assert derived_seed(1, "tok") == derived_seed(1, "tok")
    assert derived_seed(1, "tok") != derived_seed(2, "tok")
    assert derived_seed(1, "tok") != derived_seed(1, "tok2")
    assert 0 <= derived_seed(1, "tok") < 2**64


# --- cache ------------------------------------------------------------------------------


def test_cache_miss_then_hit_roundtrip(tmp_path, robust):
    cache = ResultCache(tmp_path)
    first = run_monte_carlo(robust, n_runs=8, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    second = run_monte_carlo(robust, n_runs=8, cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert second.runs == first.runs


def test_cache_key_covers_every_input(tmp_path, robust, straightforward):
    cache = ResultCache(tmp_path)
    run_monte_carlo(robust, n_runs=8, cache=cache)
    # Any input change must miss: design, die count, seed, seed scheme,
    # rate, local-variation toggle.
    run_monte_carlo(straightforward, n_runs=8, cache=cache)
    run_monte_carlo(robust, n_runs=9, cache=cache)
    run_monte_carlo(robust, n_runs=8, base_seed=99, cache=cache)
    run_monte_carlo(robust, n_runs=8, seed_scheme="spawn", cache=cache)
    run_monte_carlo(robust, n_runs=8, bit_period=1.0 / 3.0e9, cache=cache)
    run_monte_carlo(robust, n_runs=8, local_enabled=False, cache=cache)
    assert cache.hits == 0
    assert cache.misses == 7


def test_cache_corrupted_entry_recomputes(tmp_path, robust):
    cache = ResultCache(tmp_path)
    clean = run_monte_carlo(robust, n_runs=8, cache=cache)
    entries = list(tmp_path.rglob("*.pkl"))
    assert len(entries) == 1
    entries[0].write_bytes(b"not a pickle at all")
    recomputed = run_monte_carlo(robust, n_runs=8, cache=cache)
    assert recomputed.runs == clean.runs
    assert cache.corrupt == 1
    # The bad file was replaced by a clean entry: next call hits.
    hits_before = cache.hits
    run_monte_carlo(robust, n_runs=8, cache=cache)
    assert cache.hits == hits_before + 1


def test_cache_wrong_key_payload_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("a" * 64, [1, 2, 3])
    path = cache._path("a" * 64)
    target = cache._path("b" * 64)
    target.parent.mkdir(parents=True, exist_ok=True)
    path.rename(target)  # entry now lies about its key
    assert cache.get("b" * 64) is MISS
    assert cache.corrupt == 1


def test_cache_parallel_and_serial_share_entries(tmp_path, robust):
    serial_cache = ResultCache(tmp_path)
    serial = run_monte_carlo(robust, n_runs=10, cache=serial_cache)
    parallel = run_monte_carlo(robust, n_runs=10, n_jobs=4, cache=serial_cache)
    assert serial_cache.hits == 1  # n_jobs is not part of the physics key
    assert parallel.runs == serial.runs


def test_stable_token_is_content_only():
    assert stable_token((1, 2.0, "x")) == stable_token((1, 2.0, "x"))
    assert stable_token(1) != stable_token(1.0)
    assert stable_token({"a": 1, "b": 2}) == stable_token({"b": 2, "a": 1})
    assert content_key("x", 1) != content_key("x", 2)
    with pytest.raises(TypeError):
        stable_token(object())


def test_mc_runs_pickle_roundtrip(mc_serial):
    # Cache entries are pickled McRun lists; the dataclass must survive.
    assert pickle.loads(pickle.dumps(mc_serial.runs)) == mc_serial.runs
