"""Runtime — parallel Monte Carlo execution on the Fig. 6 workload.

Times the Fig. 6 Monte Carlo block (the repo's hottest path) on the
serial reference and on the parallel runtime, proves the results are
bitwise identical, and records the wall-clock speedup under
``benchmarks/output/``.  The >= 2x speedup assertion only arms on
machines with enough cores (a single-core CI box cannot speed anything
up; the parity assertions always run).
"""

from __future__ import annotations

import os
import time

from conftest import FULL

from repro.analysis import experiment
from repro.circuit import robust_design
from repro.mc import run_monte_carlo
from repro.runtime import ParallelExecutor

#: Dies per run: the Fig. 6 row's Monte Carlo size.
MC_RUNS = experiment("E4").kwargs(FULL)["n_runs"]
PARALLEL_JOBS = 4
#: Cores needed before the 2x-speedup acceptance assertion arms.
MIN_CORES_FOR_SPEEDUP = 4


def test_bench_runtime_parallel(benchmark, save_report):
    design = robust_design()
    # Warm the per-process model caches so the serial timing is honest.
    run_monte_carlo(design, n_runs=2)

    t0 = time.perf_counter()
    serial = run_monte_carlo(design, n_runs=MC_RUNS, n_jobs=1)
    serial_s = time.perf_counter() - t0

    executor = ParallelExecutor(n_jobs=PARALLEL_JOBS)
    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        run_monte_carlo,
        kwargs={"design": design, "n_runs": MC_RUNS, "executor": executor},
        rounds=1,
        iterations=1,
    )
    parallel_s = time.perf_counter() - t0

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    metrics = executor.last_metrics
    cores = os.cpu_count() or 1
    lines = [
        f"Runtime — parallel Monte Carlo ({MC_RUNS} dies, Fig. 6 workload)",
        f"host cores                 : {cores}",
        f"serial (n_jobs=1) wall [s] : {serial_s:.2f}",
        f"parallel (n_jobs={PARALLEL_JOBS}) wall [s]: {parallel_s:.2f}",
        f"speedup                    : {speedup:.2f}x",
        f"parallel backend           : {metrics.backend}",
        f"throughput [dies/s]        : {metrics.throughput:.1f}",
        f"chunks                     : {len(metrics.chunks)}",
        f"task failures              : {metrics.failed_tasks}",
        f"bitwise parity             : {parallel.runs == serial.runs}",
    ]
    save_report("BENCH_runtime_parallel", "\n".join(lines))

    # Parity is unconditional: identical McRun lists, any worker count.
    assert parallel.runs == serial.runs
    assert parallel.error_probability == serial.error_probability
    assert metrics.failed_tasks == 0
    assert metrics.completed_tasks == MC_RUNS
    # The acceptance speedup (>= 2x with 4 workers) needs real cores.
    if cores >= MIN_CORES_FOR_SPEEDUP:
        assert metrics.backend == "process"
        assert speedup >= 2.0, f"expected >= 2x on {cores} cores, got {speedup:.2f}x"
