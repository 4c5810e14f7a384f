"""E14 — NoC-level: mesh latency/throughput/energy, SRLR vs full swing.

The system-level payoff: the same simulated traffic priced with the SRLR
low-swing datapath versus a conventional full-swing datapath.

This module also benchmarks the two cycle-loop engines against each
other (reference object-graph loop vs the struct-of-arrays batch engine
in :mod:`repro.noc.fastsim`) on the standard 8x8 uniform-random
workload and writes the table to ``BENCH_engine_speedup.txt``.  Set
``REPRO_BENCH_CHECK=1`` (the CI smoke job does) to fail the run when the
measured speedup falls below 5x.
"""

from __future__ import annotations

import os
import time

from conftest import FULL, NOC_MEASURE

from repro.analysis import e14_noc_traffic
from repro.noc import NocSimulator, SyntheticTraffic, build_topology


def test_bench_noc_traffic(benchmark, save_report):
    result = benchmark.pedantic(
        e14_noc_traffic,
        kwargs={
            "k": 6 if FULL else 4,
            "rates": (0.05, 0.15, 0.25, 0.35),
            "patterns": ("uniform", "transpose"),
            "measure": NOC_MEASURE,
        },
        rounds=1,
        iterations=1,
    )
    save_report("E14_noc_traffic", result.text)
    runs = result.data["runs"]
    for run in runs:
        saving = (
            run["energy_full_swing"].datapath / run["energy_srlr"].datapath
        )
        assert saving > 2.0
    # Latency grows with injected load under each pattern.
    uniform = [r for r in runs if r["pattern"] == "uniform"]
    assert uniform[-1]["stats"].average_latency >= uniform[0]["stats"].average_latency


def _measure_engines(k, rate, pattern, seed, warm, reps, block_ref, block_fast):
    """Warm steady-state, fine-interleaved engine comparison.

    Both simulators reach steady state first, then short timed blocks of
    the two engines alternate so load spikes on the host hit both
    measurements rather than biasing the ratio.
    """
    sims = {}
    for engine in ("reference", "fast"):
        sim = NocSimulator(
            k, injection_rate=rate, pattern=pattern, seed=seed, engine=engine
        )
        sim.stats.measure_start, sim.stats.measure_end = 0, 10**9
        for _ in range(warm):
            sim.step()
        sims[engine] = sim
    elapsed = {"reference": 0.0, "fast": 0.0}
    cycles = {"reference": 0, "fast": 0}
    for _ in range(reps):
        for engine, block in (("reference", block_ref), ("fast", block_fast)):
            sim = sims[engine]
            t0 = time.perf_counter()
            for _ in range(block):
                sim.step()
            elapsed[engine] += time.perf_counter() - t0
            cycles[engine] += block
    cycles_per_sec = {e: cycles[e] / elapsed[e] for e in elapsed}
    return {
        "k": k,
        "rate": rate,
        "pattern": pattern,
        "cycles_timed": cycles,
        "cycles_per_sec": cycles_per_sec,
        "us_per_cycle": {e: 1e6 / cycles_per_sec[e] for e in cycles_per_sec},
        "speedup": cycles_per_sec["fast"] / cycles_per_sec["reference"],
    }


def test_bench_engine_speedup(benchmark, save_report):
    # The acceptance workload: 8x8 mesh, uniform-random traffic.
    record = benchmark.pedantic(
        _measure_engines,
        kwargs={
            "k": 8,
            "rate": 0.05,
            "pattern": "uniform",
            "seed": 7,
            "warm": 300 if FULL else 150,
            "reps": 60 if FULL else 25,
            "block_ref": 20 if FULL else 10,
            "block_fast": 200 if FULL else 100,
        },
        rounds=1,
        iterations=1,
    )
    lines = ["ENGINE SPEEDUP — 8x8 uniform-random, steady state"]
    for engine in ("reference", "fast"):
        lines.append(
            f"  {engine:<10} {record['us_per_cycle'][engine]:8.1f} us/cycle   "
            f"{record['cycles_per_sec'][engine]:10.0f} cycles/s"
        )
    lines.append(f"  speedup    {record['speedup']:8.2f}x")
    save_report("BENCH_engine_speedup", "\n".join(lines))

    assert record["speedup"] > 0
    if os.environ.get("REPRO_BENCH_CHECK") == "1":
        # CI gate: the batch engine must hold at least a 5x margin even
        # on noisy shared runners (typical quiet-machine ratio: ~10x).
        assert record["speedup"] >= 5.0, (
            f"fast engine speedup regressed: {record['speedup']:.2f}x < 5x"
        )


# --- topology family throughput --------------------------------------------------------
#
# One timed row per topology class at a matched 16-endpoint budget, on
# each topology's best supported engine, so a routing-table or adjacency
# regression that slows one family member shows in the report.

TOPOLOGY_BENCH = [
    ("mesh", ("mesh", 4, {}), "fast"),
    ("cmesh", ("cmesh", 2, {"concentration": 4}), "fast"),
    ("torus", ("torus", 4, {}), "fast"),
    ("chiplet", ("chiplet", 2, {"chiplets_x": 2, "chiplets_y": 2}),
     "fast"),
]


def _measure_topologies(rate, seed, warm, cycles):
    rows = {}
    for name, (kind, k, kwargs), engine in TOPOLOGY_BENCH:
        topology = build_topology(kind, k, **kwargs)
        traffic = SyntheticTraffic(topology, rate, "uniform", seed=seed)
        sim = NocSimulator(topology, traffic=traffic, seed=seed, engine=engine)
        sim.stats.measure_start, sim.stats.measure_end = 0, 10**9
        for _ in range(warm):
            sim.step()
        t0 = time.perf_counter()
        for _ in range(cycles):
            sim.step()
        elapsed = time.perf_counter() - t0
        rows[name] = {
            "engine": engine,
            "n_nodes": len(topology.nodes()),
            "cycles_per_sec": cycles / elapsed,
            "us_per_cycle": 1e6 * elapsed / cycles,
            "delivered": sim.stats.delivered_count,
        }
    return rows


def test_bench_topology_family(benchmark, save_report):
    rows = benchmark.pedantic(
        _measure_topologies,
        kwargs={
            "rate": 0.05,
            "seed": 7,
            "warm": 100 if FULL else 50,
            "cycles": 1000 if FULL else 300,
        },
        rounds=1,
        iterations=1,
    )
    lines = ["TOPOLOGY FAMILY — uniform-random @ 0.05, matched endpoints"]
    for name, row in rows.items():
        lines.append(
            f"  {name:<8} [{row['engine']:<9}] {row['us_per_cycle']:8.1f} "
            f"us/cycle   {row['cycles_per_sec']:10.0f} cycles/s   "
            f"{row['delivered']:5d} delivered"
        )
    save_report("BENCH_topology_family", "\n".join(lines))

    for name, row in rows.items():
        assert row["delivered"] > 0, f"{name}: nothing delivered"
        assert row["cycles_per_sec"] > 0


# --- trace replay ----------------------------------------------------------------------
#
# One timed trace-replay row: a payload-carrying bursty run recorded
# into a trace, replayed on both engines with data-dependent link
# pricing live, so an ingestion or transition-counting regression shows
# in the report.


def _measure_trace_replay(k, rate, record_cycles, seed, warm, cycles):
    from repro.noc import MeshTopology, record_trace
    from repro.workload import build_traffic

    topology = MeshTopology(k)
    source = build_traffic(
        topology, "bursty", injection_rate=rate, seed=seed,
        payload_mode="random",
    )
    trace = record_trace(source, record_cycles)
    rows = {}
    for engine in ("reference", "fast"):
        sim = NocSimulator(
            topology, traffic=trace.replay(), seed=seed, engine=engine
        )
        sim.stats.measure_start, sim.stats.measure_end = 0, 10**9
        for _ in range(warm):
            sim.step()
        t0 = time.perf_counter()
        for _ in range(cycles):
            sim.step()
        elapsed = time.perf_counter() - t0
        rows[engine] = {
            "cycles_per_sec": cycles / elapsed,
            "us_per_cycle": 1e6 * elapsed / cycles,
            "delivered": sim.stats.delivered_count,
            "payload_transitions": sum(
                link.payload_transitions for link in sim.links
            ),
        }
    rows["n_packets"] = trace.n_packets
    return rows


def test_bench_trace_replay(benchmark, save_report):
    rows = benchmark.pedantic(
        _measure_trace_replay,
        kwargs={
            "k": 4,
            "rate": 0.10,
            "record_cycles": 2000 if FULL else 600,
            "seed": 7,
            "warm": 100 if FULL else 50,
            "cycles": 1000 if FULL else 300,
        },
        rounds=1,
        iterations=1,
    )
    n_packets = rows.pop("n_packets")
    lines = [
        f"TRACE REPLAY — 4x4 mesh, {n_packets} recorded packets, "
        "random payload, data-dependent pricing"
    ]
    for engine, row in rows.items():
        lines.append(
            f"  {engine:<10} {row['us_per_cycle']:8.1f} us/cycle   "
            f"{row['cycles_per_sec']:10.0f} cycles/s   "
            f"{row['delivered']:5d} delivered"
        )
    save_report("BENCH_trace_replay", "\n".join(lines))

    for engine, row in rows.items():
        assert row["delivered"] > 0, f"{engine}: nothing delivered"
        assert row["payload_transitions"] > 0, f"{engine}: nothing counted"
    assert (
        rows["reference"]["payload_transitions"]
        == rows["fast"]["payload_transitions"]
    )
