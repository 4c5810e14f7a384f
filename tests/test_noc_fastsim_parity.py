"""Golden-oracle differential tests: fast engine vs reference engine.

The reference simulator (:mod:`repro.noc.simulator`) is the oracle; the
struct-of-arrays batch engine (:mod:`repro.noc.fastsim`) must reproduce
its end-of-run state *bitwise* for identical seeds — every counter,
every delivery record, every per-link traversal count, and (under fault
injection) every protection-protocol ledger entry.

The matrix below sweeps traffic pattern x injection rate x mesh size x
VC configuration x fault model, well past the 24-combination floor the
roadmap sets for the differential suite.  A combo failing here means
the fast engine diverged from the oracle — never "the numbers moved a
little"; the comparison is exact equality.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, LivelockError, ProtocolError
from repro.fault import (
    CompositeFault,
    DeadLinks,
    FaultLayer,
    ProtectionConfig,
    UniformBer,
)
from repro.noc import (
    ENGINES,
    FastNocSimulator,
    MeshTopology,
    NocConfig,
    NocSimulator,
    Packet,
    SyntheticTraffic,
    build_topology,
    record_trace,
)
from repro.noc.topology import PORT_UP
from repro.workload import build_traffic

SEED = 7


def _build(engine, k, rate, pattern, size_flits=1, seed=SEED, **config_kwargs):
    # ``k`` is an int mesh radix or a prebuilt Topology of any family.
    topology = MeshTopology(k) if isinstance(k, int) else k
    traffic = SyntheticTraffic(
        topology, rate, pattern, size_flits=size_flits, seed=seed
    )
    config = NocConfig(**config_kwargs) if config_kwargs else None
    return NocSimulator(
        topology, config=config, traffic=traffic, seed=seed, engine=engine
    )


def _fingerprint(sim):
    """Every externally observable end-of-run quantity, exact."""
    s = sim.stats
    return {
        "cycle": sim.cycle,
        "injected_packets": s.injected_packets,
        "injected_flits": s.injected_flits,
        "buffer_writes": s.buffer_writes,
        "buffer_reads": s.buffer_reads,
        "bypassed_flits": s.bypassed_flits,
        "crossbar_traversals": s.crossbar_traversals,
        "link_traversals": s.link_traversals,
        "ejections": s.ejections,
        "tap_deliveries": s.tap_deliveries,
        "corrupted_deliveries": s.corrupted_deliveries,
        "deliveries": sorted(
            (d.src, d.dest, d.inject_cycle, d.deliver_cycle, d.via_tap, d.corrupted)
            for d in s.deliveries
        ),
        "per_link_traversals": [link.traversals for link in sim.links],
        "per_link_payload": [
            (link.payload_transitions, link.coupling_events, link.last_word)
            for link in sim.links
        ],
        # Crosspoint EN counts per router: the 6-port chiplet routers'
        # (port, PORT_UP) keys are compared here, not just totals.
        "crosspoints": [
            sorted(
                ((int(a), int(b)), n)
                for (a, b), n in sim.routers[node].crossbar.crosspoint_counts.items()
            )
            for node in sorted(sim.routers)
        ],
    }


def _fault_fingerprint(layer):
    """The full protection-protocol ledger, exact."""
    fs = layer.stats
    return {
        "raw_faults": fs.raw_faults,
        "flits_corrupted": fs.flits_corrupted,
        "flits_dropped": fs.flits_dropped,
        "retransmissions": fs.retransmissions,
        "crc_giveups": fs.crc_giveups,
        "links_disabled": fs.links_disabled,
        "undeliverable_flits": fs.undeliverable_flits,
        "undeliverable_packets": fs.undeliverable_packets,
        "acks": fs.acks,
        "ack_hops": fs.ack_hops,
        "packet_retries": fs.packet_retries,
        "completed_transfers": fs.completed_transfers,
        "failed_transfers": fs.failed_transfers,
        "duplicate_deliveries": fs.duplicate_deliveries,
        "transfers": sorted(
            (t.src, tuple(sorted(t.dests)), t.first_inject, t.completed, t.retries)
            for t in fs.transfer_records
        ),
        "per_link": fs.per_link_error_counts(),
    }


# --- fault-free matrix -----------------------------------------------------------------
#
# (id, k, rate, pattern, size_flits, config kwargs).  Rates stay below
# each pattern's saturation point so runs drain; the comparison is still
# exercised under heavy contention by the 0.30 entries.

TRAFFIC_CASES = [
    ("uniform-k4-low", 4, 0.05, "uniform", 1, {}),
    ("uniform-k4-mid", 4, 0.15, "uniform", 1, {}),
    ("uniform-k4-high", 4, 0.30, "uniform", 1, {}),
    ("transpose-k4-low", 4, 0.05, "transpose", 1, {}),
    ("transpose-k4-mid", 4, 0.15, "transpose", 1, {}),
    ("transpose-k4-high", 4, 0.30, "transpose", 1, {}),
    ("bit_complement-k4", 4, 0.10, "bit_complement", 1, {}),
    ("neighbor-k4", 4, 0.25, "neighbor", 1, {}),
    ("hotspot-k4", 4, 0.08, "hotspot", 1, {}),
    ("uniform-k2", 2, 0.30, "uniform", 1, {}),
    ("uniform-k3", 3, 0.15, "uniform", 1, {}),
    ("uniform-k6", 6, 0.10, "uniform", 1, {}),
    ("transpose-k6", 6, 0.20, "transpose", 1, {}),
    ("uniform-k8", 8, 0.05, "uniform", 1, {}),
    ("vcs2-k4", 4, 0.10, "uniform", 1, {"n_vcs": 2}),
    ("vcs8-k4", 4, 0.10, "uniform", 1, {"n_vcs": 8}),
    ("cap2-k4", 4, 0.10, "uniform", 1, {"vc_capacity": 2}),
    ("o1turn-k4", 4, 0.15, "uniform", 1, {"routing": "o1turn"}),
    ("bypass-k4", 4, 0.15, "uniform", 1, {"enable_bypass": True}),
    ("latency2-k4", 4, 0.10, "uniform", 1, {"link_latency": 2}),
    ("taps-k4", 4, 0.10, "uniform", 1, {"enable_taps": True}),
    ("worm2-k4", 4, 0.10, "uniform", 2, {}),
    ("worm3-k4", 4, 0.08, "transpose", 3, {}),
    ("worm2-bypass-k4", 4, 0.10, "uniform", 2, {"enable_bypass": True}),
    ("worm2-o1turn-k4", 4, 0.10, "uniform", 2, {"routing": "o1turn"}),
]


@pytest.mark.parametrize(
    "k,rate,pattern,size_flits,config_kwargs",
    [case[1:] for case in TRAFFIC_CASES],
    ids=[case[0] for case in TRAFFIC_CASES],
)
def test_traffic_parity(k, rate, pattern, size_flits, config_kwargs):
    measure = 120 if k >= 8 else 200
    results = []
    for engine in ENGINES:
        sim = _build(engine, k, rate, pattern, size_flits, **config_kwargs)
        sim.run(warmup=40, measure=measure, drain_limit=20_000)
        results.append(_fingerprint(sim))
    reference, fast = results
    assert fast == reference


# --- topology-family matrix ------------------------------------------------------------
#
# Every topology class runs the same differential check: the SoA engine
# must match the per-flit oracle bitwise on torus wrap routes,
# concentrated-mesh endpoint traffic and the chiplet NoC/NoI hierarchy
# (6-port gateway/interface routers, port stride 6), exactly as on the
# flat mesh.

_CHIPLET_2X2 = {"chiplets_x": 2, "chiplets_y": 2}

TOPOLOGY_CASES = [
    ("torus-k4-uniform-low", ("torus", 4, {}), 0.05, "uniform", 1, {}),
    ("torus-k4-uniform-high", ("torus", 4, {}), 0.25, "uniform", 1, {}),
    ("torus-k4-transpose", ("torus", 4, {}), 0.10, "transpose", 1, {}),
    ("torus-k5-uniform", ("torus", 5, {}), 0.10, "uniform", 1, {}),
    ("torus-k4-worm2", ("torus", 4, {}), 0.08, "uniform", 2, {}),
    ("torus-k4-vcs2", ("torus", 4, {}), 0.10, "uniform", 1, {"n_vcs": 2}),
    ("torus-k4-latency2", ("torus", 4, {}), 0.10, "uniform", 1,
     {"link_latency": 2}),
    ("cmesh-k2c4-uniform", ("cmesh", 2, {"concentration": 4}),
     0.05, "uniform", 1, {}),
    ("cmesh-k2c4-transpose", ("cmesh", 2, {"concentration": 4}),
     0.05, "transpose", 1, {}),
    ("cmesh-k3c2-uniform", ("cmesh", 3, {"concentration": 2}),
     0.08, "uniform", 1, {}),
    ("cmesh-k2c4-worm2", ("cmesh", 2, {"concentration": 4}),
     0.05, "uniform", 2, {}),
    ("chiplet-2x2k2-uniform", ("chiplet", 2, _CHIPLET_2X2),
     0.08, "uniform", 1, {}),
    ("chiplet-3x1k3-uniform", ("chiplet", 3, {"chiplets_x": 3}),
     0.06, "uniform", 1, {}),
    ("chiplet-2x2k2-noi3", ("chiplet", 2, {**_CHIPLET_2X2, "noi_scale": 3.0}),
     0.08, "uniform", 1, {}),
    ("chiplet-2x2k2-worm2", ("chiplet", 2, _CHIPLET_2X2),
     0.06, "uniform", 2, {}),
    ("chiplet-2x2k2-vcs2", ("chiplet", 2, _CHIPLET_2X2),
     0.08, "uniform", 1, {"n_vcs": 2}),
    ("chiplet-2x2k2-high", ("chiplet", 2, _CHIPLET_2X2),
     0.15, "uniform", 1, {}),
]


@pytest.mark.parametrize(
    "spec,rate,pattern,size_flits,config_kwargs",
    [case[1:] for case in TOPOLOGY_CASES],
    ids=[case[0] for case in TOPOLOGY_CASES],
)
def test_topology_parity(spec, rate, pattern, size_flits, config_kwargs):
    kind, k, builder_kwargs = spec
    results = []
    for engine in ENGINES:
        topology = build_topology(kind, k, **builder_kwargs)
        sim = _build(
            engine, topology, rate, pattern, size_flits, **config_kwargs
        )
        sim.run(warmup=40, measure=200, drain_limit=20_000)
        results.append(_fingerprint(sim))
    reference, fast = results
    assert fast == reference


TOPOLOGY_FAULT_CASES = [
    ("torus-ber-crc", ("torus", 4, {}), UniformBer(ber=1e-3), "crc"),
    ("torus-ber-e2e", ("torus", 4, {}), UniformBer(ber=1e-3), "e2e"),
    (
        "torus-dead-reroute",
        ("torus", 4, {}),
        DeadLinks(n_random=2, fail_cycle=50, mode="garbage"),
        "reroute",
    ),
    (
        "cmesh-ber-crc",
        ("cmesh", 2, {"concentration": 4}),
        UniformBer(ber=1e-3),
        "crc",
    ),
    ("chiplet-ber-crc", ("chiplet", 2, _CHIPLET_2X2), UniformBer(ber=1e-3), "crc"),
    ("chiplet-ber-e2e", ("chiplet", 2, _CHIPLET_2X2), UniformBer(ber=1e-3), "e2e"),
    (
        "chiplet-dead-reroute",
        ("chiplet", 2, _CHIPLET_2X2),
        DeadLinks(n_random=2, fail_cycle=50, mode="garbage"),
        "reroute",
    ),
]


@pytest.mark.parametrize(
    "spec,model,protocol",
    [case[1:] for case in TOPOLOGY_FAULT_CASES],
    ids=[case[0] for case in TOPOLOGY_FAULT_CASES],
)
def test_topology_fault_parity(spec, model, protocol):
    kind, k, builder_kwargs = spec
    results = []
    for engine in ENGINES:
        topology = build_topology(kind, k, **builder_kwargs)
        sim = _build(engine, topology, 0.06, "uniform", 2)
        layer = FaultLayer(
            model, ProtectionConfig(protocol=protocol), seed=13
        ).attach(sim)
        sim.run(warmup=30, measure=200, drain_limit=20_000)
        results.append((_fingerprint(sim), _fault_fingerprint(layer)))
    reference, fast = results
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]


# --- fault-injection matrix ------------------------------------------------------------
#
# Fault models are frozen configs (stateless), so one instance serves
# both engines; the FaultLayer itself carries per-run state and is
# rebuilt fresh per engine with the same seed.

FAULT_CASES = [
    ("ber-none", UniformBer(ber=1e-3), "none", 2),
    ("ber-crc", UniformBer(ber=1e-3), "crc", 2),
    ("ber-e2e", UniformBer(ber=1e-3), "e2e", 2),
    ("ber-hot-crc", UniformBer(ber=5e-3), "crc", 1),
    (
        "dead-garbage-reroute",
        DeadLinks(n_random=2, fail_cycle=50, mode="garbage"),
        "reroute",
        2,
    ),
    ("dead-drop-e2e", DeadLinks(n_random=2, fail_cycle=50, mode="drop"), "e2e", 2),
    (
        "composite-crc",
        CompositeFault(
            models=(UniformBer(ber=5e-4), DeadLinks(n_random=1, fail_cycle=80))
        ),
        "crc",
        2,
    ),
]


@pytest.mark.parametrize(
    "model,protocol,size_flits",
    [case[1:] for case in FAULT_CASES],
    ids=[case[0] for case in FAULT_CASES],
)
def test_fault_parity(model, protocol, size_flits):
    results = []
    for engine in ENGINES:
        sim = _build(engine, 4, 0.08, "uniform", size_flits)
        layer = FaultLayer(
            model, ProtectionConfig(protocol=protocol), seed=13
        ).attach(sim)
        sim.run(warmup=30, measure=200, drain_limit=20_000)
        results.append((_fingerprint(sim), _fault_fingerprint(layer)))
    reference, fast = results
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]


# --- workload matrix -------------------------------------------------------------------
#
# The repro.workload generators (bursty Markov on/off, payload-carrying
# wrappers) and trace replay run the same differential check.  Payload
# cases compare the per-link transition/coupling counters too (they are
# part of _fingerprint), so the data-dependent energy inputs — not just
# the delivery statistics — are proven bitwise identical.

WORKLOAD_CASES = [
    ("bursty-k4-low", "bursty", 4, 0.05, {}),
    ("bursty-k4-mid", "bursty", 4, 0.15, {}),
    ("bursty-k4-transpose", "bursty", 4, 0.10, {"pattern": "transpose"}),
    ("bursty-k4-long-bursts", "bursty", 4, 0.08,
     {"burst_on": 0.02, "burst_off": 0.05}),
    ("bursty-k4-worm2", "bursty", 4, 0.08, {"size_flits": 2}),
    ("bursty-k4-random-payload", "bursty", 4, 0.10,
     {"payload_mode": "random"}),
    ("uniform-k4-random-payload", "synthetic", 4, 0.15,
     {"payload_mode": "random"}),
    ("uniform-k4-worstcase-payload", "synthetic", 4, 0.15,
     {"payload_mode": "worst_case"}),
    ("transpose-k4-random-payload", "synthetic", 4, 0.10,
     {"pattern": "transpose", "payload_mode": "random", "size_flits": 2}),
]


@pytest.mark.parametrize(
    "workload,k,rate,kwargs",
    [case[1:] for case in WORKLOAD_CASES],
    ids=[case[0] for case in WORKLOAD_CASES],
)
def test_workload_parity(workload, k, rate, kwargs):
    results = []
    for engine in ENGINES:
        topology = MeshTopology(k)
        traffic = build_traffic(
            topology, workload, injection_rate=rate, seed=SEED, **kwargs
        )
        sim = NocSimulator(
            topology, traffic=traffic, seed=SEED, engine=engine
        )
        sim.run(warmup=40, measure=200, drain_limit=20_000)
        results.append(_fingerprint(sim))
    reference, fast = results
    assert fast == reference


def test_trace_replay_parity(tmp_path):
    # Record a payload-carrying bursty run into a trace file, then
    # replay the file on both engines: identical streams, identical
    # counters, identical payload transition counts.
    topology = MeshTopology(4)
    source = build_traffic(
        topology, "bursty", injection_rate=0.12, seed=SEED,
        payload_mode="random",
    )
    trace = record_trace(source, 150)
    path = tmp_path / "bursty.trace.json"
    trace.save(path)
    results = []
    for engine in ENGINES:
        traffic = build_traffic(MeshTopology(4), "trace", trace_path=path)
        sim = NocSimulator(
            MeshTopology(4), traffic=traffic, seed=SEED, engine=engine
        )
        sim.run(warmup=40, measure=100, drain_limit=20_000)
        results.append(_fingerprint(sim))
    reference, fast = results
    assert fast == reference
    assert reference["injected_packets"] > 0
    assert any(t for t, _e, _w in reference["per_link_payload"])


# --- livelock detection parity ---------------------------------------------------------


def _livelock_config():
    # Livelock knobs live in NocConfig (honored identically by both
    # engines); a drain budget far below what a saturated 4x4 mesh
    # needs guarantees the detector fires.
    return dict(
        k=4,
        rate=0.9,
        pattern="uniform",
        config_kwargs={"drain_limit": 3, "stall_window": 2},
    )


def test_livelock_parity():
    spec = _livelock_config()
    outcomes = []
    for engine in ENGINES:
        sim = _build(
            engine, spec["k"], spec["rate"], spec["pattern"],
            **spec["config_kwargs"],
        )
        with pytest.raises(LivelockError):
            sim.run(warmup=10, measure=60)
        outcomes.append(sim.cycle)
    reference_cycle, fast_cycle = outcomes
    assert fast_cycle == reference_cycle


def test_livelock_config_honored_without_run_override():
    # run() without explicit limits must read NocConfig's fields.
    sim = _build("fast", 4, 0.9, "uniform", drain_limit=3, stall_window=2)
    with pytest.raises(LivelockError):
        sim.run(warmup=10, measure=60)


# --- engine selection and guard rails --------------------------------------------------


def test_engine_dispatch_returns_fast_subclass():
    sim = _build("fast", 4, 0.05, "uniform")
    assert isinstance(sim, FastNocSimulator)
    assert isinstance(sim, NocSimulator)
    assert type(_build("reference", 4, 0.05, "uniform")) is NocSimulator


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        NocSimulator(4, engine="warp")


def test_fast_engine_route_to_unconnected_uplink_raises_protocol_error():
    # A core router without an uplink still owns a (never-connected)
    # stride-6 slot for PORT_UP; a route pointing there must surface as
    # the engine's ProtocolError naming port 5.
    topology = build_topology("chiplet", 2, **_CHIPLET_2X2)
    assert PORT_UP not in topology.node_ports((1, 1))
    sim = _build("fast", topology, 0.0, "uniform")
    r = sim._node_index[(1, 1)]
    sim._route_xy[r][sim._node_index[(0, 0)]] = PORT_UP
    sim.nics[(1, 1)].offer(
        Packet(src=(1, 1), dests=frozenset({(0, 0)}), size_flits=1,
               inject_cycle=0)
    )
    with pytest.raises(ProtocolError, match="unconnected port 5 at"):
        for _ in range(10):
            sim.step()


def test_fast_engine_rejects_multicast_traffic():
    traffic = SyntheticTraffic(
        MeshTopology(4),
        0.2,
        "uniform",
        multicast_fraction=0.5,
        multicast_degree=3,
        seed=SEED,
    )
    with pytest.raises(ConfigurationError, match="unicast"):
        NocSimulator(4, traffic=traffic, seed=SEED, engine="fast")
