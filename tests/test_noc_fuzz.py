"""Property-based fuzzing of the NoC simulator.

Random mesh sizes, router configurations and traffic mixes; the protocol
invariants must hold for every combination:

* every offered packet is delivered to every destination exactly once;
* flits are conserved (buffer writes == reads after drain, up to taps);
* credits and VC ownership return to their reset state after drain;
* latency is bounded below by the XY pipeline minimum.

Beyond the end-state checks, a second family of tests steps randomized
configurations cycle by cycle and asserts *conservation invariants at
every cycle*: no flit created or destroyed outside inject/eject, per-VC
credits never negative or above capacity (and exactly accounting for the
flits downstream of them), and every measured packet delivered exactly
once against the offered ledger.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import (
    MeshTopology,
    NocConfig,
    NocSimulator,
    SyntheticTraffic,
    build_topology,
)
from repro.noc.routing import unicast_path_hops
from repro.noc.topology import OPPOSITE, Port

configs = st.fixed_dictionaries(
    {
        "k": st.integers(2, 5),
        "n_vcs": st.sampled_from([2, 4]),
        "vc_capacity": st.integers(1, 4),
        "link_latency": st.integers(1, 2),
        "enable_taps": st.booleans(),
        "enable_bypass": st.booleans(),
        "routing": st.sampled_from(["xy", "o1turn"]),
        "rate": st.floats(0.01, 0.15),
        "pattern": st.sampled_from(["uniform", "transpose", "neighbor"]),
        "size_flits": st.integers(1, 3),
        "multicast_fraction": st.sampled_from([0.0, 0.3]),
        "seed": st.integers(0, 10_000),
    }
)


def _build(params, engine="reference"):
    topo = MeshTopology(params["k"])
    degree = min(3, topo.n_nodes - 1)
    multicast_fraction = params["multicast_fraction"] if degree >= 2 else 0.0
    traffic = SyntheticTraffic(
        topo,
        params["rate"],
        params["pattern"],
        size_flits=params["size_flits"],
        multicast_fraction=multicast_fraction,
        multicast_degree=max(degree, 2),
        seed=params["seed"],
    )
    config = NocConfig(
        n_vcs=params["n_vcs"],
        vc_capacity=params["vc_capacity"],
        link_latency=params["link_latency"],
        enable_taps=params["enable_taps"],
        enable_bypass=params["enable_bypass"],
        routing=params["routing"],
    )
    return NocSimulator(params["k"], config=config, traffic=traffic, engine=engine)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=configs)
def test_invariants_hold_for_random_configs(params):
    sim = _build(params)
    stats = sim.run(warmup=30, measure=120, drain_limit=20_000)

    # Delivery completeness: every (packet, dest) owed by the offered
    # packets arrives exactly once.  Count owed pairs from the NICs.
    delivered = [(d.packet_id, d.dest) for d in stats.deliveries]
    assert len(delivered) == len(set(delivered)), "duplicate delivery"

    # Conservation: everything written is read at least once; multicast
    # forks read the same buffered flit once per branch, so reads can
    # exceed writes exactly when multicasts exist.
    assert stats.buffer_reads >= stats.buffer_writes
    if params["multicast_fraction"] == 0.0:
        assert stats.buffer_reads == stats.buffer_writes

    # Flow control returned to reset.
    for router in sim.routers.values():
        for out in router.outputs.values():
            assert out.credits == [sim.config.vc_capacity] * sim.config.n_vcs
            assert all(owner is None for owner in out.owner)
        for port in router.inputs.values():
            assert port.occupancy == 0

    # Latency floor: at least the XY hop pipeline for any delivery.
    for d in stats.deliveries[:50]:
        assert d.latency >= 1


@settings(max_examples=10, deadline=None)
@given(
    k=st.integers(2, 4),
    seed=st.integers(0, 1000),
    rate=st.floats(0.02, 0.1),
)
def test_same_seed_same_world(k, seed, rate):
    a = NocSimulator(k, injection_rate=rate, seed=seed).run(warmup=20, measure=100)
    b = NocSimulator(k, injection_rate=rate, seed=seed).run(warmup=20, measure=100)
    assert a.link_traversals == b.link_traversals
    # Packet ids come from a process-global counter, so compare the
    # structural identity of each delivery instead.
    key_a = [(d.dest, d.inject_cycle, d.deliver_cycle) for d in a.deliveries]
    key_b = [(d.dest, d.inject_cycle, d.deliver_cycle) for d in b.deliveries]
    assert key_a == key_b


# --- per-cycle conservation invariants -------------------------------------------------
#
# The checks below run after *every* simulator cycle, not just at drain:
# a transient credit leak or a flit duplicated for one cycle and then
# reabsorbed would pass the end-state tests but fail these.


def _staged_count(router, port, vc_idx):
    return sum(1 for _, p, v in router._staged if p == port and v == vc_idx)


def _check_credit_conservation(sim):
    """Per-VC credits within [0, capacity] and exactly accounting for
    every flit downstream of the credit counter."""
    cap = sim.config.vc_capacity
    links_by_src_port = {
        (link.src, OPPOSITE[link.dst.port]): link for link in sim.links
    }
    for node, router in sim.routers.items():
        for port, out in router.outputs.items():
            link = links_by_src_port[(node, port)]
            downstream = sim.routers[link.dst.node]
            for vc in range(sim.config.n_vcs):
                credits = out.credits[vc]
                assert 0 <= credits <= cap, f"credits out of range: {credits}"
                in_flight = sum(1 for _, _, v in link._in_flight if v == vc)
                buffered = downstream.inputs[link.dst.port].vcs[vc].occupancy
                staged = _staged_count(downstream, link.dst.port, vc)
                assert cap - credits == in_flight + buffered + staged, (
                    f"credit leak at {node}->{link.dst.node} vc{vc}: "
                    f"{cap - credits} consumed vs {in_flight}+{buffered}+{staged}"
                )
                if out.owner[vc] is None:
                    # A free VC has nothing resident: all credits home.
                    assert credits == cap
    for node, nic in sim.nics.items():
        router = sim.routers[node]
        for vc in range(sim.config.n_vcs):
            credits = nic.out.credits[vc]
            assert 0 <= credits <= cap
            buffered = router.inputs[Port.LOCAL].vcs[vc].occupancy
            staged = _staged_count(router, Port.LOCAL, vc)
            assert cap - credits == buffered + staged


def _resident_flits(sim):
    """Every flit currently alive inside the network fabric."""
    count = 0
    for router in sim.routers.values():
        count += len(router._staged)
        for port in router.inputs.values():
            count += port.occupancy
    for link in sim.links:
        count += len(link._in_flight)
    return count


def _check_flit_conservation(sim):
    """Unicast traffic: injected == resident + ejected, every cycle.

    (Multicast legitimately copies flits at route forks and absorbs them
    at taps, so the strict form of "no flit created or destroyed outside
    inject/eject" is a unicast invariant.)
    """
    stats = sim.stats
    resident = _resident_flits(sim)
    assert stats.injected_flits == resident + stats.ejections, (
        f"flit conservation broken: injected {stats.injected_flits} != "
        f"resident {resident} + ejected {stats.ejections}"
    )


unicast_configs = st.fixed_dictionaries(
    {
        "k": st.integers(2, 4),
        "n_vcs": st.sampled_from([2, 4]),
        "vc_capacity": st.integers(1, 4),
        "link_latency": st.integers(1, 2),
        "enable_bypass": st.booleans(),
        "routing": st.sampled_from(["xy", "o1turn"]),
        "rate": st.floats(0.01, 0.12),
        "pattern": st.sampled_from(["uniform", "transpose", "neighbor"]),
        "size_flits": st.integers(1, 3),
        "seed": st.integers(0, 10_000),
    }
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=unicast_configs)
def test_conservation_invariants_every_cycle(params):
    sim = _build(
        {**params, "enable_taps": False, "multicast_fraction": 0.0}
    )

    # Ledger of owed (packet, dest) pairs, recorded at offer time.
    owed: list[tuple[int, tuple[int, int]]] = []
    for nic in sim.nics.values():
        original = nic.offer

        def offer(packet, _original=original):
            owed.extend((packet.packet_id, d) for d in packet.dests)
            _original(packet)

        nic.offer = offer

    sim.stats.measure_start, sim.stats.measure_end = 0, 150
    for _ in range(150):
        sim.step()
        _check_credit_conservation(sim)
        _check_flit_conservation(sim)

    # Drain with the invariants still enforced each cycle.
    sim.traffic.injection_rate = 0.0
    for _ in range(20_000):
        if not sim._network_busy():
            break
        sim.step()
        _check_credit_conservation(sim)
        _check_flit_conservation(sim)
    assert not sim._network_busy(), "network failed to drain"

    # Delivered-exactly-once against the offered ledger.
    delivered = [(d.packet_id, d.dest) for d in sim.stats.deliveries]
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert sorted(delivered) == sorted(owed), "delivery ledger mismatch"


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=configs)
def test_credit_bounds_every_cycle_with_multicast(params):
    # The strict flit ledger is unicast-only, but credit bounds and the
    # credit/occupancy accounting must hold under forks and taps too.
    sim = _build(params)
    sim.stats.measure_start, sim.stats.measure_end = 0, 120
    for _ in range(120):
        sim.step()
        _check_credit_conservation(sim)


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(2, 5),
    src=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    dest=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
def test_single_packet_latency_scales_with_distance(k, src, dest):
    topo = MeshTopology(k)
    if not (topo.contains(src) and topo.contains(dest)) or src == dest:
        return
    from repro.noc import Packet

    sim = NocSimulator(k, injection_rate=0.0)
    sim.stats.measure_start, sim.stats.measure_end = 0, 500
    sim.nics[src].offer(
        Packet(src=src, dests=frozenset({dest}), size_flits=1, inject_cycle=0)
    )
    for _ in range(400):
        sim.step()
        if not sim._network_busy():
            break
    assert sim.stats.delivered_count == 1
    hops = unicast_path_hops(topo, src, dest)
    latency = sim.stats.deliveries[0].latency
    # Min: one pipeline traversal per hop; max: generous zero-load bound.
    assert hops <= latency <= 10 * (hops + 3)


# --- fast-engine per-cycle conservation ------------------------------------------------
#
# The struct-of-arrays engine keeps its state in flat rings instead of
# router/VC objects, so the invariant checkers above cannot see inside
# it.  These mirrors read the flat arrays directly: per-slot credits
# exactly account for every flit downstream of them (buffered + staged
# by a NIC + in flight on a link), and the unicast flit ledger balances
# after every cycle.  Randomized configurations, same strategy space as
# the reference checks.


def _fast_resident_flits(sim):
    return (
        sum(sim._count)
        + len(sim._nic_staged)
        + sum(len(bucket) for bucket in sim._arrivals.values())
    )


def _check_fast_credit_conservation(sim):
    cap = sim.config.vc_capacity
    staged_to: dict[int, int] = {}
    for s, _flit, _fl, _di in sim._nic_staged:
        staged_to[s] = staged_to.get(s, 0) + 1
    arriving_to: dict[int, int] = {}
    link_dst_base = sim._link_dst_base
    for bucket in sim._arrivals.values():
        for li, _flit, vc, _fl, _di in bucket:
            s = link_dst_base[li] + vc
            arriving_to[s] = arriving_to.get(s, 0) + 1
    for s, credits in enumerate(sim._credits):
        assert 0 <= credits <= cap, f"slot {s}: credits out of range: {credits}"
        downstream = (
            sim._count[s] + staged_to.get(s, 0) + arriving_to.get(s, 0)
        )
        assert cap - credits == downstream, (
            f"credit leak at slot {s}: {cap - credits} consumed vs "
            f"{downstream} downstream"
        )
        if not sim._owned[s]:
            # A free VC has nothing resident: all credits home.
            assert credits == cap, f"free slot {s} missing credits"


def _check_fast_flit_conservation(sim):
    stats = sim.stats
    resident = _fast_resident_flits(sim)
    assert stats.injected_flits == resident + stats.ejections, (
        f"flit conservation broken: injected {stats.injected_flits} != "
        f"resident {resident} + ejected {stats.ejections}"
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=unicast_configs)
def test_fast_engine_conservation_invariants_every_cycle(params):
    sim = _build(
        {**params, "enable_taps": False, "multicast_fraction": 0.0},
        engine="fast",
    )

    owed: list[tuple[int, tuple[int, int]]] = []
    for nic in sim.nics.values():
        original = nic.offer

        def offer(packet, _original=original):
            owed.extend((packet.packet_id, d) for d in packet.dests)
            _original(packet)

        nic.offer = offer

    sim.stats.measure_start, sim.stats.measure_end = 0, 150
    for _ in range(150):
        sim.step()
        _check_fast_credit_conservation(sim)
        _check_fast_flit_conservation(sim)

    sim.traffic.injection_rate = 0.0
    for _ in range(20_000):
        if not sim._network_busy():
            break
        sim.step()
        _check_fast_credit_conservation(sim)
        _check_fast_flit_conservation(sim)
    assert not sim._network_busy(), "network failed to drain"

    delivered = [(d.packet_id, d.dest) for d in sim.stats.deliveries]
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert sorted(delivered) == sorted(owed), "delivery ledger mismatch"


# --- topology-family conservation fuzz -------------------------------------------------
#
# The same invariants, fuzzed across every topology class (mesh,
# concentrated mesh, torus, chiplet NoC/NoI).  The chiplet hierarchy
# runs at port stride 6, so the flat-array checks also cover the unused
# PORT_UP slots of its 5-port core routers.  Table-routed topologies pin
# routing to "xy" (the table override); patterns stay in the subset
# every endpoint grid supports.

family_configs = st.fixed_dictionaries(
    {
        "spec": st.sampled_from(
            [
                ("mesh", 3, {}),
                ("mesh", 4, {}),
                ("torus", 3, {}),
                ("torus", 4, {}),
                ("cmesh", 2, {"concentration": 2}),
                ("cmesh", 2, {"concentration": 4}),
                ("cmesh", 3, {"concentration": 2}),
                ("chiplet", 2, {"chiplets_x": 2, "chiplets_y": 2}),
                ("chiplet", 2, {"chiplets_x": 3, "chiplets_y": 1}),
                ("chiplet", 3, {"chiplets_x": 2, "chiplets_y": 1}),
            ]
        ),
        "n_vcs": st.sampled_from([2, 4]),
        "vc_capacity": st.integers(1, 4),
        "link_latency": st.integers(1, 2),
        "enable_bypass": st.booleans(),
        "rate": st.floats(0.01, 0.10),
        "pattern": st.sampled_from(["uniform", "neighbor"]),
        "size_flits": st.integers(1, 3),
        "seed": st.integers(0, 10_000),
    }
)


def _build_family(params, engine):
    kind, k, builder_kwargs = params["spec"]
    topo = build_topology(kind, k, **builder_kwargs)
    traffic = SyntheticTraffic(
        topo,
        params["rate"],
        params["pattern"],
        size_flits=params["size_flits"],
        seed=params["seed"],
    )
    config = NocConfig(
        n_vcs=params["n_vcs"],
        vc_capacity=params["vc_capacity"],
        link_latency=params["link_latency"],
        enable_bypass=params["enable_bypass"],
    )
    return NocSimulator(topo, config=config, traffic=traffic, engine=engine)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=family_configs)
def test_family_fast_engine_conservation_every_cycle(params):
    sim = _build_family(params, engine="fast")

    owed: list[tuple[int, tuple[int, int]]] = []
    for nic in sim.nics.values():
        original = nic.offer

        def offer(packet, _original=original):
            owed.extend((packet.packet_id, d) for d in packet.dests)
            _original(packet)

        nic.offer = offer

    sim.stats.measure_start, sim.stats.measure_end = 0, 120
    for _ in range(120):
        sim.step()
        _check_fast_credit_conservation(sim)
        _check_fast_flit_conservation(sim)

    sim.traffic.injection_rate = 0.0
    for _ in range(20_000):
        if not sim._network_busy():
            break
        sim.step()
        _check_fast_credit_conservation(sim)
        _check_fast_flit_conservation(sim)
    assert not sim._network_busy(), "network failed to drain"

    delivered = [(d.packet_id, d.dest) for d in sim.stats.deliveries]
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert sorted(delivered) == sorted(owed), "delivery ledger mismatch"


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=family_configs)
def test_family_fast_matches_reference(params):
    fingerprints = []
    for engine in ("reference", "fast"):
        sim = _build_family(params, engine=engine)
        stats = sim.run(warmup=20, measure=100, drain_limit=20_000)
        fingerprints.append(
            (
                sim.cycle,
                stats.injected_packets,
                stats.injected_flits,
                stats.buffer_writes,
                stats.buffer_reads,
                stats.crossbar_traversals,
                stats.link_traversals,
                stats.ejections,
                sorted(
                    (d.src, d.dest, d.inject_cycle, d.deliver_cycle)
                    for d in stats.deliveries
                ),
                [link.traversals for link in sim.links],
            )
        )
    assert fingerprints[0] == fingerprints[1]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=unicast_configs)
def test_fast_engine_matches_reference_for_random_configs(params):
    # Differential fuzz: the full end-state fingerprint must match the
    # oracle bitwise for any randomized unicast configuration.  Packet
    # ids come from a process-global counter, so deliveries compare by
    # structural identity.
    fingerprints = []
    for engine in ("reference", "fast"):
        sim = _build(
            {**params, "enable_taps": False, "multicast_fraction": 0.0},
            engine=engine,
        )
        stats = sim.run(warmup=20, measure=100, drain_limit=20_000)
        fingerprints.append(
            (
                sim.cycle,
                stats.injected_packets,
                stats.injected_flits,
                stats.buffer_writes,
                stats.buffer_reads,
                stats.bypassed_flits,
                stats.crossbar_traversals,
                stats.link_traversals,
                stats.ejections,
                sorted(
                    (d.src, d.dest, d.inject_cycle, d.deliver_cycle)
                    for d in stats.deliveries
                ),
                [link.traversals for link in sim.links],
            )
        )
    assert fingerprints[0] == fingerprints[1]


# --- trace replay under fault injection --------------------------------------------------


trace_replay_configs = st.fixed_dictionaries(
    {
        "k": st.integers(2, 4),
        "rate": st.floats(0.02, 0.12),
        "trace_cycles": st.integers(40, 120),
        "size_flits": st.integers(1, 3),
        "ber": st.floats(1e-4, 5e-3),
        "payload": st.booleans(),
        "seed": st.integers(0, 10_000),
    }
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=trace_replay_configs)
def test_trace_replay_conservation_under_faults(params):
    # Record a random synthetic run into a trace, replay it with a
    # corrupting (never dropping) fault layer, and hold the conservation
    # invariants at every cycle.  Corruption may flip payload bits but
    # must neither create nor destroy flits, and every recorded packet
    # must still be delivered exactly once — possibly marked corrupted.
    from repro.fault import FaultLayer, ProtectionConfig, UniformBer
    from repro.noc import TraceTraffic, record_trace
    from repro.workload import build_traffic

    topo = MeshTopology(params["k"])
    source = build_traffic(
        topo,
        "synthetic",
        injection_rate=params["rate"],
        size_flits=params["size_flits"],
        seed=params["seed"],
        payload_mode="random" if params["payload"] else "constant",
    )
    trace = record_trace(source, params["trace_cycles"])

    traffic = TraceTraffic(
        topology=topo, entries=trace.entries, flit_bits=trace.flit_bits
    )
    sim = NocSimulator(topo, traffic=traffic, engine="reference")
    FaultLayer(
        UniformBer(ber=params["ber"]),
        ProtectionConfig(protocol="none"),
        seed=params["seed"] + 1,
    ).attach(sim)

    owed: list[tuple[int, tuple[int, int]]] = []
    for nic in sim.nics.values():
        original = nic.offer

        def offer(packet, _original=original):
            owed.extend((packet.packet_id, d) for d in packet.dests)
            _original(packet)

        nic.offer = offer

    horizon = params["trace_cycles"] + 10
    sim.stats.measure_start, sim.stats.measure_end = 0, horizon
    for _ in range(horizon):
        sim.step()
        _check_credit_conservation(sim)
        _check_flit_conservation(sim)

    traffic.begin_drain()
    for _ in range(20_000):
        if not sim._network_busy():
            break
        sim.step()
        _check_credit_conservation(sim)
        _check_flit_conservation(sim)
    assert not sim._network_busy(), "network failed to drain"
    traffic.end_drain()

    assert len(owed) == sum(1 for _e in trace.entries), "replay lost packets"
    delivered = [(d.packet_id, d.dest) for d in sim.stats.deliveries]
    assert len(delivered) == len(set(delivered)), "duplicate delivery"
    assert sorted(delivered) == sorted(owed), "delivery ledger mismatch"
