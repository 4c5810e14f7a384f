"""The workload subsystem: trace ingestion, generators, payload pricing.

Covers the four legs of the workload axis (docs/WORKLOADS.md):

* trace save/load round-trips in both formats (payload bits included),
  streaming ingestion, and format/path-independent content identity;
* the Markov on/off and collective generators — determinism, offered
  load, drain protocol, validation;
* payload attachment and the data-dependent link energy model,
  including the exact worst-case reduction: an all-toggle payload with
  coupling disabled must price *bitwise* to the constant model;
* the campaign config's named workload-validation guards and the v3
  content hash following trace content, not trace path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkloadConfigError
from repro.fault import FaultCampaignConfig
from repro.noc import (
    MeshTopology,
    NocSimulator,
    SyntheticTraffic,
    TraceEntry,
    TraceTraffic,
    build_topology,
    cached_trace,
    iter_trace_text,
    price_stats,
    record_trace,
    trace_file_hash,
)
from repro.workload import (
    COLLECTIVES,
    PAYLOAD_MODES,
    WORKLOADS,
    BurstyTraffic,
    CollectiveTraffic,
    PayloadedTraffic,
    build_traffic,
    coupling_miller_fraction,
    payload_datapath_energy,
)

SEED = 11


def _mesh(k=4):
    return MeshTopology(k)


def _sample_trace(topology=None, payload=True):
    topology = topology or _mesh()
    source = build_traffic(
        topology,
        "bursty",
        injection_rate=0.1,
        seed=SEED,
        payload_mode="random" if payload else "constant",
    )
    return record_trace(source, 80)


# --- trace round-trips and ingestion -----------------------------------------------------


def test_trace_json_roundtrip_with_payload(tmp_path):
    trace = _sample_trace()
    assert any(e.payload for e in trace.entries)
    path = tmp_path / "t.json"
    trace.save(path)
    loaded = TraceTraffic.load(path)
    assert loaded.entries == trace.entries
    assert loaded.topology == trace.topology
    assert loaded.flit_bits == trace.flit_bits


def test_trace_text_roundtrip_with_payload(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.trace"
    trace.save_text(path)
    loaded = TraceTraffic.load_text(path)
    assert loaded.entries == trace.entries
    assert loaded.topology == trace.topology


def test_trace_streaming_ingestion_is_lazy(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.trace"
    trace.save_text(path)
    stream = iter_trace_text(path)
    header = next(stream)
    assert header == {"topology": {"kind": "mesh", "k": 4}, "flit_bits": 64}
    first = next(stream)
    assert isinstance(first, TraceEntry)
    assert first == trace.entries[0]
    assert list(stream) == trace.entries[1:]


def test_trace_text_keeps_flit_bits(tmp_path):
    # The text form states its flit width in a header directive, so a
    # 32-bit trace loads back 32 bits wide and hashes as its JSON copy.
    source = build_traffic(_mesh(), "synthetic", injection_rate=0.1,
                           payload_mode="random", flit_bits=32, seed=SEED)
    trace = record_trace(source, 80)
    assert trace.flit_bits == 32
    a = tmp_path / "a.json"
    b = tmp_path / "b.trace"
    trace.save(a)
    trace.save_text(b)
    assert cached_trace(b).flit_bits == 32
    assert cached_trace(b).entries == trace.entries
    assert trace_file_hash(a) == trace_file_hash(b) == trace.content_hash()


def test_trace_text_without_flit_bits_directive_means_64(tmp_path):
    path = tmp_path / "dump.trace"
    path.write_text("topology mesh k=4\n0 0,0 1,1 1 ff\n")
    assert TraceTraffic.load_text(path).flit_bits == 64
    path.write_text("topology mesh k=4\n0 0,0 1,1 1\nflit_bits 32\n")
    with pytest.raises(ConfigurationError, match="after the first entry"):
        TraceTraffic.load_text(path)


def test_trace_text_rejects_entries_before_header(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("0 0,0 1,1 1\n")
    with pytest.raises(ConfigurationError, match="topology directive"):
        list(iter_trace_text(path))


def test_trace_content_hash_is_format_and_path_independent(tmp_path):
    trace = _sample_trace()
    a = tmp_path / "a.json"
    b = tmp_path / "sub"
    b.mkdir()
    b = b / "b.trace"
    trace.save(a)
    trace.save_text(b)
    assert trace_file_hash(a) == trace_file_hash(b) == trace.content_hash()


def test_trace_content_hash_tracks_payload():
    with_payload = _sample_trace(payload=True)
    without = TraceTraffic(
        topology=with_payload.topology,
        entries=[
            TraceEntry(e.cycle, e.src, e.dests, e.size_flits)
            for e in with_payload.entries
        ],
    )
    assert with_payload.content_hash() != without.content_hash()


def test_trace_on_torus_roundtrip(tmp_path):
    topology = build_topology("torus", 4)
    trace = record_trace(
        SyntheticTraffic(topology, 0.1, "uniform", seed=SEED), 40
    )
    path = tmp_path / "torus.json"
    trace.save(path)
    loaded = TraceTraffic.load(path)
    assert loaded.topology == topology
    assert loaded.entries == trace.entries


def test_trace_rejects_payload_word_wider_than_flit_bits():
    with pytest.raises(ConfigurationError, match="flit_bits"):
        TraceTraffic(
            topology=_mesh(),
            entries=[TraceEntry(0, (0, 0), ((1, 1),), 1, (1 << 64,))],
        )


def test_trace_rejects_payload_length_mismatch():
    with pytest.raises(ConfigurationError, match="payload words"):
        TraceTraffic(
            topology=_mesh(),
            entries=[TraceEntry(0, (0, 0), ((1, 1),), 2, (5,))],
        )


def test_trace_drain_protocol():
    trace = _sample_trace()
    assert not trace.draining
    trace.begin_drain()
    assert trace.draining
    assert trace.packets_for_cycle(trace.entries[0].cycle) == []
    with pytest.raises(ConfigurationError):
        trace.begin_drain()
    trace.end_drain()
    with pytest.raises(ConfigurationError):
        trace.end_drain()
    assert trace.packets_for_cycle(trace.entries[0].cycle)


def test_cached_trace_replays_are_fresh_instances(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.json"
    trace.save(path)
    assert cached_trace(path) is cached_trace(path)  # parsed once
    first = build_traffic(None, "trace", trace_path=path)
    second = cached_trace(path).replay()
    assert first is not second
    assert first.entries is second.entries is cached_trace(path).entries
    first.begin_drain()
    assert not second.draining
    assert not cached_trace(path).draining


@pytest.mark.parametrize(
    "line, match",
    [
        ("0 1,1 1,1 1", "destination equals its source"),
        ("0 0,0 1,1;0,0 1", "destination equals its source"),
        ("0 0,0 1,1;2,2 2", "multicast packets must be single-flit"),
        ("0 0,0 1,1 0", "size_flits must be >= 1"),
    ],
    ids=["self-unicast", "self-in-multicast", "multi-flit-multicast",
         "zero-flits"],
)
def test_trace_refuses_entries_packet_refuses(tmp_path, line, match):
    """A trace that loads also replays: Packet's rules are checked when
    the trace is built, not when a replay reaches the entry."""
    path = tmp_path / "bad.trace"
    path.write_text(f"topology mesh k=4\n{line}\n")
    with pytest.raises(ConfigurationError, match=match):
        TraceTraffic.load_text(path)
    with pytest.raises(ConfigurationError, match=match):
        trace_file_hash(path)


def test_trace_refuses_an_entry_without_destinations():
    with pytest.raises(ConfigurationError, match="at least one destination"):
        TraceTraffic(topology=_mesh(), entries=[TraceEntry(0, (0, 0), (), 1)])


def test_trace_keeps_worst_case_recording(tmp_path):
    """A worst-case source records as worst_case: its replay drives the
    all-toggle complement, counting transitions exactly as live."""
    topology = _mesh(3)

    def source():
        return build_traffic(topology, "synthetic", injection_rate=0.1,
                             size_flits=2, payload_mode="worst_case",
                             flit_bits=16, seed=SEED)

    trace = record_trace(source(), 60)
    assert trace.payload_mode == "worst_case" and trace.worst_case
    assert not any(e.payload for e in trace.entries)
    constant = TraceTraffic(topology, trace.entries, flit_bits=16)
    assert trace.content_hash() != constant.content_hash()

    def transitions(traffic):
        sim = NocSimulator(topology, traffic=traffic, seed=SEED)
        sim.run(warmup=10, measure=50)
        return [link.payload_transitions for link in sim.links]

    counts = transitions(trace.replay())
    assert sum(counts) > 0
    assert counts == transitions(source())
    for save in (trace.save, trace.save_text):
        with pytest.raises(ConfigurationError, match="worst_case"):
            save(tmp_path / "worst")
    assert not (tmp_path / "worst").exists()


# --- generators --------------------------------------------------------------------------


def test_bursty_deterministic_and_mean_rate():
    def run(seed):
        traffic = BurstyTraffic(_mesh(), 0.1, seed=seed)
        return [
            sorted((p.src, tuple(sorted(p.dests))) for p in
                   traffic.packets_for_cycle(c))
            for c in range(300)
        ]

    assert run(3) == run(3)
    assert run(3) != run(4)
    traffic = BurstyTraffic(_mesh(), 0.1, seed=SEED)
    n = sum(len(traffic.packets_for_cycle(c)) for c in range(4000))
    mean = n / (4000 * 16)
    assert 0.08 < mean < 0.12  # long-run offered load matches the rate


def test_bursty_is_actually_bursty():
    # The on/off modulation clumps injections *in time*: per-cycle
    # counts are near-Bernoulli, but sums over burst-length windows
    # carry the chains' positive autocorrelation, so their variance far
    # exceeds a uniform run's at the same mean rate.
    window = 25  # ~ two mean burst lengths at burst_off=0.08

    def windowed_var(traffic):
        counts = [len(traffic.packets_for_cycle(c)) for c in range(5000)]
        sums = [
            sum(counts[i:i + window]) for i in range(0, 5000, window)
        ]
        return float(np.var(sums))

    bursty = windowed_var(
        BurstyTraffic(_mesh(), 0.1, burst_on=0.02, burst_off=0.08, seed=SEED)
    )
    uniform = windowed_var(SyntheticTraffic(_mesh(), 0.1, "uniform", seed=SEED))
    assert bursty > 2.0 * uniform


def test_bursty_drain_freezes_chain():
    traffic = BurstyTraffic(_mesh(), 0.1, seed=SEED)
    for c in range(50):
        traffic.packets_for_cycle(c)
    traffic.begin_drain()
    assert traffic.packets_for_cycle(50) == []
    assert traffic.draining
    traffic.end_drain()
    assert not traffic.draining


def test_bursty_validation():
    with pytest.raises(ConfigurationError, match="burst_on"):
        BurstyTraffic(_mesh(), 0.1, burst_on=0.0)
    with pytest.raises(ConfigurationError, match="duty"):
        BurstyTraffic(_mesh(), 0.9, burst_on=0.05, burst_off=0.45)
    with pytest.raises(ConfigurationError, match="pattern"):
        BurstyTraffic(_mesh(), 0.1, pattern="zigzag")


def test_collective_emits_structured_multicasts():
    traffic = CollectiveTraffic(_mesh(), 0.3, collective_fraction=1.0,
                                seed=SEED)
    packets = [
        p for c in range(50) for p in traffic.packets_for_cycle(c)
    ]
    assert packets
    for p in packets:
        (x, y) = p.src
        assert p.dests == frozenset(
            (cx, y) for cx in range(4) if (cx, y) != p.src
        )
    assert traffic.multicast_fraction == 1.0


def test_collective_validation():
    with pytest.raises(ConfigurationError, match="grid-endpoint"):
        CollectiveTraffic(
            build_topology("chiplet", 2, chiplets_x=2, chiplets_y=2), 0.1
        )
    with pytest.raises(ConfigurationError, match="collective"):
        CollectiveTraffic(_mesh(), 0.1, collective="diagonal")
    with pytest.raises(ConfigurationError, match="multicast_degree"):
        CollectiveTraffic(_mesh(), 0.1, collective="random",
                          multicast_degree=1)


# --- payload attachment and data-dependent energy ----------------------------------------


def test_payloaded_traffic_delegates_and_attaches():
    inner = SyntheticTraffic(_mesh(), 0.2, "uniform", seed=SEED)
    traffic = PayloadedTraffic(inner, mode="random", flit_bits=64)
    assert traffic.topology == inner.topology
    assert traffic.injection_rate == 0.2
    packets = []
    for c in range(20):
        packets.extend(traffic.packets_for_cycle(c))
    assert packets
    for p in packets:
        assert len(p.payload) == p.size_flits
        assert all(0 <= w < (1 << 64) for w in p.payload)


def test_payload_does_not_perturb_delivery_stats():
    # The payload RNG is a separate derived stream: latency, hop and
    # traversal statistics of a payloaded run equal the constant run's.
    def run(payload_mode):
        topology = _mesh()
        traffic = build_traffic(
            topology, "synthetic", injection_rate=0.15, seed=SEED,
            payload_mode=payload_mode,
        )
        sim = NocSimulator(topology, traffic=traffic, seed=SEED,
                           engine="fast")
        stats = sim.run(warmup=40, measure=150)
        return (
            stats.injected_packets,
            stats.link_traversals,
            stats.average_latency,
            sorted((d.src, d.dest, d.deliver_cycle) for d in stats.deliveries),
        )

    assert run("constant") == run("random")


def test_worst_case_reduction_is_bitwise():
    # THE acceptance criterion: all-toggle payload + coupling off must
    # price bitwise-identically to the constant per-bit model.
    topology = _mesh()
    traffic = build_traffic(
        topology, "synthetic", injection_rate=0.15, seed=SEED,
        payload_mode="worst_case",
    )
    sim = NocSimulator(topology, traffic=traffic, seed=SEED, engine="fast")
    stats = sim.run(warmup=40, measure=150)
    assert all(link.coupling_events == 0 for link in sim.links)
    counted = price_stats(stats, links=sim.links, coupling=False)
    constant = price_stats(stats)
    assert counted.datapath == constant.datapath
    assert counted.total == constant.total


def test_random_payload_prices_below_constant():
    topology = _mesh()
    traffic = build_traffic(
        topology, "synthetic", injection_rate=0.15, seed=SEED,
        payload_mode="random",
    )
    sim = NocSimulator(topology, traffic=traffic, seed=SEED, engine="fast")
    stats = sim.run(warmup=40, measure=150)
    counted = price_stats(stats, links=sim.links)
    constant = price_stats(stats)
    # ~half the wires toggle; the Miller surcharge cannot make up the
    # factor-two gap.
    assert counted.datapath < 0.75 * constant.datapath
    assert counted.datapath > 0.25 * constant.datapath


def test_coupling_term_is_positive_and_bounded():
    fraction = coupling_miller_fraction()
    assert 0.0 < fraction < 1.0
    topology = _mesh()
    traffic = build_traffic(
        topology, "synthetic", injection_rate=0.15, seed=SEED,
        payload_mode="random",
    )
    sim = NocSimulator(topology, traffic=traffic, seed=SEED, engine="fast")
    sim.run(warmup=40, measure=150)
    assert any(link.coupling_events for link in sim.links)
    e_dp = 1e-12
    with_coupling = payload_datapath_energy(sim.links, e_dp, 64)
    without = payload_datapath_energy(sim.links, e_dp, 64, coupling=False)
    assert with_coupling > without


def test_payloaded_traffic_rejects_double_wrap_and_bad_mode():
    inner = SyntheticTraffic(_mesh(), 0.1, "uniform", seed=SEED)
    wrapped = PayloadedTraffic(inner)
    with pytest.raises(ConfigurationError, match="already carries"):
        PayloadedTraffic(wrapped)
    with pytest.raises(ConfigurationError, match="mode"):
        PayloadedTraffic(inner, mode="alternating")


# --- the build_traffic factory -----------------------------------------------------------


def test_build_traffic_dispatch():
    topology = _mesh()
    assert isinstance(
        build_traffic(topology, "synthetic", injection_rate=0.1),
        SyntheticTraffic,
    )
    assert isinstance(
        build_traffic(topology, "bursty", injection_rate=0.1), BurstyTraffic
    )
    assert isinstance(
        build_traffic(topology, "collective", injection_rate=0.1),
        CollectiveTraffic,
    )
    wrapped = build_traffic(
        topology, "bursty", injection_rate=0.1, payload_mode="random"
    )
    assert isinstance(wrapped, PayloadedTraffic)
    assert isinstance(wrapped.inner, BurstyTraffic)


def test_build_traffic_trace_guards(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "t.json"
    trace.save(path)
    with pytest.raises(WorkloadConfigError, match="trace_path"):
        build_traffic(_mesh(), "trace")
    with pytest.raises(WorkloadConfigError, match="recorded on"):
        build_traffic(MeshTopology(6), "trace", trace_path=path)
    with pytest.raises(WorkloadConfigError, match="payload_mode"):
        build_traffic(_mesh(), "trace", trace_path=path,
                      payload_mode="random")
    with pytest.raises(WorkloadConfigError, match="workload"):
        build_traffic(_mesh(), "replay")
    with pytest.raises(WorkloadConfigError, match="unicast-only"):
        build_traffic(_mesh(), "bursty", injection_rate=0.1,
                      multicast_fraction=0.5)


# --- campaign config validation and identity ---------------------------------------------


def _campaign(**kwargs):
    base = dict(k=3, warmup=20, measure=60, bers=(1e-3,),
                protocols=("none",), seed=SEED)
    base.update(kwargs)
    return FaultCampaignConfig(**base)


def test_campaign_rejects_unknown_workload_combos(tmp_path):
    with pytest.raises(WorkloadConfigError, match="workload"):
        _campaign(workload="replay")
    with pytest.raises(WorkloadConfigError, match="payload_mode"):
        _campaign(payload_mode="toggle")
    with pytest.raises(WorkloadConfigError, match="trace_path"):
        _campaign(trace_path="/tmp/x.json")  # without workload="trace"
    with pytest.raises(WorkloadConfigError, match="burst_on"):
        _campaign(burst_on=0.5)  # synthetic workload
    with pytest.raises(WorkloadConfigError, match="collective"):
        _campaign(collective_fraction=0.5)
    with pytest.raises(WorkloadConfigError, match="unicast-only"):
        _campaign(workload="bursty", multicast_fraction=0.3)
    with pytest.raises(WorkloadConfigError, match="coupling"):
        _campaign(coupling=False)  # constant pricing: nothing to drop
    with pytest.raises(WorkloadConfigError, match="needs a trace_path"):
        _campaign(workload="trace")
    trace = _sample_trace(_mesh(3))
    path = tmp_path / "t.json"
    trace.save(path)
    with pytest.raises(WorkloadConfigError, match="generator knobs"):
        _campaign(workload="trace", trace_path=str(path), injection_rate=0.2)
    with pytest.raises(WorkloadConfigError, match="recorded on"):
        _campaign(workload="trace", trace_path=str(path), k=4)


def test_campaign_hash_follows_trace_content(tmp_path):
    trace = _sample_trace(_mesh(3))
    a = tmp_path / "a.json"
    b = tmp_path / "b.trace"
    trace.save(a)
    trace.save_text(b)
    ha = _campaign(workload="trace", trace_path=str(a)).content_hash()
    hb = _campaign(workload="trace", trace_path=str(b)).content_hash()
    assert ha == hb  # same logical trace, different path and format
    edited = TraceTraffic(
        topology=trace.topology, entries=trace.entries[:-1]
    )
    edited.save(a)
    assert _campaign(
        workload="trace", trace_path=str(a)
    ).content_hash() != ha


def test_campaign_hash_separates_workloads():
    hashes = {
        _campaign().content_hash(),
        _campaign(workload="bursty").content_hash(),
        _campaign(workload="bursty", burst_on=0.02).content_hash(),
        _campaign(workload="collective").content_hash(),
        _campaign(payload_mode="random").content_hash(),
        _campaign(payload_mode="random", coupling=False).content_hash(),
    }
    assert len(hashes) == 6


def test_workload_vocabulary_is_closed():
    assert WORKLOADS == ("synthetic", "bursty", "collective", "trace")
    assert PAYLOAD_MODES == ("constant", "random", "worst_case")
    assert COLLECTIVES == ("row", "col", "random")
