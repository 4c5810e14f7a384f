"""Campaign tapes: one recorded packet stream per fault campaign.

A fault campaign records its traffic once per process with
``record_trace`` and replays it at every (BER, protocol) point
(docs/FAULTS.md).  These tests pin both halves of that claim — a
recording replays its source packet for packet, and a campaign point
run from the recording equals the same point run on a live generator —
and the memo's scope: one recording per campaign, shared by the serial
map, worker processes and the service adapter; a trace campaign parses
its file once.
"""

from __future__ import annotations

from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.fault import FaultCampaignConfig, run_fault_campaign
from repro.fault import campaign
from repro.noc import TraceTraffic, build_topology, record_trace
from repro.noc import trace as noc_trace
from repro.noc.traffic import PATTERNS
from repro.service.adapters import get_adapter
from repro.workload import COLLECTIVES, build_traffic

N_CYCLES = 120

TOPOLOGIES = {
    "mesh": lambda: build_topology("mesh", 4),
    "cmesh": lambda: build_topology("cmesh", 2, concentration=4),
    "chiplet": lambda: build_topology("chiplet", 2, chiplets_x=2, chiplets_y=2),
}

#: (case id, topology name, build_traffic arguments).
SOURCES = (
    [
        (f"synthetic-{pattern}-{topo}", topo,
         dict(workload="synthetic", pattern=pattern, injection_rate=0.1,
              size_flits=2, payload_mode="random"))
        for topo in TOPOLOGIES
        for pattern in PATTERNS
    ]
    + [
        (f"bursty-{topo}", topo,
         dict(workload="bursty", injection_rate=0.08, size_flits=3,
              payload_mode="random"))
        for topo in TOPOLOGIES
    ]
    + [
        (f"collective-{collective}-mesh", "mesh",
         dict(workload="collective", collective=collective,
              injection_rate=0.1, size_flits=2, payload_mode="random"))
        for collective in COLLECTIVES
    ]
    + [
        ("synthetic-multicast-mesh", "mesh",
         dict(workload="synthetic", multicast_fraction=0.3,
              injection_rate=0.1, size_flits=2)),
    ]
)


def _fields(packet):
    """Every packet field except the process-global ``packet_id``;
    ``dests`` in iteration order, which the e2e tracker follows."""
    return (
        packet.src,
        tuple(packet.dests),
        packet.size_flits,
        packet.inject_cycle,
        packet.routing,
        packet.payload,
    )


@pytest.mark.parametrize(
    "topo, kwargs", [case[1:] for case in SOURCES], ids=[c[0] for c in SOURCES]
)
def test_replay_equals_live_generation(topo, kwargs):
    def source():
        return build_traffic(TOPOLOGIES[topo](), seed=5, **kwargs)

    replay = record_trace(source(), N_CYCLES).replay()
    live = source()
    replayed = []
    for cycle in range(N_CYCLES):
        got = replay.packets_for_cycle(cycle)
        want = live.packets_for_cycle(cycle)
        assert [_fields(p) for p in got] == [_fields(p) for p in want]
        replayed += got
    ids = [p.packet_id for p in replayed]
    assert replayed and ids == sorted(set(ids))  # fresh packets, in order
    if kwargs.get("payload_mode") == "random":
        assert all(len(p.payload) == p.size_flits for p in replayed)
    if kwargs["workload"] == "collective" or kwargs.get("multicast_fraction"):
        assert any(p.is_multicast for p in replayed)
    # Drained, both make nothing; past the recording the replay stays empty.
    live.begin_drain()
    replay.begin_drain()
    for cycle in range(N_CYCLES, N_CYCLES + 30):
        assert replay.packets_for_cycle(cycle) == []
        assert live.packets_for_cycle(cycle) == []
    replay.end_drain()
    assert replay.packets_for_cycle(N_CYCLES) == []


def test_tape_carries_source_attributes():
    topology = TOPOLOGIES["mesh"]()
    source = build_traffic(topology, "collective", payload_mode="random",
                           flit_bits=32, seed=5)
    tape = record_trace(source, 10)
    assert tape.topology == topology
    # Recorded words are replayed, not drawn: links count them exactly
    # as under the source's "random" mode.
    assert tape.payload_mode == "trace"
    assert tape.payload_bits == 32
    # The recording's measured multicast share, not the declared one.
    multicast = sum(len(e.dests) > 1 for e in tape.entries)
    assert multicast > 0
    assert tape.multicast_fraction == multicast / tape.n_packets
    plain = record_trace(build_traffic(topology, "synthetic", seed=5), 10)
    assert plain.payload_mode == "constant"
    assert plain.multicast_fraction == 0.0


def test_replays_have_their_own_drain_state():
    source = build_traffic(TOPOLOGIES["mesh"](), injection_rate=0.5)
    tape = record_trace(source, 5)
    first = tape.replay()
    first.begin_drain()
    with pytest.raises(ConfigurationError):
        first.begin_drain()
    second = tape.replay()
    assert first.draining and not second.draining
    assert second.packets_for_cycle(0)
    with pytest.raises(ConfigurationError):
        second.end_drain()


@pytest.mark.parametrize(
    "fields, ber, protocol, check",
    [
        (dict(k=3, payload_mode="random"), 1e-3, "e2e",
         lambda p: p.packet_retries > 0),
        (dict(k=3, payload_mode="random"), 5e-2, "reroute",
         lambda p: p.links_disabled > 0 and p.undeliverable_packets > 0),
        (dict(k=3, workload="collective", engine="reference"), 1e-3, "e2e",
         lambda p: p.packet_retries > 0),
        (dict(topology="chiplet", k=2, chiplets_x=2, chiplets_y=2,
              workload="bursty", payload_mode="random"), 1e-3, "crc",
         lambda p: p.retransmissions > 0),
    ],
    ids=[
        "e2e", "reroute-disabled-links", "collective-reference", "chiplet-bursty"
    ],
)
def test_campaign_point_from_tape_equals_live(
    monkeypatch, fields, ber, protocol, check
):
    config = FaultCampaignConfig(warmup=30, measure=150, bers=(ber,), seed=3,
                                 **fields)
    monkeypatch.setattr(campaign, "_tapes", {})
    taped = campaign._evaluate_point((config, ber, protocol))
    assert check(taped)
    # The same point with a fresh live generator in place of the tape.
    monkeypatch.setattr(
        campaign,
        "_campaign_tape",
        lambda cfg: SimpleNamespace(
            replay=lambda: campaign._build_campaign_traffic(
                cfg, cfg.build_topology()
            )
        ),
    )
    live = campaign._evaluate_point((config, ber, protocol))
    assert asdict(taped) == asdict(live)


SMALL = FaultCampaignConfig(
    k=3, warmup=30, measure=150, bers=(1e-4, 1e-3, 1e-2),
    payload_mode="random", seed=21,
)


def test_serial_campaign_builds_traffic_once(monkeypatch):
    calls = []
    original = campaign.build_traffic

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return original(*args, **kwargs)

    monkeypatch.setattr(campaign, "_tapes", {})
    monkeypatch.setattr(campaign, "build_traffic", counting)
    result = run_fault_campaign(SMALL)
    assert len(result.points) == 12
    assert len(calls) == 1
    run_fault_campaign(SMALL)
    assert len(calls) == 1  # the second run replays the memoised tape


def test_tape_memo_is_bounded_and_keyed_by_config(monkeypatch):
    monkeypatch.setattr(campaign, "_tapes", {})
    configs = [
        FaultCampaignConfig(k=2, warmup=5, measure=10, seed=s) for s in range(6)
    ]
    tapes = [campaign._campaign_tape(c) for c in configs]
    assert len(campaign._tapes) == campaign._TAPE_MEMO_SIZE
    assert list(campaign._tapes) == configs[-campaign._TAPE_MEMO_SIZE:]
    assert campaign._campaign_tape(configs[-1]) is tapes[-1]
    assert len({id(t) for t in tapes}) == len(tapes)  # one per seed


def test_trace_campaign_parses_its_file_once(tmp_path, monkeypatch):
    """Config validation, config hashing and every point of a trace
    campaign share one parse and one validation of the file."""
    source = build_traffic(build_topology("mesh", 3), "bursty",
                           injection_rate=0.1, payload_mode="random", seed=2)
    path = tmp_path / "campaign.json"
    record_trace(source, 60).save(path)
    parses, validations = [], []
    load_any = TraceTraffic.load_any.__func__
    post_init = TraceTraffic.__post_init__

    def counting_load_any(cls, *args, **kwargs):
        parses.append(args)
        return load_any(cls, *args, **kwargs)

    def counting_post_init(self, *args):
        validations.append(self)
        post_init(self, *args)

    monkeypatch.setattr(TraceTraffic, "load_any",
                        classmethod(counting_load_any))
    monkeypatch.setattr(TraceTraffic, "__post_init__", counting_post_init)
    config = FaultCampaignConfig(
        k=3, workload="trace", trace_path=str(path), warmup=20, measure=40,
        bers=(1e-4, 1e-3), seed=4,
    )
    result = run_fault_campaign(config)
    assert len(result.points) == 8
    assert len(parses) == 1
    assert len(validations) == 1


def test_edited_trace_file_is_parsed_again(tmp_path):
    topology = build_topology("mesh", 3)
    path = tmp_path / "t.json"
    record_trace(build_traffic(topology, seed=1), 30).save(path)
    first = noc_trace.cached_trace(path)
    assert noc_trace.cached_trace(path) is first
    record_trace(build_traffic(topology, seed=2, injection_rate=0.3),
                 30).save(path)
    second = noc_trace.cached_trace(path)
    assert second is not first
    assert second.content_hash() == noc_trace.trace_file_hash(path)
    assert second.content_hash() != first.content_hash()


def test_parallel_and_service_results_equal_serial(monkeypatch):
    serial = run_fault_campaign(SMALL, n_jobs=1)
    assert run_fault_campaign(SMALL, n_jobs=2).points == serial.points
    monkeypatch.setattr(campaign, "_tapes", {})
    adapter = get_adapter("fault")
    config = adapter.canonical_config(asdict(SMALL))
    payloads = {
        task.key: adapter.run_task(config, task.spec)
        for task in adapter.expand(config)
    }
    assert adapter.merge(config, payloads).points == serial.points
