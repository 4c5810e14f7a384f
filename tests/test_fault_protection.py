"""Protection protocols: end-to-end retry, adaptive reroute, and the
livelock detector that backstops them."""

from __future__ import annotations

import math

import pytest

from repro.errors import LivelockError, ProtocolError
from repro.fault import (
    FaultCampaignConfig,
    FaultLayer,
    NoFaults,
    UniformBer,
    run_fault_campaign,
)
from repro.fault.models import DeadLinks
from repro.fault.protection import ProtectionConfig, TransferRecord
from repro.fault.reroute import AdaptiveRoutingTable
from repro.noc import MeshTopology, NocSimulator, Packet, Port
from repro.noc.routing import xy_route


class TestProtectionConfig:
    def test_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ProtectionConfig(protocol="parity")
        with pytest.raises(ConfigurationError):
            ProtectionConfig(max_link_retries=0)
        with pytest.raises(ConfigurationError):
            ProtectionConfig(backoff_factor=0.5)

    def test_link_level(self):
        assert ProtectionConfig(protocol="crc").link_level
        assert ProtectionConfig(protocol="reroute").link_level
        assert not ProtectionConfig(protocol="e2e").link_level
        assert not ProtectionConfig(protocol="none").link_level


class TestEndToEnd:
    def test_recovers_over_garbage_dead_link(self):
        """A permanently-garbling wire: e2e retries until packets land
        clean (XY keeps sending some transfers across it, so retries
        must fire) and failed transfers stay bounded."""
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        layer = FaultLayer(
            DeadLinks(victims=("1,1->1,2",), fail_cycle=0), "e2e", seed=2
        ).attach(sim)
        stats = sim.run(warmup=40, measure=250, drain_limit=60_000)
        assert layer.stats.packet_retries > 0
        assert layer.stats.completed_transfers > 0
        # Completed transfers produced records with sane latencies.
        for record in layer.stats.transfer_records:
            assert isinstance(record, TransferRecord)
            assert record.completed >= record.first_inject
        # e2e delivers clean copies eventually; corrupted deliveries are
        # the detected-and-retried attempts, not the final outcome.
        assert layer.stats.completed_transfers >= stats.clean_delivered_count

    def test_short_timeout_produces_duplicates_that_are_deduped(self):
        """With a timeout far below the real round trip and zero errors,
        the source re-sends packets that were never lost; the tracker
        must dedup the extra deliveries, and every transfer still
        completes exactly once."""
        protection = ProtectionConfig(
            protocol="e2e", timeout_cycles=4, max_packet_retries=8
        )
        sim = NocSimulator(2, injection_rate=0.05, seed=6)
        layer = FaultLayer(UniformBer(0.0), protection, seed=1).attach(sim)
        sim.run(warmup=30, measure=150, drain_limit=60_000)
        assert layer.stats.duplicate_deliveries > 0
        assert layer.stats.packet_retries > 0
        assert layer.stats.failed_transfers == 0
        assert layer.stats.completed_transfers == len(
            layer.stats.transfer_records
        )

    def test_retry_exhaustion_fails_transfer(self):
        """Severed wire in drop mode: transfers that must cross it burn
        all retries and are declared failed rather than retried forever."""
        sim = NocSimulator(2, injection_rate=0.05, seed=3)
        protection = ProtectionConfig(
            protocol="e2e", max_packet_retries=2, timeout_cycles=40
        )
        layer = FaultLayer(
            DeadLinks(victims=("0,0->0,1",), fail_cycle=0, mode="drop"),
            protection,
            seed=1,
        ).attach(sim)
        sim.run(warmup=30, measure=150, drain_limit=60_000)
        assert layer.stats.failed_transfers > 0
        for record in layer.stats.transfer_records:
            assert record.retries <= protection.max_packet_retries

    def test_transfer_ids_are_held_in_increasing_order(self):
        """``begin_cycle`` walks outstanding transfers in dict order; that
        is id order because ids are assigned increasing and never
        re-inserted.  Check it at every cycle of a run with retries,
        completions and failures all mixed in."""
        protection = ProtectionConfig(protocol="e2e", max_packet_retries=2)
        sim = NocSimulator(3, injection_rate=0.08, seed=4)
        layer = FaultLayer(
            DeadLinks(victims=("1,1->1,2",), fail_cycle=0), protection, seed=2
        ).attach(sim)
        tracker = layer.tracker
        seen = []
        begin_cycle = tracker.begin_cycle

        def checked(cycle):
            tids = list(tracker._transfers)
            assert tids == sorted(tids)
            seen.append(len(tids))
            begin_cycle(cycle)

        tracker.begin_cycle = checked
        sim.run(warmup=30, measure=200, drain_limit=60_000)
        assert layer.stats.packet_retries > 0
        assert layer.stats.failed_transfers > 0
        assert max(seen) > 1

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            dict(timeout_cycles=5, backoff_factor=1.5, max_backoff_scale=3.0),
            dict(backoff_factor=1.0, max_packet_retries=3),
            dict(max_packet_retries=2000),
        ],
    )
    def test_timeout_table_matches_backoff_formula(self, fields):
        protection = ProtectionConfig(protocol="e2e", **fields)
        sim = NocSimulator(3, seed=4)
        tracker = FaultLayer(NoFaults(), protection).attach(sim).tracker
        assert len(tracker._timeouts) == protection.max_packet_retries + 1
        for retries in range(min(protection.max_packet_retries, 40) + 1):
            scale = min(
                protection.backoff_factor**retries, protection.max_backoff_scale
            )
            expected = int(math.ceil(tracker.base_timeout * scale))
            assert tracker._timeouts[retries] == expected


class TestAdaptiveRoutingTable:
    def test_intact_mesh_is_exactly_xy(self):
        topology = MeshTopology(4)
        table = AdaptiveRoutingTable(topology)
        for src in topology.nodes():
            for dest in topology.nodes():
                if src == dest:
                    continue
                assert table.next_hop(src, dest) == xy_route(src, dest)

    def test_disable_finds_detour(self):
        topology = MeshTopology(3)
        table = AdaptiveRoutingTable(topology)
        # XY from (0,0) to (2,0) goes EAST through (1,0).
        assert table.next_hop((0, 0), (2, 0)) == Port.EAST
        table.disable((1, 0), Port.EAST)
        assert ((1, 0), Port.EAST) in table.disabled_links
        # Still reachable, but (1,0) itself must now detour.
        assert table.reachable((0, 0), (2, 0))
        assert table.next_hop((1, 0), (2, 0)) != Port.EAST

    def test_isolated_node_unreachable(self):
        topology = MeshTopology(3)
        table = AdaptiveRoutingTable(topology)
        # Sever both links INTO the corner (0,0).
        table.disable((0, 1), Port.SOUTH if xy_route((0, 1), (0, 0)) == Port.SOUTH
                      else xy_route((0, 1), (0, 0)))
        table.disable((1, 0), xy_route((1, 0), (0, 0)))
        assert not table.reachable((2, 2), (0, 0))
        assert table.next_hop((2, 2), (0, 0)) is None
        # Traffic FROM the corner still routes out.
        assert table.reachable((0, 0), (2, 2))

    def test_disable_is_idempotent(self):
        table = AdaptiveRoutingTable(MeshTopology(3))
        port = xy_route((0, 0), (1, 0))
        table.disable((0, 0), port)
        table.disable((0, 0), port)
        assert len(table.disabled_links) == 1


class TestReroute:
    def test_dead_link_gets_disabled_and_routed_around(self):
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        layer = FaultLayer(
            DeadLinks(victims=("1,1->1,2",), fail_cycle=50), "reroute", seed=2
        ).attach(sim)
        stats = sim.run(warmup=40, measure=300, drain_limit=60_000)
        assert layer.stats.links_disabled == 1
        assert layer.table is not None
        assert ((1, 1), Port.NORTH) in layer.table.disabled_links or (
            (1, 1), Port.SOUTH
        ) in layer.table.disabled_links or (
            (1, 1), Port.EAST
        ) in layer.table.disabled_links or (
            (1, 1), Port.WEST
        ) in layer.table.disabled_links
        # After the disable, traffic keeps being delivered cleanly.
        assert stats.delivered_count > 0
        assert layer.stats.crc_giveups >= layer.protection.disable_threshold

    def test_partitioned_destination_is_counted_discard(self):
        """Sever both wires into corner (0,0): flits bound there become
        undeliverable (escape hatch), the network still drains."""
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        layer = FaultLayer(
            DeadLinks(
                victims=("0,1->0,0", "1,0->0,0"), fail_cycle=0, mode="drop"
            ),
            "reroute",
            seed=2,
        ).attach(sim)
        stats = sim.run(warmup=40, measure=300, drain_limit=60_000)
        assert layer.stats.links_disabled == 2
        assert layer.stats.undeliverable_packets > 0
        # Everyone else still gets served.
        assert stats.delivered_count > 0

    def test_next_hop_back_out_the_input_port_is_counted_discard(self):
        """A flit that crossed (0,1)->(1,1) toward (1,0) just before the
        link (1,1)->(1,0) died finds its new shortest path behind it.
        The crossbar has no u-turn, so the route is the LOCAL discard."""
        topology = MeshTopology(2)
        table = AdaptiveRoutingTable(topology)
        table.disable((1, 1), xy_route((1, 1), (1, 0)))
        back = table.next_hop((1, 1), (1, 0))
        assert topology.neighbor((1, 1), back) == (0, 1)
        flit = Packet(
            src=(0, 1), dests=frozenset({(1, 0)}), size_flits=1, inject_cycle=0
        ).flits()[0]
        assert table.partition(topology, (1, 1), flit, back) == {
            Port.LOCAL: flit.dests
        }
        # Injected at (1,1) itself, the same detour is fine.
        assert table.partition(topology, (1, 1), flit, Port.LOCAL) == {
            back: flit.dests
        }

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_small_mesh_reroute_campaign_survives_u_turns(self, engine):
        """Regression: on a 2x2 mesh at BER 5e-2 a disabled link strands
        a flit whose only way on is back the way it came; both engines
        used to raise ProtocolError (u-turn through the crossbar)."""
        config = FaultCampaignConfig(
            k=2, bers=(1e-4, 1e-3, 1e-2, 5e-2), warmup=20, measure=80,
            seed=8, engine=engine,
        )
        result = run_fault_campaign(config)
        assert not result.failures
        point = result.point(5e-2, "reroute")
        assert point.links_disabled > 0
        assert point.undeliverable_packets > 0

    def test_small_mesh_reroute_campaign_engines_agree(self):
        results = [
            run_fault_campaign(
                FaultCampaignConfig(
                    k=2, bers=(5e-2,), protocols=("reroute",), warmup=20,
                    measure=80, seed=8, engine=engine,
                )
            )
            for engine in ("fast", "reference")
        ]
        assert results[0].points == results[1].points


class TestLivelockDetection:
    def test_retransmission_storm_raises_livelock_error(self):
        """CRC with an effectively unbounded retry budget over a wire
        that is guaranteed faulty: retries stretch without bound and the
        drain can never finish — the detector must convert that into a
        loud LivelockError naming the busiest link."""
        sim = NocSimulator(3, injection_rate=0.06, seed=4)
        protection = ProtectionConfig(protocol="crc", max_link_retries=100_000)
        FaultLayer(
            DeadLinks(victims=("1,1->1,2",), fail_cycle=0, mode="drop"),
            protection,
            seed=2,
        ).attach(sim)
        with pytest.raises(LivelockError) as excinfo:
            sim.run(warmup=40, measure=200, drain_limit=3_000)
        message = str(excinfo.value)
        assert "1,1->1,2" in message
        assert "cycle" in message

    def test_livelock_error_is_a_protocol_error(self):
        assert issubclass(LivelockError, ProtocolError)

    def test_stalled_nic_raises_no_forward_progress(self):
        """Wedge the network by hand: exhaust every VC on a NIC's output
        and queue a packet behind them. Nothing is in flight and nothing
        can move — the stall detector must fire rather than spin to the
        drain limit."""
        sim = NocSimulator(2, injection_rate=0.0, seed=1)
        nic = sim.nics[(0, 0)]
        for vc in range(sim.config.n_vcs):
            nic.out.acquire(vc, owner=(Port.LOCAL, 10_000 + vc))
        packet = Packet(
            src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1, inject_cycle=0
        )
        nic.queue.append(packet)
        with pytest.raises(LivelockError) as excinfo:
            sim.run(warmup=10, measure=20, drain_limit=50_000, stall_window=200)
        assert "no forward progress" in str(excinfo.value)

    def test_clean_run_never_trips_detector(self):
        sim = NocSimulator(3, injection_rate=0.08, seed=5)
        FaultLayer(NoFaults(), "none").attach(sim)
        stats = sim.run(warmup=50, measure=300, stall_window=100)
        assert stats.delivered_count > 0
