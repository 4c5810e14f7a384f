"""The end-to-end tracker's retry deadlines live in a heap.

The heap must fire the same retries, in the same transfer-id order, and
report the same next event as the plain definition: a scan over every
outstanding transfer on every cycle, which ``_ScanTracker`` below keeps
as the oracle.
"""

from __future__ import annotations

import dataclasses
import heapq
import random

import pytest

from repro.fault.injector import FaultStats
from repro.fault.protection import (
    EndToEndTracker,
    ProtectionConfig,
    TransferRecord,
)
from repro.noc import MeshTopology, Packet


class _ScanTracker(EndToEndTracker):
    """The tracker with a scan over every outstanding transfer per cycle."""

    def begin_cycle(self, cycle: int) -> None:
        while self._acks and self._acks[0][0] <= cycle:
            _due, _seq, tid, _dest, _delivered = heapq.heappop(self._acks)
            self.events += 1
            transfer = self._transfers.get(tid)
            if transfer is None:
                continue
            if not transfer.pending:
                del self._transfers[tid]
                self.stats.completed_transfers += 1
                self.stats.transfer_records.append(
                    TransferRecord(
                        src=transfer.src,
                        dests=transfer.dests,
                        first_inject=transfer.first_inject,
                        completed=transfer.last_delivery,
                        retries=transfer.retries,
                    )
                )
        for tid, transfer in list(self._transfers.items()):
            if not transfer.pending:
                continue
            if cycle - transfer.last_send < self._timeouts[transfer.retries]:
                continue
            self.events += 1
            if transfer.retries >= self.config.max_packet_retries:
                del self._transfers[tid]
                self.stats.failed_transfers += 1
                continue
            transfer.retries += 1
            transfer.last_send = cycle
            self.stats.packet_retries += 1
            packet = Packet(
                src=transfer.src,
                dests=frozenset(transfer.pending),
                size_flits=transfer.size_flits,
                inject_cycle=cycle,
                routing=transfer.routing,
            )
            self._transfer_of_packet[packet.packet_id] = tid
            self.reinject(packet)

    def next_event_cycle(self) -> int | None:
        candidates = [self._acks[0][0]] if self._acks else []
        for transfer in self._transfers.values():
            if transfer.pending:
                candidates.append(
                    transfer.last_send + self._timeouts[transfer.retries]
                )
        return min(candidates) if candidates else None


def _drive(tracker_cls, seed: int, protection: ProtectionConfig):
    """Feed a tracker a random schedule of offers, deliveries (some
    corrupted, some duplicates) and unreachable packets; log what it
    does every cycle."""
    topology = MeshTopology(4)
    nodes = sorted(topology.nodes())
    stats = FaultStats()
    reinjected: list[Packet] = []
    tracker = tracker_cls(protection, topology, 1, stats, reinjected.append)
    rng = random.Random(seed)
    #: Packets the network currently carries, as (packet, tid).
    live: list[tuple[Packet, int]] = []
    log = []
    for cycle in range(600):
        log.append(("next", cycle, tracker.next_event_cycle()))
        tracker.begin_cycle(cycle)
        for packet in reinjected:
            tid = tracker._transfer_of_packet[packet.packet_id]
            log.append(("retry", cycle, tid, tuple(sorted(packet.dests))))
            live.append((packet, tid))
        reinjected.clear()
        if cycle < 400:
            for _ in range(rng.choice((0, 0, 1, 2, 3))):
                src, dst = rng.sample(nodes, 2)
                dests = {dst}
                if rng.random() < 0.2:
                    dests.add(rng.choice([n for n in nodes if n != src]))
                packet = Packet(
                    src=src, dests=frozenset(dests), size_flits=1,
                    inject_cycle=cycle,
                )
                tracker.on_offer(packet, cycle)
                live.append((packet, tracker._transfer_of_packet[packet.packet_id]))
        rng.shuffle(live)
        keep = []
        for packet, tid in live:
            roll = rng.random()
            if roll < 0.08:
                dest = rng.choice(sorted(packet.dests))
                tracker.on_delivery(packet, dest, cycle, rng.random() < 0.3)
            elif roll < 0.09:
                tracker.on_unreachable(packet)
            elif roll < 0.5:
                keep.append((packet, tid))  # still in flight
            # else: lost in the network
        live = keep
    return log, dataclasses.asdict(stats), tracker.events


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "protection",
    [
        ProtectionConfig(protocol="e2e", timeout_cycles=9, max_packet_retries=4),
        ProtectionConfig(protocol="e2e", timeout_cycles=3, backoff_factor=1.0),
        ProtectionConfig(protocol="e2e"),
    ],
)
def test_heap_fires_retries_like_the_scan(seed, protection):
    heap_log, heap_stats, heap_events = _drive(EndToEndTracker, seed, protection)
    scan_log, scan_stats, scan_events = _drive(_ScanTracker, seed, protection)
    assert any(entry[0] == "retry" for entry in heap_log)
    assert heap_log == scan_log
    assert heap_stats == scan_stats
    assert heap_events == scan_events


def test_retries_fire_in_transfer_id_order():
    """Transfers due in the same cycle are reinjected lowest id first,
    whatever order their deadlines were pushed in."""
    protection = ProtectionConfig(protocol="e2e", timeout_cycles=10)
    topology = MeshTopology(3)
    out: list[Packet] = []
    tracker = EndToEndTracker(protection, topology, 1, FaultStats(), out.append)
    packets = [
        Packet(src=(0, 0), dests=frozenset({(2, 2)}), size_flits=1, inject_cycle=c)
        for c in (5, 0, 5, 0)
    ]
    for packet in packets:
        tracker.on_offer(packet, packet.inject_cycle)
    tracker.begin_cycle(10)
    assert [tracker._transfer_of_packet[p.packet_id] for p in out] == [1, 3]
    tracker.begin_cycle(15)
    assert [tracker._transfer_of_packet[p.packet_id] for p in out[2:]] == [0, 2]
