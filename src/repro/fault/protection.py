"""Protection protocols for unreliable links.

Three schemes are selectable per run (plus ``"none"``):

``crc``
    Link-level detection + retransmission.  Each hop appends a CRC; on a
    detected error the receiver nacks and the sender retransmits, costing
    one link round-trip plus a turnaround per attempt.  Modeled inside
    :class:`repro.fault.injector.FaultChannel` as a retry loop whose
    failed attempts stretch the flit's arrival time (the wire serializes,
    so in-order delivery is preserved).  After ``max_link_retries``
    consecutive failures the hop gives up and forwards the corrupted flit
    (counted as a CRC give-up).

``e2e``
    End-to-end packet retry.  The source NIC keeps a retry buffer per
    outstanding transfer; destinations ack clean deliveries out-of-band
    (acks are priced by hop count in the energy model but do not contend
    for datapath bandwidth).  A transfer whose ack has not arrived within
    the timeout is reinjected with exponential backoff; after
    ``max_packet_retries`` the transfer is abandoned (counted as failed).
    This is the :class:`EndToEndTracker` below.

``reroute``
    ``crc`` plus link-disable: a link that gives up
    ``disable_threshold`` consecutive times is declared dead, removed
    from the routing graph, and traffic is rerouted around it via
    :class:`repro.fault.reroute.AdaptiveRoutingTable`.

All knobs live in the frozen :class:`ProtectionConfig` so a campaign
point is fully described by (fault model, protection config, seed).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.config import check_fields, checked
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fault.injector import FaultStats

#: Selectable protection schemes, in increasing implementation cost.
PROTOCOLS: tuple[str, ...] = ("none", "crc", "e2e", "reroute")


@dataclass(frozen=True)
class ProtectionConfig:
    """Knobs for one protection scheme (frozen: hashable, picklable)."""

    protocol: str = checked("none", choices=PROTOCOLS)
    # --- link-level (crc / reroute) ---
    #: Retransmission attempts per hop before forwarding corrupted data.
    max_link_retries: int = checked(16, interval="[1, inf)")
    #: Extra cycles per nack beyond the 2x link-latency round trip.
    nack_turnaround: int = checked(1, interval="[0, inf)")
    #: Consecutive per-hop give-ups before reroute disables the link.
    disable_threshold: int = checked(4, interval="[1, inf)")
    # --- end-to-end (e2e) ---
    #: Reinjections per transfer before declaring it failed.
    max_packet_retries: int = checked(8, interval="[0, inf)")
    #: Fixed ack processing overhead on top of the hop-count flight time.
    ack_overhead_cycles: int = 4
    #: Base retry timeout; None derives one from mesh diameter at attach.
    timeout_cycles: int | None = checked(None, interval="[1, inf)")
    #: Timeout multiplier per successive retry (exponential backoff).
    backoff_factor: float = checked(2.0, interval="[1, inf)")
    #: Cap on the backoff multiplier, as a multiple of the base timeout.
    max_backoff_scale: float = 8.0

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def link_level(self) -> bool:
        """True when hops run CRC + retransmission."""
        return self.protocol in ("crc", "reroute")


@dataclass(frozen=True)
class TransferRecord:
    """One completed end-to-end transfer."""

    src: NodeId
    dests: frozenset[NodeId]
    first_inject: int
    completed: int
    retries: int

    @property
    def latency(self) -> int:
        return self.completed - self.first_inject


@dataclass
class _Transfer:
    """One logical end-to-end transfer (survives packet reinjection)."""

    src: NodeId
    dests: frozenset[NodeId]
    size_flits: int
    routing: str
    first_inject: int
    last_send: int
    pending: set[NodeId]
    retries: int = 0
    last_delivery: int = 0


class EndToEndTracker:
    """Source-side retry buffers + out-of-band ack plumbing for e2e.

    The tracker observes every packet offered to a NIC and every clean
    tail delivery.  Acks fly back out-of-band with a latency proportional
    to the hop distance; expired transfers are reinjected through the
    ``reinject`` callback (wired to ``Nic.offer`` by the fault layer).
    Duplicate deliveries — a retry racing its own late original — are
    deduplicated here and counted.
    """

    def __init__(
        self,
        config: ProtectionConfig,
        topology: MeshTopology,
        link_latency: int,
        stats: "FaultStats",
        reinject: Callable[[Packet], None],
    ) -> None:
        self.config = config
        self.topology = topology
        self.link_latency = link_latency
        self.stats = stats
        self.reinject = reinject
        # Per-hop flight time for acks: wire latency + one router cycle.
        self._hop_cycles = link_latency + 1
        if config.timeout_cycles is not None:
            self.base_timeout = config.timeout_cycles
        else:
            # Worst-case request path + ack path + queueing slack.
            diameter = topology.diameter
            self.base_timeout = 4 * diameter * self._hop_cycles + 32
        #: Retry timeout by retry count: exponential backoff, capped.
        #: Powers stop once the cap is reached, so a large retry budget
        #: never overflows the float power.
        timeouts = []
        scale = None
        for retries in range(config.max_packet_retries + 1):
            if scale != config.max_backoff_scale:
                scale = min(
                    config.backoff_factor**retries, config.max_backoff_scale
                )
            timeouts.append(int(math.ceil(self.base_timeout * scale)))
        self._timeouts = tuple(timeouts)
        self._transfers: dict[int, _Transfer] = {}
        self._transfer_of_packet: dict[int, int] = {}
        self._next_tid = 0
        #: (due_cycle, seq, tid, dest, delivery_cycle) min-heap.
        self._acks: list[tuple[int, int, int, NodeId, int]] = []
        #: (retry deadline, tid) min-heap, one live entry per transfer
        #: still awaiting a delivery.  An entry whose transfer is gone
        #: or fully delivered is stale and dropped when it surfaces
        #: (``pending`` never grows back).
        self._deadlines: list[tuple[int, int]] = []
        self._ack_seq = 0
        #: Bumps whenever the tracker acts; feeds the livelock signature.
        self.events = 0
        #: Ack path lengths, (dest, src) -> hops.
        self._hops: dict[tuple[NodeId, NodeId], int] = {}

    # --- hooks ------------------------------------------------------------------------

    def on_offer(self, packet: Packet, cycle: int) -> None:
        """Register a freshly generated packet as a new transfer."""
        if packet.packet_id in self._transfer_of_packet:
            return  # a reinjection we issued ourselves
        tid = self._next_tid
        self._next_tid += 1
        self._transfers[tid] = _Transfer(
            src=packet.src,
            dests=packet.dests,
            size_flits=packet.size_flits,
            routing=packet.routing,
            first_inject=cycle,
            last_send=cycle,
            pending=set(packet.dests),
        )
        self._transfer_of_packet[packet.packet_id] = tid
        heapq.heappush(self._deadlines, (cycle + self._timeouts[0], tid))

    def on_delivery(
        self, packet: Packet, dest: NodeId, cycle: int, corrupted: bool
    ) -> None:
        """A tail flit of ``packet`` ejected at ``dest``."""
        if corrupted:
            return  # receiver CRC rejects it; no ack, source will retry
        tid = self._transfer_of_packet.get(packet.packet_id)
        if tid is None:
            return
        transfer = self._transfers.get(tid)
        if transfer is None or dest not in transfer.pending:
            self.stats.duplicate_deliveries += 1
            return
        transfer.pending.discard(dest)
        transfer.last_delivery = cycle
        route = (dest, transfer.src)
        hops = self._hops.get(route)
        if hops is None:
            hops = self._hops[route] = self.topology.hop_distance(*route)
        due = cycle + hops * self._hop_cycles + self.config.ack_overhead_cycles
        heapq.heappush(self._acks, (due, self._ack_seq, tid, dest, cycle))
        self._ack_seq += 1
        self.stats.acks += 1
        self.stats.ack_hops += hops

    def on_unreachable(self, packet: Packet) -> None:
        """Give up on a transfer whose destination left the network."""
        tid = self._transfer_of_packet.get(packet.packet_id)
        if tid is not None and tid in self._transfers:
            del self._transfers[tid]
            self.stats.failed_transfers += 1
            self.events += 1

    def begin_cycle(self, cycle: int) -> None:
        """Process ack arrivals and retry timeouts due at ``cycle``."""
        while self._acks and self._acks[0][0] <= cycle:
            _due, _seq, tid, _dest, delivery_cycle = heapq.heappop(self._acks)
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
        # Due retries fire in transfer-id order: reinjected packets take
        # their NIC queue positions and packet ids in that order.
        deadlines = self._deadlines
        due = []
        while deadlines and deadlines[0][0] <= cycle:
            tid = heapq.heappop(deadlines)[1]
            transfer = self._transfers.get(tid)
            if transfer is not None and transfer.pending:
                due.append(tid)
        due.sort()
        timeouts = self._timeouts
        for tid in due:
            transfer = self._transfers[tid]
            self.events += 1
            if transfer.retries >= self.config.max_packet_retries:
                del self._transfers[tid]
                self.stats.failed_transfers += 1
                continue
            transfer.retries += 1
            transfer.last_send = cycle
            heapq.heappush(
                deadlines, (cycle + timeouts[transfer.retries], tid)
            )
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

    # --- drain bookkeeping ------------------------------------------------------------

    def busy(self) -> bool:
        return bool(self._transfers) or bool(self._acks)

    def next_event_cycle(self) -> int | None:
        """Earliest future cycle at which the tracker will act."""
        deadlines = self._deadlines
        while deadlines:
            transfer = self._transfers.get(deadlines[0][1])
            if transfer is not None and transfer.pending:
                break
            heapq.heappop(deadlines)  # stale
        candidates = []
        if self._acks:
            candidates.append(self._acks[0][0])
        if deadlines:
            candidates.append(deadlines[0][0])
        return min(candidates) if candidates else None


__all__ = ["EndToEndTracker", "PROTOCOLS", "ProtectionConfig", "TransferRecord"]
