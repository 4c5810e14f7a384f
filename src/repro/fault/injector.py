"""Fault injection: per-link channels and the cross-layer fault layer.

:class:`FaultChannel` sits on one :class:`repro.noc.link.Link` and
mediates every traversal: it draws error events from the link's fault
state, runs the link-level CRC/retransmission loop when that protection
is active, marks surviving corruption on the flit, and flags whole
packets for drop-absorption at the far end when the link is severed.
Arrival times are kept strictly monotone per link (the wire serializes),
so retransmission delays never reorder a worm.

:class:`FaultLayer` owns the channels, the protection machinery
(:class:`repro.fault.protection.EndToEndTracker`,
:class:`repro.fault.reroute.AdaptiveRoutingTable`), and the
:class:`FaultStats` ledger.  ``FaultLayer(model, protection,
seed).attach(sim)`` wires everything into an existing
:class:`repro.noc.NocSimulator`; a simulator without a layer runs the
exact code paths it always did.

Flow-control safety: a dropped flit is *not* vanished mid-wire — that
would leak the upstream credit and the downstream VC grant and wedge the
network.  Instead the channel lets it arrive and the simulator absorbs
it at the far end, returning the credit (and releasing the VC on tails)
just as a normal buffer-write's lifecycle eventually would.  Drops are
decided at head flits and held sticky for the whole packet, so worms are
dropped atomically.

Determinism: every channel draws from an RNG seeded by
``derived_seed(seed, "fault/errors/<link token>")``, and fault states
advance by cycle number — so per-link fault counts depend only on
(model, seed, traffic), never on worker count or host.  A link whose
flit error probability never changes (:class:`FixedRateChannel`) draws
the same stream in blocks and keeps only the indices of its faulty
draws; see ``docs/FAULTS.md``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.fault.models import FaultModel, LinkFaultState
from repro.fault.protection import EndToEndTracker, ProtectionConfig
from repro.fault.reroute import AdaptiveRoutingTable
from repro.noc.link import Link
from repro.noc.packet import Flit, Packet
from repro.noc.topology import NodeId, Port
from repro.runtime.seeds import derived_seed


@dataclass
class LinkFaultCounters:
    """Per-link fault ledger (the bitwise-reproducibility anchor)."""

    transmitted_flits: int = 0
    #: Raw faulty transmission attempts, including ones CRC repaired.
    faulty_attempts: int = 0
    #: Uncorrected corruptions that left this link on a flit.
    errors: int = 0
    #: Link-level retransmissions performed.
    retransmissions: int = 0
    #: Flits marked for drop-absorption at the far end.
    dropped_flits: int = 0
    #: Times the CRC retry loop hit its cap and forwarded corrupted data.
    giveups: int = 0
    #: Cycle the reroute monitor disabled this link (None = alive).
    disabled_at: int | None = None


@dataclass
class FaultStats:
    """Network-wide fault/protection ledger for one run."""

    raw_faults: int = 0
    flits_corrupted: int = 0
    flits_dropped: int = 0
    retransmissions: int = 0
    crc_giveups: int = 0
    links_disabled: int = 0
    #: Flits discarded because reroute found no alive path.
    undeliverable_flits: int = 0
    undeliverable_packets: int = 0
    # --- end-to-end protocol ---
    acks: int = 0
    ack_hops: int = 0
    packet_retries: int = 0
    completed_transfers: int = 0
    failed_transfers: int = 0
    duplicate_deliveries: int = 0
    #: One :class:`repro.fault.protection.TransferRecord` per completed
    #: end-to-end transfer.
    transfer_records: list = field(default_factory=list)
    per_link: dict[str, LinkFaultCounters] = field(default_factory=dict)

    def per_link_error_counts(self) -> dict[str, tuple[int, int]]:
        """token -> (faulty_attempts, attempts), sorted by token.

        ``attempts`` counts every traversal *including* link-level
        retransmissions — under CRC a flit can fail several times
        before crossing, so faulty attempts may exceed delivered flits
        but never the attempt count.  This is the (errors, trials)
        pairing campaigns feed to
        :func:`repro.mc.ber.ber_upper_bound_many` and the quantity the
        jobs-parity acceptance test compares bitwise.
        """
        return {
            token: (
                c.faulty_attempts,
                c.transmitted_flits + c.retransmissions,
            )
            for token, c in sorted(self.per_link.items())
        }


@functools.lru_cache(maxsize=16)
def _channel_seeds(seed: int, tokens: tuple[str, ...]) -> tuple[int, ...]:
    """Per-link error-stream seeds; every protocol at a BER shares them."""
    return tuple(derived_seed(seed, f"fault/errors/{token}") for token in tokens)


#: Uniforms per numpy draw of a :class:`FixedRateChannel`.  A link of a
#: campaign point draws 40-240 times, so the first block usually covers
#: the whole run.
_DRAW_BLOCK = 256


def _faults_below(uniforms: np.ndarray, p: float, start: int) -> list[int]:
    """Absolute indices of the ``uniforms`` (drawn from ``start`` on)
    below ``p``, ascending."""
    return (np.flatnonzero(uniforms < p) + start).tolist()


@functools.lru_cache(maxsize=1024)
def _first_block_faults(seed: int, p: float) -> tuple[int, ...]:
    """The faulty draw indices of stream ``seed``'s first block at ``p``.

    Every protocol at a BER replays the same per-link streams, so the
    first block is drawn once per (seed, p); a channel builds its
    generator only when it draws past this block.
    """
    rng = np.random.default_rng(seed)
    return tuple(_faults_below(rng.random(_DRAW_BLOCK), p, 0))


class FaultChannel:
    """Fault behavior of one link: errors, retries, drops, disable."""

    def __init__(
        self,
        layer: "FaultLayer",
        link: Link,
        out_port: Port,
        state: LinkFaultState,
        rng: np.random.Generator | None,
        protection: ProtectionConfig,
        flit_bits: int,
    ) -> None:
        self.layer = layer
        self.link = link
        #: Output port of the source router this link hangs off.
        self.out_port = out_port
        self.state = state
        #: The error stream (a FixedRateChannel builds it on demand).
        self.rng = rng
        self.protection = protection
        self.flit_bits = flit_bits
        self.counters = LinkFaultCounters()
        #: Set by the reroute monitor: routing avoids this link, and the
        #: CRC retry loop stops burning energy on it.
        self.disabled = False
        self._consecutive_giveups = 0
        self._last_arrival = -1
        #: Packet ids mid-drop (head decided, tail not yet seen).
        self._dropping: set[int] = set()
        #: id() of in-flight flits the far end must absorb (empty on
        #: every link that never drops, so engines test it before
        #: calling :meth:`absorbs`).
        self.absorbing: set[int] = set()

    # --- the wire ---------------------------------------------------------------------

    def transmit(self, link: Link, flit: Flit, cycle: int) -> tuple[int, Flit]:
        """Carry ``flit``; return (arrival cycle, flit as delivered)."""
        counters = self.counters
        counters.transmitted_flits += 1
        pid = flit.packet.packet_id

        # Whole-packet drops (severed wire without link-level protection;
        # with CRC the severed wire is detected per-flit and handled as a
        # guaranteed-faulty transmission below instead).
        if pid in self._dropping:
            if flit.is_tail:
                self._dropping.discard(pid)
            return self._drop(flit, cycle + link.latency)
        if (
            flit.is_head
            and not self.protection.link_level
            and self.state.drops(cycle)
        ):
            if not flit.is_tail:
                self._dropping.add(pid)
            return self._drop(flit, cycle + link.latency)

        stats = self.layer.stats
        delay = 0
        corrupted = False
        if self.protection.link_level and not self.disabled:
            # CRC + ack/nack: retry until clean or the per-hop cap; each
            # failed attempt costs a nack round trip + retransmission.
            failures = 0
            while failures < self.protection.max_link_retries:
                if not self._attempt_faulty(cycle):
                    break
                failures += 1
            gave_up = failures >= self.protection.max_link_retries
            if failures:
                counters.faulty_attempts += failures
                stats.raw_faults += failures
                retries = failures - 1 if gave_up else failures
                counters.retransmissions += retries
                stats.retransmissions += retries
                delay = retries * self._retry_rtt(link)
            if gave_up:
                corrupted = True
                counters.giveups += 1
                stats.crc_giveups += 1
                self._consecutive_giveups += 1
                self._maybe_disable(cycle)
            else:
                self._consecutive_giveups = 0
        else:
            if self._attempt_faulty(cycle):
                counters.faulty_attempts += 1
                stats.raw_faults += 1
                corrupted = True

        if corrupted:
            flit.corrupted = True
            counters.errors += 1
            stats.flits_corrupted += 1
            if len(flit.packet.dests) == 1:
                self.layer.mark_corrupted(pid)

        arrival = cycle + link.latency + delay
        if arrival <= self._last_arrival:
            arrival = self._last_arrival + 1  # the wire serializes
        self._last_arrival = arrival
        return arrival, flit

    def absorbs(self, flit: Flit) -> bool:
        """True when the far end must absorb (credit + discard) ``flit``."""
        key = id(flit)
        if key in self.absorbing:
            self.absorbing.discard(key)
            return True
        return False

    # --- helpers ----------------------------------------------------------------------

    def _attempt_faulty(self, cycle: int) -> bool:
        """Draw one transmission attempt from the link's fault state."""
        if self.protection.link_level and self.state.drops(cycle):
            # A severed wire under CRC: every attempt fails detection.
            return True
        p = self.state.flit_error_probability(cycle, self.flit_bits)
        return p > 0.0 and float(self.rng.random()) < p

    def _retry_rtt(self, link: Link) -> int:
        return 2 * link.latency + self.protection.nack_turnaround

    def _drop(self, flit: Flit, arrival: int) -> tuple[int, Flit]:
        self.counters.dropped_flits += 1
        self.layer.stats.flits_dropped += 1
        if arrival <= self._last_arrival:
            arrival = self._last_arrival + 1
        self._last_arrival = arrival
        self.absorbing.add(id(flit))
        return arrival, flit

    def _maybe_disable(self, cycle: int) -> None:
        if (
            self.protection.protocol != "reroute"
            or self.disabled
            or self._consecutive_giveups < self.protection.disable_threshold
        ):
            return
        self.disabled = True
        self.counters.disabled_at = cycle
        self.layer.stats.links_disabled += 1
        self.layer.on_link_disabled(self)


class FixedRateChannel(FaultChannel):
    """A channel whose flit error probability ``p`` never changes.

    Built for states with a fixed probability and no drops (the
    constant-BER state behind :class:`repro.fault.models.UniformBer`).
    It consumes the same uniform stream as :class:`FaultChannel`, one
    draw per attempt while ``p > 0`` and none at ``p == 0``, but draws
    it in numpy blocks of ``_DRAW_BLOCK`` and keeps only the absolute
    indices of the draws below ``p``.  ``Generator.random(n)`` returns
    the same doubles as ``n`` scalar ``random()`` calls, so attempt
    ``i`` is faulty exactly when the scalar draw ``i`` would be.  The
    first block comes from a per-(seed, p) memo; the generator is built
    (and advanced past that block) only for a draw beyond it.

    A clean first attempt on a live link (nearly every traversal) takes
    a lean path: one index compare, no drop or retry bookkeeping (a
    fixed-rate state never drops).  A faulty draw, the end of a block or
    a disabled link runs the general :meth:`FaultChannel.transmit`,
    whose attempts draw by index too.
    """

    def __init__(
        self,
        layer: "FaultLayer",
        link: Link,
        out_port: Port,
        state: LinkFaultState,
        seed: int,
        protection: ProtectionConfig,
        flit_bits: int,
    ) -> None:
        p = state.fixed_flit_error_probability(flit_bits)
        super().__init__(
            layer, link, out_port, state, None, protection, flit_bits
        )
        self.seed = seed
        self.p = p
        #: Attempts drawn so far (the index of the next draw).
        self._draws = 0
        #: End of the drawn blocks (draws generated so far).
        self._drawn = 0
        #: Faulty draw indices not yet reached, descending.
        self._faults: list[int] = []
        #: The next draw index that needs attention: the next faulty one
        #: or the end of the drawn blocks; -1 at p == 0, where nothing
        #: is ever drawn.
        self._next = -1
        if p > 0.0:
            self._draw_block()

    def transmit(self, link: Link, flit: Flit, cycle: int) -> tuple[int, Flit]:
        """A clean attempt on a live link ends the hop at once; a faulty
        draw, the end of a block or a disabled link runs the general
        path."""
        i = self._draws
        if i == self._next or self.disabled:
            return FaultChannel.transmit(self, link, flit, cycle)
        self._draws = i + 1
        self.counters.transmitted_flits += 1
        self._consecutive_giveups = 0
        arrival = cycle + link.latency
        if arrival <= self._last_arrival:
            arrival = self._last_arrival + 1  # the wire serializes
        self._last_arrival = arrival
        return arrival, flit

    def _attempt_faulty(self, cycle: int) -> bool:
        i = self._draws
        self._draws = i + 1
        return i == self._next and self._reached(i)

    def _reached(self, i: int) -> bool:
        """Draw ``i == self._next``: is it faulty?  Draws the next block
        first when ``i`` is the end of the drawn ones."""
        if i == self._drawn:
            self._draw_block()
            if i != self._next:
                return False
        faults = self._faults
        faults.pop()
        self._next = faults[-1] if faults else self._drawn
        return True

    def _draw_block(self) -> None:
        start = self._drawn
        if start == 0:
            faults = _first_block_faults(self.seed, self.p)
        else:
            if self.rng is None:
                # Block 0 came from the memo: skip its draws.
                self.rng = np.random.default_rng(self.seed)
                self.rng.random(_DRAW_BLOCK)
            faults = _faults_below(
                self.rng.random(_DRAW_BLOCK), self.p, start
            )
        self._faults = list(reversed(faults))
        self._drawn = start + _DRAW_BLOCK
        self._next = self._faults[-1] if self._faults else self._drawn


class FaultLayer:
    """Attaches a fault model + protection scheme to a NocSimulator."""

    def __init__(
        self,
        model: FaultModel,
        protection: ProtectionConfig | str | None = None,
        seed: int = 0,
        flit_bits: int = 64,
    ) -> None:
        if protection is None:
            protection = ProtectionConfig()
        elif isinstance(protection, str):
            protection = ProtectionConfig(protocol=protection)
        if flit_bits < 1:
            raise ConfigurationError(f"flit_bits must be >= 1, got {flit_bits}")
        self.model = model
        self.protection = protection
        self.seed = seed
        self.flit_bits = flit_bits
        self.stats = FaultStats()
        self.channels: dict[str, FaultChannel] = {}
        self.table: AdaptiveRoutingTable | None = None
        self.tracker: EndToEndTracker | None = None
        self.sim = None
        self._corrupted_packets: set[int] = set()

    # --- wiring -----------------------------------------------------------------------

    def attach(self, sim) -> "FaultLayer":
        """Wire this layer into ``sim``; returns self for chaining."""
        if self.sim is not None:
            raise ConfigurationError("fault layer is already attached")
        if getattr(sim, "fault_layer", None) is not None:
            raise ConfigurationError("simulator already has a fault layer")
        if self.protection.protocol == "reroute" and sim.config.routing != "xy":
            raise ConfigurationError(
                "adaptive reroute requires routing='xy' (the alive-link "
                "table replaces dimension-order routing wholesale)"
            )
        self.sim = sim
        tokens = [link.token for link in sim.links]
        states = self.model.make_states(tokens, self.seed)
        # sim.links was built from directed_links() in the same order;
        # the out port rides along (chiplet routers carry a sixth one).
        directed = sim.topology.directed_links()
        seeds = _channel_seeds(self.seed, tuple(tokens))
        for link, token, (_src, out_port, _dst, _in_port), seed in zip(
            sim.links, tokens, directed, seeds, strict=True
        ):
            state = states[token]
            if state.fixed_flit_error_probability(self.flit_bits) is None:
                channel = FaultChannel(
                    layer=self,
                    link=link,
                    out_port=out_port,
                    state=state,
                    rng=np.random.default_rng(seed),
                    protection=self.protection,
                    flit_bits=self.flit_bits,
                )
            else:
                channel = FixedRateChannel(
                    layer=self,
                    link=link,
                    out_port=out_port,
                    state=state,
                    seed=seed,
                    protection=self.protection,
                    flit_bits=self.flit_bits,
                )
            link.channel = channel
            self.channels[token] = channel
            self.stats.per_link[token] = channel.counters
        for router in sim.routers.values():
            router.fault_layer = self
        if self.protection.protocol == "reroute":
            self.table = AdaptiveRoutingTable(sim.topology)
            for router in sim.routers.values():
                router.route_fn = self.table.partition
        if self.protection.protocol == "e2e":
            self.tracker = EndToEndTracker(
                self.protection,
                sim.topology,
                sim.config.link_latency,
                self.stats,
                self._reinject,
            )
        sim.fault_layer = self
        return self

    def detach(self) -> None:
        """Unwire this layer from its simulator after a finished run.

        Breaks every back-reference :meth:`attach` made (simulator,
        routers, links and the e2e tracker's ``reinject`` all point back
        here), so reference counting alone frees the simulator, the
        layer and every channel once the caller drops them; no cyclic
        garbage is left for the collector.  ``stats`` stays readable.
        """
        sim = self.sim
        if sim is None:
            return
        for link in sim.links:
            link.channel = None
        for router in sim.routers.values():
            router.fault_layer = None
            router.route_fn = None
        for channel in self.channels.values():
            channel.layer = None
        sim.fault_layer = None
        self.sim = None
        self.tracker = None

    def _reinject(self, packet: Packet) -> None:
        assert self.sim is not None
        self.sim.nics[packet.src].offer(packet)

    # --- simulator hooks --------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        if self.tracker is not None:
            self.tracker.begin_cycle(cycle)

    def on_offer(self, packet: Packet, cycle: int) -> None:
        if self.tracker is not None:
            self.tracker.on_offer(packet, cycle)

    def on_delivery(
        self, flit: Flit, node: NodeId, cycle: int, corrupted: bool
    ) -> None:
        if self.tracker is not None:
            self.tracker.on_delivery(flit.packet, node, cycle, corrupted)

    def on_undeliverable(self, flit: Flit, node: NodeId) -> None:
        self.stats.undeliverable_flits += 1
        if flit.is_head:
            self.stats.undeliverable_packets += 1
        if self.tracker is not None:
            self.tracker.on_unreachable(flit.packet)

    def mark_corrupted(self, packet_id: int) -> None:
        self._corrupted_packets.add(packet_id)

    def packet_corrupted(self, packet: Packet) -> bool:
        return packet.packet_id in self._corrupted_packets

    def on_link_disabled(self, channel: FaultChannel) -> None:
        if self.table is not None:
            self.table.disable(channel.link.src, channel.out_port)

    # --- drain bookkeeping ------------------------------------------------------------

    def busy(self) -> bool:
        """True while protocol state still demands simulation cycles."""
        return self.tracker is not None and self.tracker.busy()

    def next_event_cycle(self) -> int | None:
        """Earliest future cycle the layer will act on its own."""
        return None if self.tracker is None else self.tracker.next_event_cycle()

    def progress_token(self) -> tuple[int, ...]:
        """Monotone counters for the simulator's livelock signature."""
        s = self.stats
        events = self.tracker.events if self.tracker is not None else 0
        return (
            events,
            s.flits_dropped,
            s.links_disabled,
            s.undeliverable_flits,
            s.failed_transfers,
        )


__all__ = [
    "FaultChannel",
    "FaultLayer",
    "FaultStats",
    "FixedRateChannel",
    "LinkFaultCounters",
]
