"""The cycle-level mesh NoC simulator: wiring, NICs, and the main loop.

Per cycle, in order: link arrivals land, routers buffer-write (and apply
SRLR taps), traffic generates packets, NICs inject, routers run VC
allocation, then switch allocation + traversal.  Statistics windows
(warmup / measure / drain) follow standard NoC methodology: latency and
throughput only count packets injected during the measurement window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, LivelockError
from repro.noc.link import Link, LinkEnd
from repro.noc.packet import Flit, Packet
from repro.noc.router import NocConfig, Router
from repro.noc.stats import NocStats
from repro.noc.topology import MeshTopology, NodeId, Port, Topology
from repro.noc.traffic import SyntheticTraffic
from repro.noc.vc import OutputPort


class EngineFallbackWarning(RuntimeWarning):
    """A run silently downgraded to a slower-but-exact engine.

    Raised as a *warning*, not an error: the reference engine produces
    the same statistics, so results stay valid — but campaign authors
    sizing a run for the fast engine should hear about the slowdown.
    """


def engine_for_traffic(engine: str, multicast_fraction: float) -> str:
    """The engine a run on traffic with this multicast share uses.

    The fast engine is unicast-only: asked for ``"fast"`` with any
    multicast in the mix, a run falls back to the reference oracle.
    Callers that should be loud about it warn with
    :class:`EngineFallbackWarning`.
    """
    if engine == "fast" and multicast_fraction > 0.0:
        return "reference"
    return engine


@dataclass
class Nic:
    """Network interface: queues packets and injects flits via LOCAL.

    The NIC performs the upstream half of flow control for the router's
    LOCAL input port: it picks an idle VC per packet and respects
    credits, exactly like an upstream router's output side.
    """

    node: NodeId
    router: Router
    config: NocConfig
    stats: NocStats
    seed: int = 0
    queue: deque[Packet] = field(default_factory=deque)
    out: OutputPort = field(init=False)
    _pending: list[Flit] = field(default_factory=list)
    _vc: int | None = None
    _va_ptr: int = 0

    def __post_init__(self) -> None:
        self.out = OutputPort(self.config.n_vcs, self.config.vc_capacity)
        self.router.upstream[Port.LOCAL] = self.out
        # Only O1TURN draws (one coin per packet); other routings build
        # no generator.
        self._rng = (
            np.random.default_rng((self.seed, self.node[0], self.node[1]))
            if self.config.routing == "o1turn"
            else None
        )

    def offer(self, packet: Packet) -> None:
        if self.config.routing == "o1turn" and not packet.is_multicast:
            # O1TURN: flip a fair coin per packet between the two
            # dimension orders (multicast trees stay XY).
            packet.routing = "xy" if self._rng.random() < 0.5 else "yx"
        self.queue.append(packet)
        self.stats.injected_packets += 1

    def inject(self, cycle: int) -> None:
        """Send at most one flit into the router's LOCAL port."""
        if not self._pending:
            if not self.queue:
                return
            allowed = self.router.vc_class(self.queue[0].routing)
            free = [v for v in self.out.free_vcs() if v in allowed]
            if not free:
                return
            vc = free[self._va_ptr % len(free)]
            self._va_ptr += 1
            packet = self.queue.popleft()
            self._pending = packet.flits()
            self._vc = vc
            self.out.acquire(vc, (Port.LOCAL, vc))
        assert self._vc is not None
        if self.out.credits[self._vc] <= 0:
            return
        flit = self._pending.pop(0)
        self.out.consume_credit(self._vc)
        self.router.stage(flit, Port.LOCAL, self._vc)
        self.stats.injected_flits += 1
        if not self._pending:
            self._vc = None

    @property
    def backlog(self) -> int:
        return len(self.queue) + len(self._pending)


#: Engines selectable via ``NocSimulator(..., engine=...)``.
ENGINES = ("reference", "fast")


class NocSimulator:
    """A NoC under a synthetic traffic generator.

    The first argument is either an int ``k`` (a flat k x k mesh — the
    historical constructor, kept bit-identical) or any
    :class:`~repro.noc.topology.Topology` instance (concentrated mesh,
    torus, chiplet NoC/NoI, ...).

    ``engine`` selects the cycle-loop implementation: ``"reference"``
    (this class — the per-flit golden oracle) or ``"fast"`` (the
    struct-of-arrays batch engine in :mod:`repro.noc.fastsim`, which
    produces identical end-of-run statistics for identical seeds on
    unicast traffic).
    """

    #: Which cycle-loop implementation this instance runs.
    engine = "reference"

    def __new__(cls, *args, engine: str | None = None, **kwargs):
        engine = engine or "reference"
        if engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if engine == "fast" and cls is NocSimulator:
            # Deferred import: fastsim subclasses this class.
            from repro.noc.fastsim import FastNocSimulator

            return super().__new__(FastNocSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        k: int | Topology,
        config: NocConfig | None = None,
        traffic: SyntheticTraffic | None = None,
        injection_rate: float = 0.05,
        pattern: str = "uniform",
        seed: int = 7,
        *,
        engine: str = "reference",
    ) -> None:
        self.topology = MeshTopology(k) if isinstance(k, int) else k
        self.config = config or NocConfig()
        self.stats = NocStats()
        if self.config.routing == "o1turn" and self.topology.table_routed:
            raise ConfigurationError(
                "o1turn routing needs two dimension orders; the "
                f"{self.topology.kind} topology is table-routed (one "
                "deadlock-free table) — use routing='xy'"
            )
        self.traffic = traffic or SyntheticTraffic(
            self.topology, injection_rate, pattern, seed=seed
        )
        if self.traffic.topology != self.topology:
            raise ConfigurationError(
                "traffic generator built for a different topology"
            )

        self.routers: dict[NodeId, Router] = {
            node: Router(node, self.topology, self.config, self.stats)
            for node in self.topology.nodes()
        }
        self.links: list[Link] = []
        for src, port, dst, in_port in self.topology.directed_links():
            link = Link(
                src=src,
                dst=LinkEnd(node=dst, port=in_port),
                latency=self.config.link_latency,
                mm_scale=self.topology.link_scale(src, port),
            )
            self.links.append(link)
            self.routers[src].connect_output(
                port, link, self.config.n_vcs, self.config.vc_capacity
            )
            self.routers[dst].upstream[in_port] = self.routers[src].outputs[port]
        # Data-dependent link energy: when the traffic source carries (or
        # synthesizes) payload bits, every link counts the transitions
        # each traversal drives onto its wires.  "constant" leaves the
        # links on the legacy zero-overhead path.
        payload_mode = getattr(self.traffic, "payload_mode", "constant")
        if payload_mode != "constant":
            payload_bits = int(getattr(self.traffic, "payload_bits", 64))
            for link in self.links:
                link.payload_mode = payload_mode
                link.payload_bits = payload_bits
        self.nics: dict[NodeId, Nic] = {
            node: Nic(node, self.routers[node], self.config, self.stats, seed=seed)
            for node in self.topology.nodes()
        }
        self.cycle = 0
        #: Optional fault-injection layer (set by ``FaultLayer.attach``).
        #: None keeps every hook below inert — the fault-free fast path.
        self.fault_layer = None

    # --- main loop -----------------------------------------------------------------------

    def step(self) -> None:
        """Advance the network by one cycle."""
        cycle = self.cycle
        ordered_nodes = sorted(self.routers)

        if self.fault_layer is not None:
            self.fault_layer.begin_cycle(cycle)

        for link in self.links:
            for flit, vc in link.arrivals(cycle):
                if link.channel is not None and link.channel.absorbs(flit):
                    self._absorb(link, flit, vc)
                else:
                    self.routers[link.dst.node].stage(flit, link.dst.port, vc)

        for node in ordered_nodes:
            self.routers[node].accept(cycle)

        for packet in self.traffic.packets_for_cycle(cycle):
            self.nics[packet.src].offer(packet)
            if self.fault_layer is not None:
                self.fault_layer.on_offer(packet, cycle)

        for node in ordered_nodes:
            self.nics[node].inject(cycle)

        for node in ordered_nodes:
            self.routers[node].vc_allocate(cycle)

        for node in ordered_nodes:
            self.routers[node].switch_and_traverse(cycle)

        self.cycle += 1

    def run(
        self,
        warmup: int = 200,
        measure: int = 600,
        drain_limit: int | None = None,
        stall_window: int | None = None,
    ) -> NocStats:
        """Warm up, measure, then drain measured packets.

        ``drain_limit`` and ``stall_window`` default to the values in
        :class:`~repro.noc.router.NocConfig` (``config.drain_limit`` /
        ``config.stall_window``); passing them here overrides the config
        for this run only.

        Raises :class:`LivelockError` (a :class:`ProtocolError`) if the
        network fails to drain within ``drain_limit`` cycles after the
        measurement window, or earlier if no component makes forward
        progress for ``stall_window`` consecutive drain cycles with no
        event scheduled (a credit deadlock, a retransmission storm, or a
        disabled-link partition — the diagnostic says which components
        are wedged).  With XY routing, correct flow control, and no fault
        layer, either indicates a protocol bug or genuine
        saturation-level livelock, both worth failing loudly on.
        """
        if drain_limit is None:
            drain_limit = self.config.drain_limit
        if stall_window is None:
            stall_window = self.config.stall_window
        if warmup < 0 or measure <= 0 or drain_limit < 0 or stall_window < 1:
            raise ConfigurationError(
                "invalid warmup/measure/drain_limit/stall_window"
            )
        self.stats.measure_start = warmup
        self.stats.measure_end = warmup + measure
        for _ in range(warmup + measure):
            self.step()

        # Stop generating, drain what's in flight — through the explicit
        # drain protocol (DrainableTraffic) every traffic source shares.
        self.traffic.begin_drain()
        try:
            last_signature = None
            stalled_for = 0
            # A source that draws nothing while draining (``silent_drain``)
            # lets the loop jump over idle cycles: no flit anywhere, the
            # fault layer waiting on a timer.  Stepping such a cycle only
            # advances the clock, so the jump stops at the layer's next
            # event and counts the skipped cycles as stepping would (the
            # first drain cycle is always stepped, so a stall count has a
            # signature to compare with).
            silent = getattr(self.traffic, "silent_drain", False)
            layer = self.fault_layer
            drained = 0
            while drained < drain_limit:
                if not self._flits_in_network():
                    if layer is None or not layer.busy():
                        break
                    if silent and last_signature is not None:
                        event = layer.next_event_cycle()
                        if event is not None and event > self.cycle:
                            skip = min(event - self.cycle, drain_limit - drained)
                            self.cycle += skip
                            drained += skip
                            stalled_for += skip
                            continue
                self.step()
                drained += 1
                signature = self._progress_signature()
                if signature != last_signature:
                    last_signature = signature
                    stalled_for = 0
                    continue
                stalled_for += 1
                if (
                    stalled_for >= stall_window
                    and self._next_scheduled_event() is None
                ):
                    raise LivelockError(
                        f"no forward progress for {stalled_for} drain cycles "
                        f"and no event scheduled; {self._drain_diagnostic()}"
                    )
            if self._network_busy():
                raise LivelockError(
                    f"network failed to drain within {drain_limit} cycles "
                    f"({self.stats.delivered_count} measured deliveries so "
                    f"far); {self._drain_diagnostic()}"
                )
        finally:
            self.traffic.end_drain()
        return self.stats

    # --- drain bookkeeping ------------------------------------------------------------

    def _absorb(self, link: Link, flit: Flit, vc: int) -> None:
        """Receiver-side absorption of a dropped flit.

        The flit is discarded instead of buffered, but its flow-control
        lifecycle completes exactly as a delivery's would: the upstream
        credit flows back, and the tail releases the VC grant — so drops
        never leak credits or wedge a worm.
        """
        upstream = self.routers[link.dst.node].upstream[link.dst.port]
        upstream.return_credit(vc)
        if flit.is_tail:
            upstream.release(vc)

    def _network_busy(self) -> bool:
        return self._flits_in_network() or (
            self.fault_layer is not None and self.fault_layer.busy()
        )

    def _flits_in_network(self) -> bool:
        """True while a flit is in flight, staged, buffered or queued."""
        if any(link.busy for link in self.links):
            return True
        for nic in self.nics.values():
            if nic.backlog:
                return True
        for router in self.routers.values():
            if router._staged:
                return True
            for port in router.inputs.values():
                if port.occupancy:
                    return True
        return False

    def _progress_signature(self) -> tuple[int, ...]:
        """Monotone counters that change iff some flit moved this cycle."""
        s = self.stats
        signature = (
            s.buffer_writes,
            s.buffer_reads,
            s.injected_flits,
            s.ejections,
            s.tap_deliveries,
            len(s.deliveries),
        )
        if self.fault_layer is not None:
            signature = signature + self.fault_layer.progress_token()
        return signature

    def _next_scheduled_event(self) -> int | None:
        """Earliest future cycle something is guaranteed to happen.

        A stalled signature is not a livelock while a flit is still in
        flight (e.g. serving a long retransmission delay) or a protocol
        timer is pending — those resolve on their own.
        """
        candidates = [
            t for link in self.links for t, _f, _vc in link._in_flight
        ]
        if self.fault_layer is not None:
            event = self.fault_layer.next_event_cycle()
            if event is not None:
                candidates.append(event)
        return min(candidates) if candidates else None

    def _drain_diagnostic(self) -> str:
        """Which components are wedged, for the livelock error message."""
        busy_links = [link for link in self.links if link.busy]
        backlog = sum(nic.backlog for nic in self.nics.values())
        staged = sum(len(r._staged) for r in self.routers.values())
        buffered = sum(
            port.occupancy
            for r in self.routers.values()
            for port in r.inputs.values()
        )
        parts = [
            f"cycle={self.cycle}",
            f"links_in_flight={len(busy_links)}",
            f"buffered_flits={buffered}",
            f"staged_flits={staged}",
            f"nic_backlog={backlog}",
        ]
        if busy_links:
            worst = sorted(busy_links, key=lambda l: -len(l._in_flight))[:3]
            parts.append(
                "busiest_links=" + ",".join(l.token for l in worst)
            )
        layer = self.fault_layer
        if layer is not None:
            s = layer.stats
            parts.append(
                f"fault(retransmissions={s.retransmissions}, "
                f"giveups={s.crc_giveups}, dropped={s.flits_dropped}, "
                f"links_disabled={s.links_disabled}, "
                f"undeliverable={s.undeliverable_flits})"
            )
            if layer.tracker is not None:
                parts.append(
                    f"e2e(outstanding={len(layer.tracker._transfers)}, "
                    f"acks_in_flight={len(layer.tracker._acks)}, "
                    f"retries={s.packet_retries})"
                )
        return " ".join(parts)


__all__ = [
    "EngineFallbackWarning",
    "Nic",
    "NocSimulator",
    "engine_for_traffic",
]
