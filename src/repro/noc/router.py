"""The 3-stage pipelined mesh router (Fig. 1).

Pipeline: buffer write + route computation, then VC/switch allocation,
then switch + link traversal — modeled as a readiness delay of
``pipeline_latency`` cycles between a flit's buffering and its switch
eligibility, with allocation contention adding queueing time on top.

Wormhole switching with credit-based virtual-channel flow control:

* a head flit acquires an idle VC at the downstream input (VC allocation)
  and its packet holds it until the tail passes;
* switch allocation is input-first separable round-robin: one flit per
  input port, one per output port, per cycle;
* credits track downstream buffer slots exactly; the protocol invariants
  (no overflow, no underflow, single VC ownership) are *enforced* —
  violations raise :class:`~repro.errors.ProtocolError` rather than
  silently corrupting results.

Multicast forks hold the flit in its input VC and serve one branch per
switch grant (copies carry the destination subset of their branch); the
paper's free SRLR taps are applied at arrival, stripping straight-through
local deliveries before any buffering or switching cost is paid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ProtocolError
from repro.noc.crossbar import Crossbar
from repro.noc.link import Link
from repro.noc.packet import Flit
from repro.noc.routing import route_ports
from repro.noc.stats import NocStats
from repro.noc.topology import NodeId, Port, Topology
from repro.noc.vc import InputPort, OutputPort


@dataclass(frozen=True)
class NocConfig:
    """Simulator configuration (defaults mirror the paper's router)."""

    n_vcs: int = 4
    vc_capacity: int = 4
    link_latency: int = 1
    pipeline_latency: int = 2
    enable_taps: bool = False
    #: Pipeline bypass (the buffer-power mitigation the paper's intro
    #: cites, a la express virtual channels [8]): a flit arriving at an
    #: empty VC skips the buffered pipeline stages, becoming switch-
    #: eligible the next cycle and paying no buffer access energy.
    enable_bypass: bool = False
    #: Routing algorithm: "xy" (dimension order) or "o1turn" (each packet
    #: randomly routes XY or YX; the two orders use disjoint VC classes —
    #: lower half XY, upper half YX — which keeps the union deadlock-free).
    routing: str = "xy"
    #: Livelock detection (honored identically by both engines): maximum
    #: post-measurement drain cycles before the run fails loudly, and the
    #: progress window — consecutive drain cycles with a frozen progress
    #: signature and no scheduled event that count as a livelock.
    #: ``run()`` arguments override these per call.
    drain_limit: int = 4000
    stall_window: int = 500

    def __post_init__(self) -> None:
        if self.routing not in ("xy", "o1turn"):
            raise ConfigurationError(
                f"routing must be 'xy' or 'o1turn', got {self.routing!r}"
            )
        if self.routing == "o1turn" and (self.n_vcs < 2 or self.n_vcs % 2):
            raise ConfigurationError(
                "o1turn needs an even n_vcs >= 2 (disjoint VC classes)"
            )
        for key, value in (
            ("n_vcs", self.n_vcs),
            ("vc_capacity", self.vc_capacity),
            ("link_latency", self.link_latency),
        ):
            if value < 1:
                raise ConfigurationError(f"{key} must be >= 1, got {value}")
        if self.pipeline_latency < 0:
            raise ConfigurationError(
                f"pipeline_latency must be >= 0, got {self.pipeline_latency}"
            )
        if self.drain_limit < 0:
            raise ConfigurationError(
                f"drain_limit must be >= 0, got {self.drain_limit}"
            )
        if self.stall_window < 1:
            raise ConfigurationError(
                f"stall_window must be >= 1, got {self.stall_window}"
            )


@dataclass
class _BranchState:
    """Fork bookkeeping for the head-of-line flit of one input VC."""

    flit_id: int
    branches: list[tuple[Port, frozenset[NodeId]]]
    out_vc: int | None = None  # VA grant for branches[0] (non-LOCAL)


class Router:
    """One mesh router; wired to links and neighbors by the simulator."""

    def __init__(
        self,
        node: NodeId,
        topology: Topology,
        config: NocConfig,
        stats: NocStats,
    ) -> None:
        self.node = node
        self.topology = topology
        self.config = config
        self.stats = stats
        #: This router's ports, in arbiter iteration order.  The flat
        #: mesh keeps the full 5-member Port enum at every node (edge
        #: routers simply leave compass ports unconnected, as before);
        #: heterogeneous topologies (chiplet gateways, interface
        #: routers) supply their own per-node port tuples.
        self.ports: tuple = tuple(topology.node_ports(node))
        self.inputs: dict[Port, InputPort] = {
            port: InputPort(config.n_vcs, config.vc_capacity)
            for port in self.ports
        }
        #: Output-side bookkeeping per connected output port (not LOCAL:
        #: ejection has no downstream buffer to flow-control).
        self.outputs: dict[Port, OutputPort] = {}
        self.links_out: dict[Port, Link] = {}
        #: Upstream OutputPort to credit when popping inputs[port]; LOCAL's
        #: upstream is the NIC.
        self.upstream: dict[Port, OutputPort] = {}
        self.crossbar = Crossbar()
        #: Optional fault layer (set by FaultLayer.attach): receives
        #: delivery/discard events for reliability bookkeeping.
        self.fault_layer = None
        #: Optional routing override ``(topology, node, flit, in_port) ->
        #: partition`` used for adaptive reroute around disabled links;
        #: None = the default dimension-order :func:`route_ports`.
        self.route_fn = None
        self._staged: list[tuple[Flit, Port, int]] = []
        self._branch_state: dict[tuple[Port, int], _BranchState] = {}
        self._sa_in_ptr: dict[Port, int] = {port: 0 for port in self.ports}
        self._sa_out_ptr: dict[Port, int] = {port: 0 for port in self.ports}
        self._va_ptr: dict[Port, int] = {port: 0 for port in self.ports}

    # --- VC classes -------------------------------------------------------------------

    def vc_class(self, routing: str) -> range:
        """VC indices a packet of this dimension order may use.

        Under plain XY routing all VCs are one class; under O1TURN the
        lower half belongs to XY packets and the upper half to YX packets,
        making each order's channel-dependence graph acyclic on its own
        VCs.
        """
        if self.config.routing != "o1turn":
            return range(self.config.n_vcs)
        half = self.config.n_vcs // 2
        return range(0, half) if routing == "xy" else range(half, self.config.n_vcs)

    # --- wiring (done by the simulator) ---------------------------------------------

    def connect_output(self, port: Port, link: Link, n_vcs: int, vc_capacity: int) -> None:
        self.outputs[port] = OutputPort(n_vcs, vc_capacity)
        self.links_out[port] = link

    # --- arrival / buffer write -------------------------------------------------------

    def stage(self, flit: Flit, in_port: Port, vc: int) -> None:
        """Queue an arriving flit for this cycle's buffer-write stage."""
        self._staged.append((flit, in_port, vc))

    def accept(self, cycle: int) -> None:
        """Buffer write (+ free SRLR taps for straight-through multicasts)."""
        for flit, in_port, vc_idx in self._staged:
            flit = self._apply_tap(flit, in_port, cycle)
            if flit is None:
                # Entire remaining payload was served by the tap: the flit
                # still occupied an upstream slot, so credit must flow.
                self.upstream[in_port].return_credit(vc_idx)
                self.upstream[in_port].release(vc_idx)
                continue
            vc = self.inputs[in_port].vcs[vc_idx]
            if self.config.enable_bypass and vc.occupancy == 0:
                # Bypass: straight to allocation next cycle, no buffer R/W
                # energy (the flit still physically parks in the empty
                # slot, but the array access is skipped).
                vc.push(flit, cycle + 1)
                self.stats.bypassed_flits += 1
            else:
                vc.push(flit, cycle + self.config.pipeline_latency)
            self.stats.buffer_writes += 1
        self._staged.clear()

    def _apply_tap(self, flit: Flit, in_port: Port, cycle: int) -> Flit | None:
        """Serve straight-through local deliveries at the repeater tap.

        Only multicasts passing straight through this router qualify: the
        pulse traverses the crosspoint SRLR regardless, and the full-swing
        repeated data is latched locally without an ejection traversal
        (Section II).  Returns the flit minus tapped destinations, or
        None if nothing remains.
        """
        if not self.config.enable_taps:
            return flit
        if not flit.is_head or not flit.is_tail:
            return flit  # multicast is single-flit by construction
        if self.node not in flit.dests or in_port == Port.LOCAL:
            return flit
        partition = self._route(flit, in_port)
        straight = self.topology.straight_port(self.node, in_port)
        if straight is None or straight not in partition:
            return flit
        self.stats.record_delivery(
            flit.packet.packet_id,
            self.node,
            flit.packet.inject_cycle,
            cycle,
            via_tap=True,
            src=flit.packet.src,
            corrupted=flit.corrupted,
        )
        if self.fault_layer is not None:
            self.fault_layer.on_delivery(flit, self.node, cycle, flit.corrupted)
        remaining = flit.dests - {self.node}
        if not remaining:
            return None
        return flit.branch(frozenset(remaining))

    def _route(
        self, flit: Flit, in_port: Port
    ) -> dict[Port, frozenset[NodeId]]:
        """Partition a flit's destinations by output port (overridable)."""
        if self.route_fn is not None:
            return self.route_fn(self.topology, self.node, flit, in_port)
        return route_ports(self.topology, self.node, flit)

    # --- route/branch state -----------------------------------------------------------

    def _front_state(self, in_port: Port, vc_idx: int, cycle: int) -> _BranchState | None:
        """Branch state for the VC's front flit, computing routes lazily."""
        vc = self.inputs[in_port].vcs[vc_idx]
        front = vc.front(cycle)
        if front is None:
            return None
        key = (in_port, vc_idx)
        if not front.is_head:
            # Body/tail flits follow the wormhole: no branch state.
            return None
        state = self._branch_state.get(key)
        if state is None or state.flit_id != id(front):
            partition = self._route(front, in_port)
            branches = sorted(partition.items(), key=lambda kv: int(kv[0]))
            state = _BranchState(flit_id=id(front), branches=branches)
            self._branch_state[key] = state
        return state

    # --- VC allocation ------------------------------------------------------------------

    def vc_allocate(self, cycle: int) -> None:
        """Grant idle downstream VCs to head flits awaiting them."""
        # Collect requests per output port.
        requests: dict[Port, list[tuple[Port, int, _BranchState]]] = {}
        for in_port in self.ports:
            for vc_idx in range(self.config.n_vcs):
                vc = self.inputs[in_port].vcs[vc_idx]
                state = self._front_state(in_port, vc_idx, cycle)
                if state is None or not state.branches:
                    continue
                out_port, _ = state.branches[0]
                if out_port == Port.LOCAL or state.out_vc is not None:
                    continue
                if vc.out_port == out_port and vc.out_vc is not None:
                    # Wormhole continuation (shouldn't happen for heads).
                    continue
                requests.setdefault(out_port, []).append((in_port, vc_idx, state))
        for out_port, requesters in sorted(requests.items(), key=lambda kv: int(kv[0])):
            output = self.outputs.get(out_port)
            if output is None:
                raise ProtocolError(
                    f"route to unconnected port {out_port} at {self.node}"
                )
            granted: set[int] = set()
            ptr = self._va_ptr[out_port]
            order = requesters[ptr % len(requesters):] + requesters[: ptr % len(requesters)]
            for in_port, vc_idx, state in order:
                vc = self.inputs[in_port].vcs[vc_idx]
                front = vc.front(cycle)
                if front is None:
                    continue
                allowed = self.vc_class(front.packet.routing)
                vc_grant = next(
                    (
                        v
                        for v in output.free_vcs()
                        if v in allowed and v not in granted
                    ),
                    None,
                )
                if vc_grant is None:
                    continue
                granted.add(vc_grant)
                output.acquire(vc_grant, (in_port, vc_idx))
                state.out_vc = vc_grant
                if not front.is_tail:
                    # Multi-flit packet: the whole worm uses this VC.
                    vc.out_port = state.branches[0][0]
                    vc.out_vc = vc_grant
            self._va_ptr[out_port] = ptr + 1

    # --- switch allocation + traversal --------------------------------------------------

    def _candidate(
        self, in_port: Port, vc_idx: int, cycle: int
    ) -> tuple[Port, int | None, frozenset[NodeId]] | None:
        """(out_port, out_vc, dests) if this VC can traverse now, else None."""
        vc = self.inputs[in_port].vcs[vc_idx]
        front = vc.front(cycle)
        if front is None:
            return None
        if front.is_head:
            state = self._front_state(in_port, vc_idx, cycle)
            if state is None or not state.branches:
                return None
            out_port, dests = state.branches[0]
            if out_port == Port.LOCAL:
                return (out_port, None, dests)
            if state.out_vc is None:
                return None
            output = self.outputs[out_port]
            if output.credits[state.out_vc] <= 0:
                return None
            return (out_port, state.out_vc, dests)
        # Body/tail flit: wormhole continuation on the VC's route.
        if vc.out_port is None:
            raise ProtocolError("body flit with no allocated route")
        if vc.out_port == Port.LOCAL:
            return (Port.LOCAL, None, front.dests)
        output = self.outputs[vc.out_port]
        if vc.out_vc is None or output.credits[vc.out_vc] <= 0:
            return None
        return (vc.out_port, vc.out_vc, front.dests)

    def switch_and_traverse(self, cycle: int) -> None:
        """Input-first separable switch allocation, then traversal."""
        # Stage 1: each input port nominates one VC.
        nominations: dict[Port, tuple[int, Port, int | None, frozenset[NodeId]]] = {}
        for in_port in self.ports:
            eligible = []
            for vc_idx in range(self.config.n_vcs):
                cand = self._candidate(in_port, vc_idx, cycle)
                if cand is not None:
                    eligible.append((vc_idx, *cand))
            if not eligible:
                continue
            ptr = self._sa_in_ptr[in_port] % len(eligible)
            nominations[in_port] = eligible[ptr]
            self._sa_in_ptr[in_port] += 1

        # Stage 2: each output port grants one nominated input.
        by_output: dict[Port, list[Port]] = {}
        for in_port, (vc_idx, out_port, out_vc, dests) in nominations.items():
            by_output.setdefault(out_port, []).append(in_port)
        winners: list[tuple[Port, int, Port, int | None, frozenset[NodeId]]] = []
        for out_port, contenders in sorted(by_output.items(), key=lambda kv: int(kv[0])):
            contenders.sort(key=int)
            ptr = self._sa_out_ptr[out_port] % len(contenders)
            in_port = contenders[ptr]
            self._sa_out_ptr[out_port] += 1
            vc_idx, _, out_vc, dests = nominations[in_port]
            winners.append((in_port, vc_idx, out_port, out_vc, dests))

        for in_port, vc_idx, out_port, out_vc, dests in winners:
            self._traverse(cycle, in_port, vc_idx, out_port, out_vc, dests)

    def _traverse(
        self,
        cycle: int,
        in_port: Port,
        vc_idx: int,
        out_port: Port,
        out_vc: int | None,
        dests: frozenset[NodeId],
    ) -> None:
        vc = self.inputs[in_port].vcs[vc_idx]
        front = vc.front(cycle)
        if front is None:
            raise ProtocolError("switch winner lost its flit")
        self.stats.buffer_reads += 1

        if out_port == Port.LOCAL:
            self._eject(cycle, in_port, vc_idx, dests)
            return

        self.crossbar.connect(in_port, out_port)
        self.stats.crossbar_traversals += 1
        self.stats.link_traversals += 1
        output = self.outputs[out_port]
        if out_vc is None:
            raise ProtocolError("network traversal without an output VC")
        output.consume_credit(out_vc)
        self.links_out[out_port].send(front.branch(dests), out_vc, cycle)
        self._retire_branch(in_port, vc_idx, out_port)

    def _eject(
        self, cycle: int, in_port: Port, vc_idx: int, dests: frozenset[NodeId]
    ) -> None:
        vc = self.inputs[in_port].vcs[vc_idx]
        front = vc.front(cycle)
        if front is None:
            raise ProtocolError("ejecting a missing flit")
        if dests != frozenset({self.node}):
            if self.fault_layer is None:
                raise ProtocolError(f"LOCAL branch with foreign dests {dests}")
            # Adaptive reroute escape hatch: a disabled-link partition made
            # these destinations unreachable, so the flit is discarded here
            # (counted, never recorded as a delivery) instead of wedging
            # the network.
            self.stats.ejections += 1
            if front.is_head and not front.is_tail:
                vc.out_port = Port.LOCAL
            self.fault_layer.on_undeliverable(front, self.node)
            self._retire_branch(in_port, vc_idx, Port.LOCAL)
            return
        self.stats.ejections += 1
        if front.is_head and not front.is_tail:
            # Multi-flit packet ejecting here: body/tail follow the worm.
            vc.out_port = Port.LOCAL
        if front.is_tail:
            corrupted = front.corrupted
            if self.fault_layer is not None:
                # Packet-level integrity: a corrupted body flit spoils the
                # whole packet even when the tail traversed cleanly.
                corrupted = corrupted or self.fault_layer.packet_corrupted(
                    front.packet
                )
            self.stats.record_delivery(
                front.packet.packet_id,
                self.node,
                front.packet.inject_cycle,
                cycle,
                via_tap=False,
                src=front.packet.src,
                corrupted=corrupted,
            )
            if self.fault_layer is not None:
                self.fault_layer.on_delivery(front, self.node, cycle, corrupted)
        self._retire_branch(in_port, vc_idx, Port.LOCAL)

    def _retire_branch(self, in_port: Port, vc_idx: int, out_port: Port) -> None:
        """Advance the fork state; pop the flit once its last branch went."""
        vc = self.inputs[in_port].vcs[vc_idx]
        key = (in_port, vc_idx)
        state = self._branch_state.get(key)
        front, _ = vc.fifo[0]
        if front.is_head and state is not None and state.flit_id == id(front):
            if not state.branches or state.branches[0][0] != out_port:
                raise ProtocolError("branch retirement out of order")
            state.branches.pop(0)
            state.out_vc = None
            if state.branches:
                return  # more branches to serve; flit stays buffered
            del self._branch_state[key]
        self._pop(in_port, vc_idx)

    def _pop(self, in_port: Port, vc_idx: int) -> None:
        vc = self.inputs[in_port].vcs[vc_idx]
        flit = vc.pop()
        upstream = self.upstream.get(in_port)
        if upstream is None:
            raise ProtocolError(f"no upstream wired for {in_port} at {self.node}")
        upstream.return_credit(vc_idx)
        if flit.is_tail:
            upstream.release(vc_idx)


__all__ = ["NocConfig", "Router"]
