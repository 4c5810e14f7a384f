"""Flat batch-cycle NoC engine (``engine="fast"``).

The reference :class:`~repro.noc.simulator.NocSimulator` walks Python
objects — one ``VirtualChannel`` deque, one ``OutputPort`` credit list,
one ``Router`` method call chain per port per cycle — which makes the
cycle loop the dominant wall-clock cost of every traffic-driven workload
(fault campaigns, DSE objectives, the energy-density recast).  This
module re-implements the *same machine* on a struct-of-arrays layout:

* all input-VC FIFOs of the whole network live in preallocated flat ring
  buffers indexed by ``slot = (router * P + port) * n_vcs + vc``
  (``_ring_ready``, ``_ring_flags``, ``_ring_dest``, ``_ring_flit``),
  where the port stride ``P`` is 5 on mesh, cmesh and torus and 6 on
  the chiplet NoC/NoI (``PORT_UP``); ascending slot order is (router,
  port, vc) order at any stride, and the reference arbiters take their
  pointers modulo the requester count, never the radix, so the stride
  leaves the mesh layout and every arbitration order unchanged;
* credit counters and downstream-VC ownership are flat arrays indexed
  receiver-side (the credit for input buffer ``s`` *is* ``_credits[s]``,
  the same counter the reference keeps on the upstream ``OutputPort``);
* wormhole state (allocated output port / VC per input VC) and the
  per-front route/VA-grant cache are flat arrays as well;
* flits in flight are bucketed in an arrival calendar keyed by arrival
  cycle instead of being rediscovered by scanning every link each cycle;
* a dense set of occupied slots replaces per-object traversal: each
  cycle touches only the VCs that hold flits, not the whole mesh;
* per-flit constants (head/tail/dimension-order flags, destination
  index) are computed once at injection and carried alongside the flit
  through buffers and the calendar, never re-derived per hop.

The arrays are plain Python flat lists, not numpy ndarrays, and that is
a measured choice: the per-cycle work is dominated by *scalar* reads and
read-modify-writes at a few dozen active slots (push, pop, credit
consume/return), where list indexing is ~5x cheaper than ndarray scalar
indexing; the vectorizable portion (the front-readiness scan) runs over
the occupied set, which at realistic injection rates is two orders of
magnitude smaller than the slot space, so ndarray gather/scatter costs
more than it saves.  The layout is struct-of-arrays either way — the
same flat indexing would back an ndarray or a kernel port directly.
For the same reason the buffer-write / traverse / pop primitives are
inlined into :meth:`step` (the call-chain overhead alone was comparable
to the useful work); the slower per-flit paths (ejections an end-to-end
tracker must hear of, undeliverable flits, livelock diagnostics) stay as
methods.

Each cycle advances in phases mirroring the reference order exactly:
buffer write (NIC-staged, then link arrivals), traffic generation, NIC
injection, VC allocation, switch allocation + traversal.  The sequential
round-robin arbiters run only over the extracted active set, with
pointer updates and iteration orders copied verbatim from the reference
router.

Equivalence guarantee
---------------------
For identical seeds and configurations the engine produces *identical*
end-of-run statistics to the reference simulator: the same delivery
records (up to list order), latency histograms, event counters, per-link
traversal counts, and — with a fault layer attached — the same fault
ledger, CRC retransmission counts and end-to-end transfer records.  This
holds because every stateful decision point (round-robin pointers, VC
grant scans, RNG draw order on traffic, O1TURN coin flips and per-link
fault channels) is sequenced exactly as the reference sequences it; the
differential suite ``tests/test_noc_fastsim_parity.py`` locks the claim
down, and ``docs/NOC_FASTSIM.md`` documents the phase mapping.

Scope: unicast traffic only (any topology, pattern and size, O1TURN, bypass,
multi-flit worms, every fault model and protection protocol).  Multicast
forks keep a flit resident across several switch grants, which the flat
front-state cache does not model; construction rejects multicast traffic
and injection rejects multicast packets loudly so a fall-back to the
reference engine is always a deliberate, visible choice.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, ProtocolError
from repro.noc.packet import Flit, single_flit
from repro.noc.routing import xy_route, yx_route
from repro.noc.stats import DeliveryRecord
from repro.noc.simulator import NocSimulator
from repro.noc.topology import PORT_UP, Port

_LOCAL = int(Port.LOCAL)

#: Flag bits of ``_ring_flags`` (and the ``fl`` words threaded through
#: the staging lists and the arrival calendar).
_F_HEAD = 1
_F_TAIL = 2
_F_YX = 4

#: Port objects by integer port: the five ``Port`` members, then the
#: chiplet uplink, which the topology (and hence the reference
#: ``Crossbar.connect``) carries as the plain int ``PORT_UP``.
_PORT_KEYS = (*Port, PORT_UP)
#: Crosspoint keys by integer port pair (avoids enum construction and
#: tuple allocation per flit; the keys are the same port objects the
#: reference records).
_PORT_PAIRS = tuple(tuple((a, b) for b in _PORT_KEYS) for a in _PORT_KEYS)


class FastNocSimulator(NocSimulator):
    """Struct-of-arrays batch-cycle engine behind ``engine="fast"``.

    Construction, wiring, the public surface (``config``, ``traffic``,
    ``stats``, ``links``, ``routers``, ``nics``, ``run``) and the fault
    layer attachment protocol are inherited from the reference
    simulator; only the cycle loop and the drain bookkeeping are
    replaced by array phases.  The inherited ``Router`` objects carry
    the fault layer's per-router hooks (``fault_layer``, ``route_fn``)
    and the crossbar crosspoint counters; their per-VC buffer state is
    unused — the arrays below are the single source of truth.
    """

    engine = "fast"

    def __init__(
        self,
        k,
        config=None,
        traffic=None,
        injection_rate: float = 0.05,
        pattern: str = "uniform",
        seed: int = 7,
        *,
        engine: str = "fast",
    ) -> None:
        if engine != "fast":
            raise ConfigurationError(
                f"FastNocSimulator is the engine='fast' implementation, "
                f"got engine={engine!r}"
            )
        super().__init__(
            k,
            config=config,
            traffic=traffic,
            injection_rate=injection_rate,
            pattern=pattern,
            seed=seed,
        )
        if getattr(self.traffic, "multicast_fraction", 0.0):
            raise ConfigurationError(
                "engine='fast' supports unicast traffic only; use the "
                "reference engine for multicast mixes"
            )
        #: Whether the step loop counts payload transitions (set by the
        #: base constructor on the shared Link objects).
        self._payload_on = any(
            link.payload_mode != "constant" for link in self.links
        )
        self._build_arrays()

    # --- layout -----------------------------------------------------------------------

    def _build_arrays(self) -> None:
        config = self.config
        self._V = V = config.n_vcs
        self._C = C = config.vc_capacity
        self._bypass = config.enable_bypass
        self._plat = config.pipeline_latency
        self._nodes = sorted(self.topology.nodes())
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
        R = len(self._nodes)
        self._R = R
        #: Port stride: 5 on mesh, cmesh and torus, 6 with a chiplet
        #: uplink.  Routers with fewer ports leave the extra slots
        #: unused (never owned, credits full).
        self._P = P = 1 + max(
            int(p)
            for node in self._nodes
            for p in self.topology.node_ports(node)
        )
        N = R * P * V

        # Input-VC ring buffers, flat over (router, port, vc, slot).
        self._ring_ready = [0] * (N * C)
        self._ring_flags = [0] * (N * C)
        self._ring_dest = [0] * (N * C)
        self._ring_flit: list[Flit | None] = [None] * (N * C)
        self._head = [0] * N
        self._count = [0] * N
        #: Slots whose head-of-line flit is ready — the dense active set
        #: each cycle scans.  Maintained incrementally: a buffer write
        #: to an empty VC schedules the slot in ``_front_cal`` for the
        #: flit's ready cycle; a pop either keeps the slot (next flit
        #: already ready), reschedules it, or retires it when the VC
        #: empties.
        self._hol_ready: set[int] = set()
        #: Cycle -> slots whose head-of-line flit becomes ready then.
        self._front_cal: dict[int, list[int]] = {}
        #: Fast lane of ``_front_cal`` for the dominant bypass case:
        #: slots becoming ready exactly next cycle (consumed and
        #: replaced at each ``step``, skipping the calendar dict).
        self._hot_next: list[int] = []
        #: Total buffered flits (= sum of ``_count``), for drain checks.
        self._buffered_total = 0
        #: Slot -> (router, input port) decode tables for the scan.
        self._slot_router = [s // (P * V) for s in range(N)]
        self._slot_port = [s // V % P for s in range(N)]

        # Flow control, receiver-indexed: _credits[s] is the upstream
        # credit counter for input buffer s; _owned[s] is the upstream
        # VC-ownership flag.  (The reference keeps both on the sender's
        # OutputPort — it is the same state under a different index.)
        self._credits = [C] * N
        self._owned = [False] * N

        # Wormhole state per input VC (reference VirtualChannel.out_*).
        self._wh_port = [-1] * N
        self._wh_vc = [-1] * N
        # Front-of-VC head-flit state (reference _BranchState + route).
        self._fr_valid = [False] * N
        self._fr_port = [0] * N
        self._fr_vc = [-1] * N

        # Round-robin arbiter pointers, per (router, port).
        self._va_ptr = [[0] * P for _ in range(R)]
        self._sa_in_ptr = [[0] * P for _ in range(R)]
        self._sa_out_ptr = [[0] * P for _ in range(R)]

        # Topology wiring: output (r, port) -> downstream input slot
        # base and link index; link -> destination input slot base.
        self._out_target = [[-1] * P for _ in range(R)]
        self._link_of = [[-1] * P for _ in range(R)]
        self._link_dst_base = [0] * len(self.links)
        # self.links was built from directed_links() in the same order,
        # so zipping recovers each link's output port without assuming a
        # mesh-style OPPOSITE relation (a torus wrap link enters on the
        # same compass side it left from).
        directed = self.topology.directed_links()
        for li, (link, (_src, out_port, _dst, _in_port)) in enumerate(
            zip(self.links, directed)
        ):
            r = self._node_index[link.src]
            dst_r = self._node_index[link.dst.node]
            dst_base = (dst_r * P + int(link.dst.port)) * V
            self._out_target[r][int(out_port)] = dst_base
            self._link_of[r][int(out_port)] = li
            self._link_dst_base[li] = dst_base
        self._link_inflight = [0] * len(self.links)

        if self.topology.table_routed:
            # One deadlock-free table serves both "orders" (table
            # topologies reject o1turn at construction).
            table = self.topology.route_table_ints(self._nodes)
            self._route_xy = table
            self._route_yx = table
        else:
            # Dimension-order route tables: port from r toward dest d.
            self._route_xy = [
                [int(xy_route(a, b)) for b in self._nodes]
                for a in self._nodes
            ]
            self._route_yx = [
                [int(yx_route(a, b)) for b in self._nodes]
                for a in self._nodes
            ]

        # VC classes: (lo, hi) of the VC range a packet may use.
        if config.routing == "o1turn":
            half = V // 2
            self._class_xy = (0, half)
            self._class_yx = (half, V)
        else:
            self._class_xy = (0, V)
            self._class_yx = (0, V)
        self._vcs_xy = tuple(range(*self._class_xy))
        self._vcs_yx = tuple(range(*self._class_yx))

        #: NICs, routers and crossbars in sorted node order (the
        #: reference's per-cycle iteration order).
        self._nic_list = [self.nics[node] for node in self._nodes]
        self._router_list = [self.routers[node] for node in self._nodes]
        self._xbar_list = [router.crossbar for router in self._router_list]
        #: Per-NIC flag word / destination index of the packet currently
        #: being injected (computed once at VC allocation, shared by all
        #: of the worm's flits).
        self._nic_fl = [0] * R
        self._nic_di = [0] * R
        self._nic_sz = [1] * R

        #: Arrival calendar: cycle -> [(link_idx, flit, vc, flags,
        #: dest_idx), ...] in send order.  Replaces scanning every link
        #: every cycle; flags/dest ride along so no per-hop re-derivation.
        self._arrivals: dict[int, list[tuple[int, Flit, int, int, int]]] = {}
        self._inflight_total = 0
        #: Flits injected by NICs this cycle, buffer-written next cycle
        #: (the reference stages them on the router and accepts at the
        #: next cycle's buffer-write phase), as (slot, flit, flags,
        #: dest_idx).
        self._nic_staged: list[tuple[int, Flit, int, int]] = []

        #: Router indices whose NIC holds work (queued packets or a
        #: partially-injected worm), so the injection phase skips the
        #: idle majority.  Every ``offer`` path lands here — traffic,
        #: fault-layer reinjection, direct test drivers — because each
        #: Nic's ``offer`` is wrapped below; the injection phase prunes
        #: drained NICs.
        self._active_nics: set[int] = set()
        for r, nic in enumerate(self._nic_list):
            nic.offer = self._tracking_offer(nic, r)

    def _tracking_offer(self, nic, r: int):
        """Wrap ``nic.offer`` so any offer marks the NIC active."""
        inner = nic.offer  # the reference Nic's bound method
        active = self._active_nics
        if self.config.routing == "o1turn":
            # O1TURN offers draw the per-packet coin — delegate.
            def offer(packet):
                active.add(r)
                return inner(packet)

            return offer

        # Common case: Nic.offer is a queue append plus a stats bump
        # (no RNG), inlined here to keep the per-packet cost down.
        queue = nic.queue
        stats = self.stats

        def offer(packet):
            active.add(r)
            queue.append(packet)
            stats.injected_packets += 1

        return offer

    # --- primitive operations (cold paths; the hot paths inline these) ----------------

    def _return_credit(self, s: int) -> None:
        if self._credits[s] >= self._C:
            raise ProtocolError(f"credit overflow on slot {s}")
        self._credits[s] += 1

    def _release(self, s: int) -> None:
        if not self._owned[s]:
            raise ProtocolError(f"release of free downstream VC (slot {s})")
        self._owned[s] = False

    def _pop(self, s: int, f: int, is_tail: bool) -> None:
        """Reference ``Router._pop``: dequeue, credit upstream, release
        the VC grant on tails, invalidate the front cache."""
        self._ring_flit[f] = None
        self._head[s] = (self._head[s] + 1) % self._C
        cnt = self._count[s] = self._count[s] - 1
        self._buffered_total -= 1
        if cnt == 0:
            self._hol_ready.discard(s)
        else:
            ready = self._ring_ready[s * self._C + self._head[s]]
            if ready > self.cycle + 1:
                self._hol_ready.discard(s)
                self._front_cal.setdefault(ready, []).append(s)
            # else: the next flit is already ready; the slot stays hot.
        if is_tail:
            self._wh_port[s] = -1
            self._wh_vc[s] = -1
        self._fr_valid[s] = False
        self._fr_vc[s] = -1
        self._return_credit(s)
        if is_tail:
            self._release(s)

    def _route_front(self, r: int, s: int, f: int, flags: int) -> int:
        """Compute and cache the route of the head flit at front ``f``.

        Mirrors the reference's lazily-computed ``_BranchState``: the
        route is evaluated once per (flit, router) and kept until the
        flit is popped — a link disabled later in the same cycle does
        not retroactively re-route an already-evaluated front.
        """
        route_fn = self._router_list[r].route_fn
        if route_fn is None:
            d = self._ring_dest[f]
            table = self._route_yx if flags & _F_YX else self._route_xy
            port = table[r][d]
        else:
            flit = self._ring_flit[f]
            partition = route_fn(
                self.topology, self._nodes[r], flit, self._slot_port[s]
            )
            ((port, _dests),) = partition.items()
            port = int(port)
        self._fr_port[s] = port
        self._fr_valid[s] = True
        self._fr_vc[s] = -1
        return port

    # --- the cycle --------------------------------------------------------------------

    def step(self) -> None:
        """Advance the network by one cycle (phase order as reference)."""
        cycle = self.cycle
        stats = self.stats
        V = self._V
        C = self._C
        P = self._P
        PV = P * V
        bypass = self._bypass
        plat = self._plat
        credits = self._credits
        owned = self._owned
        wh_port = self._wh_port
        wh_vc = self._wh_vc
        fr_valid = self._fr_valid
        fr_port = self._fr_port
        fr_vc = self._fr_vc
        ring_flit = self._ring_flit
        ring_ready = self._ring_ready
        ring_flags = self._ring_flags
        ring_dest = self._ring_dest
        head = self._head
        count = self._count
        hol_ready = self._hol_ready
        front_cal = self._front_cal
        out_target = self._out_target
        links = self.links
        arrivals_cal = self._arrivals
        link_inflight = self._link_inflight
        fault_layer = self.fault_layer
        payload_on = self._payload_on
        n_writes = 0
        n_bypassed = 0

        # Deliveries take the inline path unless an end-to-end tracker
        # must hear of them; under a fault layer a delivery is corrupted
        # when its flit is or when a hop marked its packet.
        if fault_layer is None:
            inline_delivery = True
            corrupted_ids = ()
        else:
            fault_layer.begin_cycle(cycle)
            inline_delivery = fault_layer.tracker is None
            corrupted_ids = fault_layer._corrupted_packets

        # Slots whose head-of-line flit becomes ready this cycle.
        newly_ready = front_cal.pop(cycle, None)
        if newly_ready is not None:
            hol_ready.update(newly_ready)
        hot_prev = self._hot_next
        if hot_prev:
            hol_ready.update(hot_prev)
        hot_next = self._hot_next = []
        next_cycle = cycle + 1

        # Phase 1: buffer write.  First the flits the NICs staged last
        # cycle, then this cycle's link arrivals (the reference accepts
        # them in the same staged order; the two groups land in disjoint
        # slots, LOCAL vs compass ports).
        if self._nic_staged:
            for s, flit, fl, di in self._nic_staged:
                cnt = count[s]
                if cnt >= C:
                    raise ProtocolError(
                        "VC overflow: credit accounting let a flit in "
                        "with no space"
                    )
                if bypass and cnt == 0:
                    ready = cycle + 1
                    n_bypassed += 1
                else:
                    ready = cycle + plat
                f = s * C + (head[s] + cnt) % C
                ring_flit[f] = flit
                ring_ready[f] = ready
                ring_flags[f] = fl
                ring_dest[f] = di
                count[s] = cnt + 1
                if cnt == 0:
                    # New head-of-line: hot once its pipeline delay ends.
                    if ready == next_cycle:
                        hot_next.append(s)
                    else:
                        bucket = front_cal.get(ready)
                        if bucket is None:
                            front_cal[ready] = [s]
                        else:
                            bucket.append(s)
                n_writes += 1
            self._nic_staged = []
        landed = arrivals_cal.pop(cycle, None)
        if landed is not None:
            link_dst_base = self._link_dst_base
            self._inflight_total -= len(landed)
            for li, flit, vc, fl, di in landed:
                link_inflight[li] -= 1
                s = link_dst_base[li] + vc
                if fault_layer is not None:
                    # Only a fault channel can mark a flit for
                    # receiver-side absorption (a dropped flit completes
                    # its flow-control lifecycle as a delivery's would:
                    # credit back, VC released on tails).
                    channel = links[li].channel
                    if (
                        channel is not None
                        and channel.absorbing
                        and channel.absorbs(flit)
                    ):
                        if credits[s] >= C:
                            raise ProtocolError(
                                f"credit overflow on slot {s}"
                            )
                        credits[s] += 1
                        if fl & _F_TAIL:
                            if not owned[s]:
                                raise ProtocolError(
                                    f"release of free downstream VC "
                                    f"(slot {s})"
                                )
                            owned[s] = False
                        continue
                cnt = count[s]
                if cnt >= C:
                    raise ProtocolError(
                        "VC overflow: credit accounting let a flit in "
                        "with no space"
                    )
                if bypass and cnt == 0:
                    ready = cycle + 1
                    n_bypassed += 1
                else:
                    ready = cycle + plat
                f = s * C + (head[s] + cnt) % C
                ring_flit[f] = flit
                ring_ready[f] = ready
                ring_flags[f] = fl
                ring_dest[f] = di
                count[s] = cnt + 1
                if cnt == 0:
                    if ready == next_cycle:
                        hot_next.append(s)
                    else:
                        bucket = front_cal.get(ready)
                        if bucket is None:
                            front_cal[ready] = [s]
                        else:
                            bucket.append(s)
                n_writes += 1

        # Front scan: one pass over the hot slots (head-of-line flit
        # ready) builds this cycle's SA work lists, grouped by (router,
        # input port) — ascending slot order makes both groups
        # contiguous — and simultaneously collects the VC-allocation
        # requests per router.  Fusing request collection into the scan
        # is equivalence-preserving: collection only reads per-slot
        # front state (fr_*, wh_*) that other routers' grants never
        # write, and the grant pass below still runs in ascending
        # router order exactly as the reference sequences it.  (The
        # traffic and injection phases never touch buffers mid-cycle —
        # injected flits stage for the *next* cycle — so the scan stays
        # valid; pops during SA are per-router and happen at that
        # router's own turn.)
        router_list = self._router_list
        route_xy = self._route_xy
        route_yx = self._route_yx
        by_router: list[tuple[int, list[tuple[int, list]]]] = []
        va_work: list[tuple[int, list]] = []
        current_r = -1
        current_p = -1
        groups: list[tuple[int, list]] = []
        gitems: list[tuple[int, int, int]] = []
        req_rows = None
        route_fn = None
        rxy = ryx = None
        slot_router = self._slot_router
        slot_port = self._slot_port
        for s in sorted(hol_ready):
            f = s * C + head[s]
            r = slot_router[s]
            p = slot_port[s]
            if r != current_r:
                groups = []
                by_router.append((r, groups))
                current_r = r
                current_p = -1
                # route_fn overrides only exist under a fault layer
                # (adaptive reroute); skip the attribute load without one.
                if fault_layer is not None:
                    route_fn = router_list[r].route_fn
                rxy = route_xy[r]
                ryx = route_yx[r]
                req_rows = None
            if p != current_p:
                gitems = []
                groups.append((p, gitems))
                current_p = p
            fl = ring_flags[f]
            item = (s, f, fl)
            gitems.append(item)
            # VC-allocation request for head flits needing a VC.
            if not fl & _F_HEAD:
                continue
            if fr_valid[s]:
                out_p = fr_port[s]
            elif route_fn is None:
                out_p = (ryx if fl & _F_YX else rxy)[ring_dest[f]]
                fr_port[s] = out_p
                fr_valid[s] = True
                fr_vc[s] = -1
            else:
                out_p = self._route_front(r, s, f, fl)
            if out_p == _LOCAL or fr_vc[s] != -1:
                continue
            if wh_port[s] == out_p and wh_vc[s] != -1:
                continue  # wormhole continuation (head edge case)
            if req_rows is None:
                req_rows = [None] * P
                req_ports = []
                va_work.append((r, req_rows, req_ports))
            row = req_rows[out_p]
            if row is None:
                req_rows[out_p] = [item]
                req_ports.append(out_p)
            else:
                row.append(item)

        # Phase 2: traffic generation.
        nics = self.nics
        if fault_layer is None:
            for packet in self.traffic.packets_for_cycle(cycle):
                nics[packet.src].offer(packet)
        else:
            for packet in self.traffic.packets_for_cycle(cycle):
                nics[packet.src].offer(packet)
                fault_layer.on_offer(packet, cycle)

        # Phase 3: NIC injection (reference Nic.inject, one flit max per
        # node, in sorted node order).
        vcs_xy = self._vcs_xy
        vcs_yx = self._vcs_yx
        nic_staged = self._nic_staged
        nic_fl = self._nic_fl
        nic_di = self._nic_di
        nic_sz = self._nic_sz
        node_index = self._node_index
        nic_list = self._nic_list
        active_nics = self._active_nics
        n_injected = 0
        for r in sorted(active_nics):
            nic = nic_list[r]
            pending = nic._pending
            if not pending:
                queue = nic.queue
                if not queue:
                    active_nics.discard(r)
                    continue
                packet = queue[0]
                dests = packet.dests
                if len(dests) > 1:
                    raise ConfigurationError(
                        "engine='fast' supports unicast packets only; use "
                        "the reference engine for multicast traffic"
                    )
                yx = packet.routing == "yx"
                base = r * PV  # LOCAL port slot base
                free = [
                    v
                    for v in (vcs_yx if yx else vcs_xy)
                    if not owned[base + v]
                ]
                if not free:
                    continue
                vc = free[nic._va_ptr % len(free)]
                nic._va_ptr += 1
                queue.popleft()
                nic._vc = vc
                owned[base + vc] = True
                (dest,) = dests
                fl0 = _F_YX if yx else 0
                di = node_index[dest]
                nic_fl[r] = fl0
                nic_di[r] = di
                sz = nic_sz[r] = packet.size_flits
                if sz == 1:
                    # Single-flit packet (the dominant case): one flit,
                    # head and tail in one, built via the hot-path
                    # constructor and sent without a pending list.
                    s = base + vc
                    flit = single_flit(packet)
                    if credits[s] <= 0:
                        nic._pending = [flit]
                        continue
                    credits[s] -= 1
                    nic_staged.append(
                        (s, flit, fl0 | _F_HEAD | _F_TAIL, di)
                    )
                    n_injected += 1
                    nic._vc = None
                    continue
                pending = nic._pending = packet.flits()
            s = r * PV + nic._vc
            if credits[s] <= 0:
                continue
            flit = pending.pop(0)
            credits[s] -= 1
            fl = nic_fl[r]
            i = flit.seq
            if i == 0:
                fl |= _F_HEAD
            if i == nic_sz[r] - 1:
                fl |= _F_TAIL
            nic_staged.append((s, flit, fl, nic_di[r]))
            n_injected += 1
            if not pending:
                nic._vc = None
        if n_injected:
            stats.injected_flits += n_injected

        # Phase 4: VC allocation grants.  Requests were collected during
        # the front scan (routes resolved there; nothing between the
        # scan and here mutates routing state); each output port grants
        # a free downstream VC in round-robin order over requesters
        # (reference Router.vc_allocate, including its pointer
        # discipline), walking routers in ascending order.
        va_ptr_all = self._va_ptr
        for r, req_rows, req_ports in va_work:
            va_ptr = va_ptr_all[r]
            targets = out_target[r]
            if len(req_ports) > 1:
                req_ports.sort()  # ascending port order, as sorted()
            for out_p in req_ports:
                requesters = req_rows[out_p]
                ob = targets[out_p]
                if ob < 0:
                    raise ProtocolError(
                        f"route to unconnected port {out_p} at "
                        f"{self._nodes[r]}"
                    )
                n_req = len(requesters)
                if n_req == 1:
                    order = requesters
                else:
                    ptr = va_ptr[out_p] % n_req
                    order = requesters[ptr:] + requesters[:ptr]
                granted_mask = 0
                for s, f, fl in order:
                    grant = -1
                    for v in vcs_yx if fl & _F_YX else vcs_xy:
                        if not owned[ob + v] and not granted_mask >> v & 1:
                            grant = v
                            break
                    if grant < 0:
                        continue
                    granted_mask |= 1 << grant
                    owned[ob + grant] = True
                    fr_vc[s] = grant
                    if not fl & _F_TAIL:
                        # Multi-flit packet: the worm holds this VC.
                        wh_port[s] = out_p
                        wh_vc[s] = grant
                va_ptr[out_p] += 1

        # Phase 5: switch allocation + traversal (reference
        # Router.switch_and_traverse: input-first separable round-robin,
        # winners served in output-port order).
        n_reads = 0
        n_switched = 0
        n_ejected = 0
        n_sent = 0
        memo_arrival = -1
        memo_bucket = None
        xbar_list = self._xbar_list
        sa_in_all = self._sa_in_ptr
        sa_out_all = self._sa_out_ptr
        link_of = self._link_of
        deliveries = stats.deliveries
        nodes = self._nodes
        for r, groups in by_router:
            targets = out_target[r]
            # Stage 1: each input port nominates one eligible VC (the
            # scan already partitioned this router's ready fronts by
            # input port).
            nominations: list[tuple[int, int, int, int, int, int]] = []
            sa_in_ptr = sa_in_all[r]
            for p, gitems in groups:
                # Eligible fronts at this input port; the single-eligible
                # common case avoids materializing a list.
                first = None
                eligible = None
                for s, f, fl in gitems:
                    if fl & _F_HEAD:
                        out_p = fr_port[s]  # cached during VA
                        if out_p == _LOCAL:
                            ov = -1
                        else:
                            ov = fr_vc[s]
                            if ov == -1 or credits[targets[out_p] + ov] <= 0:
                                continue
                    else:
                        out_p = wh_port[s]
                        if out_p == -1:
                            raise ProtocolError(
                                "body flit with no allocated route"
                            )
                        if out_p == _LOCAL:
                            ov = -1
                        else:
                            ov = wh_vc[s]
                            if ov == -1 or credits[targets[out_p] + ov] <= 0:
                                continue
                    e = (p, s, f, fl, out_p, ov)
                    if first is None:
                        first = e
                    elif eligible is None:
                        eligible = [first, e]
                    else:
                        eligible.append(e)
                if first is not None:
                    if eligible is None:
                        nominations.append(first)
                    else:
                        ptr = sa_in_ptr[p] % len(eligible)
                        nominations.append(eligible[ptr])
                    sa_in_ptr[p] += 1

            if not nominations:
                continue
            # Stage 2: each output port grants one nominated input
            # (contenders arrive in ascending input-port order), and the
            # winner traverses immediately — switch, link, pop, credit.
            # The single-nomination case (most routers, light load)
            # skips the per-port partition entirely.
            if len(nominations) == 1:
                port_rows = ((nominations[0][4], nominations),)
            else:
                out_rows = [None] * P
                for nom in nominations:
                    op = nom[4]
                    row = out_rows[op]
                    if row is None:
                        out_rows[op] = [nom]
                    else:
                        row.append(nom)
                port_rows = [  # ascending port order
                    (op, out_rows[op])
                    for op in range(P)
                    if out_rows[op] is not None
                ]
            sa_out_ptr = sa_out_all[r]
            link_of_r = link_of[r]
            for out_p, contenders in port_rows:
                n_con = len(contenders)
                if n_con == 1:
                    in_p, s, f, fl, _op, ov = contenders[0]
                else:
                    ptr = sa_out_ptr[out_p] % n_con
                    in_p, s, f, fl, _op, ov = contenders[ptr]
                sa_out_ptr[out_p] += 1
                front = ring_flit[f]
                if front is None:
                    raise ProtocolError("switch winner lost its flit")
                n_reads += 1
                if out_p == _LOCAL:
                    if ring_dest[f] != r or (
                        fl & _F_TAIL and not inline_delivery
                    ):
                        self._eject(cycle, r, s, f, fl, front)
                        continue
                    # Ejection fast path (a flit at its own destination;
                    # a tail only when no e2e tracker must hear of its
                    # delivery): _eject + record_delivery + pop, inlined.
                    stats.ejections += 1
                    n_ejected += 1
                    if fl & _F_TAIL:
                        pkt = front.packet
                        corrupted = (
                            front.corrupted or pkt.packet_id in corrupted_ids
                        )
                        deliveries.append(
                            DeliveryRecord(
                                pkt.packet_id,
                                nodes[r],
                                pkt.inject_cycle,
                                cycle,
                                False,
                                src=pkt.src,
                                corrupted=corrupted,
                            )
                        )
                        if corrupted:
                            stats.corrupted_deliveries += 1
                        wh_port[s] = -1
                        wh_vc[s] = -1
                        if not owned[s]:
                            raise ProtocolError(
                                f"release of free downstream VC (slot {s})"
                            )
                        owned[s] = False
                    elif fl & _F_HEAD:
                        # Multi-flit packet ejecting here: the worm follows.
                        wh_port[s] = _LOCAL
                    ring_flit[f] = None
                    head[s] = (head[s] + 1) % C
                    cnt = count[s] = count[s] - 1
                    if cnt == 0:
                        hol_ready.discard(s)
                    else:
                        ready = ring_ready[s * C + head[s]]
                        if ready > cycle + 1:
                            hol_ready.discard(s)
                            bucket = front_cal.get(ready)
                            if bucket is None:
                                front_cal[ready] = [s]
                            else:
                                bucket.append(s)
                    fr_valid[s] = False
                    fr_vc[s] = -1
                    if credits[s] >= C:
                        raise ProtocolError(f"credit overflow on slot {s}")
                    credits[s] += 1
                    continue
                # Crossbar (crosspoint EN count kept on the reference
                # Router's crossbar object for the energy model; the
                # u-turn guard matches Crossbar.connect).
                if in_p == out_p:
                    raise ProtocolError(
                        f"u-turn through crossbar at port {out_p}"
                    )
                xbar = xbar_list[r]
                key = _PORT_PAIRS[in_p][out_p]
                xcounts = xbar.crosspoint_counts
                xcounts[key] = xcounts.get(key, 0) + 1
                xbar.traversals += 1
                n_switched += 1
                # Downstream credit.
                target = targets[out_p] + ov
                if credits[target] <= 0:
                    raise ProtocolError(f"credit underflow on VC {ov}")
                credits[target] -= 1
                # Link dispatch (Link.dispatch inlined).  The reference
                # sends a branch copy because multicast forks need
                # per-branch destination subsets; a unicast flit's single
                # branch carries its full dest set, so the flit itself
                # travels.  Every per-flit channel decision (drop
                # absorption is keyed by flit identity, added at send and
                # consumed at arrival) balances within one hop, so
                # identity reuse across hops is inert.
                li = link_of_r[out_p]
                link = links[li]
                link.traversals += 1
                if payload_on:
                    # Data-dependent energy: whole-word XOR + popcount
                    # transition counting (Link.count_payload), at the
                    # same pipeline point the reference counts — the
                    # per-link counters are part of the parity contract.
                    link.count_payload(front)
                if fault_layer is None:
                    # Fault channels only exist under an attached
                    # FaultLayer (the engine contract; see module doc) —
                    # skip the per-link consult entirely without one.
                    arrival = cycle + link.latency
                    sent = front
                else:
                    channel = link.channel
                    if channel is None:
                        arrival = cycle + link.latency
                        sent = front
                    else:
                        arrival, sent = channel.transmit(link, front, cycle)
                entry = (li, sent, ov, fl, ring_dest[f])
                if arrival != memo_arrival:
                    # Same-arrival-cycle memo: with uniform link latency
                    # (the common case) every send this cycle lands in
                    # one calendar bucket.
                    memo_bucket = arrivals_cal.get(arrival)
                    if memo_bucket is None:
                        memo_bucket = arrivals_cal[arrival] = []
                    memo_arrival = arrival
                memo_bucket.append(entry)
                link_inflight[li] += 1
                n_sent += 1
                # Pop (reference Router._pop inlined).
                ring_flit[f] = None
                head[s] = (head[s] + 1) % C
                cnt = count[s] = count[s] - 1
                if cnt == 0:
                    hol_ready.discard(s)
                else:
                    ready = ring_ready[s * C + head[s]]
                    if ready > cycle + 1:
                        hol_ready.discard(s)
                        bucket = front_cal.get(ready)
                        if bucket is None:
                            front_cal[ready] = [s]
                        else:
                            bucket.append(s)
                if fl & _F_TAIL:
                    wh_port[s] = -1
                    wh_vc[s] = -1
                    if not owned[s]:
                        raise ProtocolError(
                            f"release of free downstream VC (slot {s})"
                        )
                    owned[s] = False
                fr_valid[s] = False
                fr_vc[s] = -1
                if credits[s] >= C:
                    raise ProtocolError(f"credit overflow on slot {s}")
                credits[s] += 1

        if n_writes:
            stats.buffer_writes += n_writes
        if n_bypassed:
            stats.bypassed_flits += n_bypassed
        if n_reads:
            stats.buffer_reads += n_reads
        if n_switched:
            stats.crossbar_traversals += n_switched
            stats.link_traversals += n_switched
        if n_sent:
            self._inflight_total += n_sent
        # Cold-path ejections decrement the buffer total in _pop;
        # switched flits and fast-path ejections pop inline above.
        self._buffered_total += n_writes - n_switched - n_ejected
        self.cycle += 1

    # --- ejection (the cold half of traversal) ----------------------------------------

    def _eject(
        self, cycle: int, r: int, s: int, f: int, fl: int, front: Flit
    ) -> None:
        stats = self.stats
        fault_layer = self.fault_layer
        node = self._nodes[r]
        is_head = bool(fl & _F_HEAD)
        is_tail = bool(fl & _F_TAIL)
        if self._ring_dest[f] != r:
            if fault_layer is None:
                raise ProtocolError(
                    f"LOCAL branch with foreign dests {front.dests}"
                )
            # Adaptive-reroute escape hatch: unreachable destination,
            # counted discard instead of a wedged network.
            stats.ejections += 1
            if is_head and not is_tail:
                self._wh_port[s] = _LOCAL
            fault_layer.on_undeliverable(front, node)
            self._pop(s, f, is_tail)
            return
        stats.ejections += 1
        if is_head and not is_tail:
            # Multi-flit packet ejecting here: the worm follows.
            self._wh_port[s] = _LOCAL
        if is_tail:
            corrupted = front.corrupted
            if fault_layer is not None:
                corrupted = corrupted or fault_layer.packet_corrupted(
                    front.packet
                )
            stats.record_delivery(
                front.packet.packet_id,
                node,
                front.packet.inject_cycle,
                cycle,
                via_tap=False,
                src=front.packet.src,
                corrupted=corrupted,
            )
            if fault_layer is not None:
                fault_layer.on_delivery(front, node, cycle, corrupted)
        self._pop(s, f, is_tail)

    # --- drain bookkeeping ------------------------------------------------------------

    def _flits_in_network(self) -> bool:
        # With no flit buffered, no arrival or front-readiness entry is
        # pending either, so an idle-cycle jump leaves the calendars
        # consistent.
        if self._inflight_total or self._nic_staged or self._buffered_total:
            return True
        for nic in self._nic_list:
            if nic.backlog:
                return True
        return False

    def _next_scheduled_event(self) -> int | None:
        candidates = list(self._arrivals.keys())
        if self.fault_layer is not None:
            event = self.fault_layer.next_event_cycle()
            if event is not None:
                candidates.append(event)
        return min(candidates) if candidates else None

    def _drain_diagnostic(self) -> str:
        busy_links = [
            li for li, n in enumerate(self._link_inflight) if n > 0
        ]
        backlog = sum(nic.backlog for nic in self._nic_list)
        parts = [
            f"cycle={self.cycle}",
            f"links_in_flight={len(busy_links)}",
            f"buffered_flits={sum(self._count)}",
            f"staged_flits={len(self._nic_staged)}",
            f"nic_backlog={backlog}",
        ]
        if busy_links:
            worst = sorted(
                busy_links, key=lambda li: -self._link_inflight[li]
            )[:3]
            parts.append(
                "busiest_links="
                + ",".join(self.links[li].token for li in worst)
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


__all__ = ["FastNocSimulator"]
