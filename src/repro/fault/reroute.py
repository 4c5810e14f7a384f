"""Fault-aware routing: shortest paths around disabled links.

:class:`AdaptiveRoutingTable` maintains per-destination next-hop tables
over the *alive* subset of a topology's links, recomputed whenever the
link-disable monitor kills a link.  On grid topologies (mesh,
concentrated mesh) tie-breaks prefer the port XY dimension-order
routing would take, so with no links disabled the table reproduces
:func:`repro.noc.routing.xy_route` exactly — the parity anchor that
keeps fault-free behavior bitwise unchanged.  Table-routed topologies
(torus, chiplet) instead delegate to
``Topology.build_routing_table(alive=...)``, which re-runs the
up*/down* construction over the surviving links — detours there keep
the same turn restrictions and stay deadlock-free.

Deadlock caveat (grids only): on an intact mesh the table *is* XY and
inherits its deadlock freedom.  With links disabled the detour paths
can in principle create channel-dependence cycles; the simulator's
livelock detection (bounded drain with a stall diagnostic) converts
that from a silent hang into a loud failure.  ``docs/FAULTS.md``
discusses the limitation.
"""

from __future__ import annotations

from collections import deque

from repro.noc.packet import Flit
from repro.noc.routing import route_ports, xy_route
from repro.noc.topology import NodeId, Port, Topology

_DIRECTIONS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)


class AdaptiveRoutingTable:
    """Next-hop routing over the alive links of a topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._alive: set[tuple[NodeId, Port]] = {
            (src, port) for src, port, _dst in topology.links()
        }
        self._disabled: list[tuple[NodeId, Port]] = []
        #: next_hop[dest][node] -> Port toward dest (LOCAL at dest itself).
        self._next_hop: dict[NodeId, dict[NodeId, Port]] = {}
        self._recompute()

    # --- link lifecycle ---------------------------------------------------------------

    @property
    def disabled_links(self) -> list[tuple[NodeId, Port]]:
        return list(self._disabled)

    def disable(self, src: NodeId, port: Port) -> None:
        """Remove a directed link and recompute every route."""
        if (src, port) in self._alive:
            self._alive.discard((src, port))
            self._disabled.append((src, port))
            self._recompute()

    # --- routing ----------------------------------------------------------------------

    def next_hop(self, node: NodeId, dest: NodeId) -> Port | None:
        """Port toward ``dest`` from ``node``; None when unreachable."""
        return self._next_hop[dest].get(node)

    def reachable(self, src: NodeId, dest: NodeId) -> bool:
        return src == dest or self.next_hop(src, dest) is not None

    def partition(
        self, topology: Topology, node: NodeId, flit: Flit, in_port: Port
    ) -> dict[Port, frozenset[NodeId]]:
        """Drop-in :func:`repro.noc.routing.route_ports` replacement.

        Unicast flits follow the alive-link table; an unreachable
        destination maps to LOCAL, which the router treats as a counted
        discard (the escape hatch for partitions).  So does a next hop
        back out of ``in_port``: a flit that crossed a link just before
        the link ahead died can find its new shortest path behind it,
        and the crossbar has no u-turn crosspoint to send it there.
        Multicast trees stay on the XY construction — fault campaigns
        drive unicast traffic.
        """
        if len(flit.dests) > 1:
            return route_ports(topology, node, flit)
        dest = next(iter(flit.dests))
        port = self.next_hop(node, dest)
        if port is None or port == in_port:
            return {Port.LOCAL: flit.dests}
        return {port: flit.dests}

    # --- table construction -----------------------------------------------------------

    def _recompute(self) -> None:
        if self.topology.table_routed:
            # Up*/down* topologies rebuild their own table over the
            # alive links: detours keep the turn restrictions, so the
            # recomputed routes stay deadlock-free by construction.
            self._next_hop = self.topology.build_routing_table(
                alive=self._alive
            )
            return
        nodes = self.topology.nodes()
        # Forward adjacency: node -> [(port, neighbor)] over alive links.
        adjacency: dict[NodeId, list[tuple[Port, NodeId]]] = {n: [] for n in nodes}
        predecessors: dict[NodeId, list[tuple[NodeId, Port]]] = {n: [] for n in nodes}
        for node in nodes:
            for port in _DIRECTIONS:
                if (node, port) not in self._alive:
                    continue
                neighbor = self.topology.neighbor(node, port)
                if neighbor is None:
                    continue
                adjacency[node].append((port, neighbor))
                predecessors[neighbor].append((node, port))
        self._next_hop = {}
        for dest in nodes:
            dist: dict[NodeId, int] = {dest: 0}
            frontier = deque([dest])
            while frontier:
                node = frontier.popleft()
                for upstream, _port in predecessors[node]:
                    if upstream not in dist:
                        dist[upstream] = dist[node] + 1
                        frontier.append(upstream)
            table: dict[NodeId, Port] = {dest: Port.LOCAL}
            for node in nodes:
                if node == dest or node not in dist:
                    continue
                candidates = [
                    port
                    for port, neighbor in adjacency[node]
                    if dist.get(neighbor) == dist[node] - 1
                ]
                preferred = xy_route(node, dest)
                table[node] = (
                    preferred if preferred in candidates else min(candidates)
                )
            self._next_hop[dest] = table


__all__ = ["AdaptiveRoutingTable"]
