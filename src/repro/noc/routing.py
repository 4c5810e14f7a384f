"""Routing: dimension order on grids, table dispatch elsewhere.

XY routing is the standard deadlock-free choice for meshes: traverse X
fully, then Y.  Table-routed topologies (torus, chiplet NoC/NoI) use
their precomputed up*/down* next-hop tables instead — every function
here dispatches through :func:`next_port` so both families share one
code path.  The multicast tree is the natural generalization —
destinations are partitioned by the output port the routing function
would choose, and a fork replicates the flit per needed port.  Because
every branch still follows one acyclic routing relation (XY order, or
one fixed up*/down* table), the tree is cycle-free and inherits the
underlying deadlock freedom; :func:`routing_cdg_edges` builds the
channel dependency graph so tests can verify acyclicity per topology
class.

The module also computes *tap* opportunities: the SRLR datapath exposes
full-swing data at every intermediate repeater (Section II), so a
destination lying on a straight-through segment of the tree can be
served without a separate ejection traversal.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.noc.packet import Flit
from repro.noc.topology import NodeId, Port, Topology


def xy_route(current: NodeId, dest: NodeId) -> Port:
    """The output port XY dimension-order routing takes toward ``dest``."""
    if current == dest:
        return Port.LOCAL
    cx, cy = current
    dx, dy = dest
    if dx > cx:
        return Port.EAST
    if dx < cx:
        return Port.WEST
    if dy > cy:
        return Port.NORTH
    return Port.SOUTH


def yx_route(current: NodeId, dest: NodeId) -> Port:
    """The YX dimension order: traverse Y fully, then X (O1TURN's twin)."""
    if current == dest:
        return Port.LOCAL
    cx, cy = current
    dx, dy = dest
    if dy > cy:
        return Port.NORTH
    if dy < cy:
        return Port.SOUTH
    if dx > cx:
        return Port.EAST
    return Port.WEST


def next_port(
    topology: Topology, current: NodeId, dest: NodeId, order: str = "xy"
):
    """The output port routing takes toward ``dest`` at ``current``.

    Dimension order on grids (honoring ``order``), a table lookup on
    table-routed topologies (which have a single routing class).
    """
    if topology.table_routed:
        return topology.route_port(current, dest)
    return yx_route(current, dest) if order == "yx" else xy_route(current, dest)


def route_ports(
    topology: Topology, current: NodeId, flit: Flit
) -> dict[Port, frozenset[NodeId]]:
    """Partition a flit's destinations by output port at ``current``.

    Uses the packet's dimension order ("xy" or "yx") on grid
    topologies and the topology's precomputed table elsewhere.  Returns
    {port: destination subset}; LOCAL appears when this router is itself
    a destination.  Unicast flits always map to a single entry.
    """
    if not topology.contains(current):
        raise RoutingError(f"router {current} outside the {topology.kind}")
    if topology.table_routed:
        table_partition: dict = {}
        for dest in flit.dests:
            if not topology.contains(dest):
                raise RoutingError(
                    f"destination {dest} outside the {topology.kind}"
                )
            port = topology.route_port(current, dest)
            table_partition.setdefault(port, set()).add(dest)
        return {
            port: frozenset(dests) for port, dests in table_partition.items()
        }
    route = yx_route if flit.packet.routing == "yx" else xy_route
    partition: dict[Port, set[NodeId]] = {}
    for dest in flit.dests:
        if not topology.contains(dest):
            raise RoutingError(f"destination {dest} outside the mesh")
        partition.setdefault(route(current, dest), set()).add(dest)
    return {port: frozenset(dests) for port, dests in partition.items()}


def multicast_tree_links(
    topology: Topology, src: NodeId, dests: frozenset[NodeId]
) -> set[tuple[NodeId, Port]]:
    """All (router, out_port) hops of the multicast tree, counted once.

    This is the link-traversal cost of a tree multicast; the same set of
    destinations served as independent unicasts costs the *sum* of their
    paths, which double-counts every shared prefix — the multicast
    energy advantage quantified in the E11 bench.  The tree follows XY
    on grids and the up*/down* table on table-routed topologies; either
    way all branches share one acyclic routing relation, so the tree is
    cycle- and deadlock-free.
    """
    hops: set[tuple[NodeId, Port]] = set()
    for dest in dests:
        node = src
        while node != dest:
            port = next_port(topology, node, dest)
            hops.add((node, port))
            nxt = topology.neighbor(node, port)
            if nxt is None:
                raise RoutingError(
                    f"routing fell off the {topology.kind} at {node} "
                    f"toward {dest}"
                )
            node = nxt
    return hops


def unicast_path_hops(topology: Topology, src: NodeId, dest: NodeId) -> int:
    """Hop count of the unicast path (Manhattan distance on the mesh)."""
    if topology.table_routed:
        return len(unicast_path(topology, src, dest)) if src != dest else 0
    return topology.hop_distance(src, dest)


def unicast_path(
    topology: Topology, src: NodeId, dest: NodeId, order: str = "xy"
) -> list[tuple[NodeId, Port]]:
    """The (node, out_port) hops of the routed unicast path, in order."""
    path: list[tuple[NodeId, Port]] = []
    node = src
    while node != dest:
        port = next_port(topology, node, dest, order)
        path.append((node, port))
        nxt = topology.neighbor(node, port)
        if nxt is None:
            raise RoutingError(
                f"routing fell off the {topology.kind} at {node} toward {dest}"
            )
        node = nxt
        if len(path) > 4 * len(topology.nodes()):
            raise RoutingError(f"routing loop from {src} toward {dest}")
    return path


def routing_cdg_edges(
    topology: Topology, order: str = "xy"
) -> set[tuple[tuple[NodeId, Port], tuple[NodeId, Port]]]:
    """The channel dependency graph of a topology's routing relation.

    Channels are directed links (src, out_port); an edge (c1, c2) means
    some routed path holds c1 while requesting c2 — the wormhole
    dependency that deadlocks when the graph has a cycle.  Built by
    walking the routed path of every ordered router pair.
    """
    edges: set[tuple[tuple[NodeId, Port], tuple[NodeId, Port]]] = set()
    nodes = topology.nodes()
    for src in nodes:
        for dest in nodes:
            if src == dest:
                continue
            try:
                path = unicast_path(topology, src, dest, order)
            except (RoutingError, KeyError):
                continue  # unreachable pair (partitioned alive set)
            for a, b in zip(path, path[1:]):
                edges.add((a, b))
    return edges


def routing_is_deadlock_free(topology: Topology, order: str = "xy") -> bool:
    """True iff the routing channel dependency graph is acyclic."""
    edges = routing_cdg_edges(topology, order)
    out: dict = {}
    indeg: dict = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
        indeg[b] = indeg.get(b, 0) + 1
        indeg.setdefault(a, indeg.get(a, 0))
    # Kahn's algorithm: the graph is acyclic iff every vertex drains.
    ready = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == len(indeg)


def tap_destinations(
    topology: Topology, src: NodeId, dests: frozenset[NodeId]
) -> frozenset[NodeId]:
    """Destinations servable as free SRLR taps on the XY tree.

    A destination is a *tap* when the tree continues straight through its
    router in the same dimension (the pulse passes its SRLR anyway, and
    the full-swing repeated data can be latched locally).  Destinations at
    tree leaves or at turn points still need a normal ejection.
    """
    tree = multicast_tree_links(topology, src, dests)
    taps: set[NodeId] = set()
    for dest in dests:
        # The port the tree uses to *enter* dest's router.
        entering = [
            port
            for (node, port) in tree
            if topology.neighbor(node, port) == dest
        ]
        if not entering:
            continue
        in_port = entering[0]
        # Straight-through continuation: the tree leaves dest on the same
        # axis it entered (E->E, W->W, N->N, S->S).
        leaving = {port for (node, port) in tree if node == dest}
        if in_port in leaving:
            taps.add(dest)
    return frozenset(taps)


__all__ = [
    "multicast_tree_links",
    "next_port",
    "route_ports",
    "routing_cdg_edges",
    "routing_is_deadlock_free",
    "tap_destinations",
    "unicast_path",
    "unicast_path_hops",
    "xy_route",
    "yx_route",
]
