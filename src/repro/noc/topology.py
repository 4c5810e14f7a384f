"""Topology family: flat mesh, concentrated mesh, torus, chiplet NoC/NoI.

The paper's NoC context (Fig. 1/2) is a k x k mesh of 5-port routers
joined by the 1 mm wires the SRLR is sized to drive.  This module keeps
that mesh bit-identical and generalizes it into a family:

* :class:`MeshTopology` — the flat k x k mesh (XY/YX dimension order);
* :class:`ConcentratedMesh` — the same router mesh with a concentration
  factor ``c``: each router serves a block of ``c`` cores, so the core
  grid is wider than the router grid and same-router traffic never
  enters the network;
* :class:`TorusTopology` — k x k with wraparound links, routed by a
  precomputed up*/down* table (minimal dimension order on a torus needs
  dateline VCs, which the router pipeline does not model);
* :class:`ChipletNoc` — a two-level NoC/NoI hierarchy in the style of
  gem5's SimpleChiplet/Kite builders: ``chiplets_x x chiplets_y`` local
  meshes, each with a gateway router uplinked to a per-chiplet interface
  router, the interface routers forming the inter-chiplet NoI mesh whose
  links may be physically longer than NoC links (``noi_scale``).

Coordinates are (x, y) with x growing east and y growing north.  Ports
are small ints with 0 = LOCAL always; grid topologies use the
:class:`Port` IntEnum members (which hash and compare equal to their int
values), so all existing mesh behavior — wiring order, arbiter
iteration, routing — is unchanged.

Routing is either dimension-order (mesh, concentrated mesh: provably
deadlock-free on a grid) or a precomputed per-topology next-hop table
built by :func:`updown_routing_table` (torus, chiplet).  Up*/down*
orders the channels along a BFS spanning tree — every legal path takes
"up" (toward the root) links first, then "down" links, so the channel
dependency graph is acyclic by construction; the property tests in
``tests/test_noc_topology_family.py`` verify acyclicity for every
topology class, and the adaptive fault reroute recomputes the same
table over the alive-link subset.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from enum import IntEnum

from repro.errors import ConfigurationError


class Port(IntEnum):
    """Router ports; LOCAL is the core injection/ejection port."""

    LOCAL = 0
    NORTH = 1
    SOUTH = 2
    EAST = 3
    WEST = 4


#: The port a flit arrives on when it was sent out of ``port`` upstream.
OPPOSITE: dict[Port, Port] = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
}

#: The chiplet hierarchy's vertical port: gateway <-> interface router.
PORT_UP = 5

NodeId = tuple[int, int]

#: Builder names accepted by :func:`build_topology`.
TOPOLOGY_KINDS = ("mesh", "cmesh", "torus", "chiplet")

#: Derived structures (adjacency, tables, BFS distances, route lengths)
#: per topology value: equal topologies share one entry dict, and the
#: frozen dataclasses stay immutable.
_MEMO: dict["Topology", dict[str, object]] = {}


class Topology:
    """Shared interface of the topology family.

    A topology is a frozen value object describing routers (nodes),
    per-node ports (adjacency — not a fixed 5-port assumption), directed
    links, endpoints (where traffic injects), and how packets route.
    """

    #: Builder name ("mesh", "cmesh", "torus", "chiplet").
    kind = "abstract"
    #: True when routing uses a precomputed next-hop table (torus,
    #: chiplet) rather than XY/YX dimension order evaluated per hop.
    #: Table topologies have a single routing class, so O1TURN (which
    #: needs the disjoint XY/YX pair) is a configuration error on them.
    table_routed = False
    #: True when the endpoints are exactly the k x k router grid, which
    #: lets the traffic generator use its batched mesh hot path.
    grid_endpoints = True

    # --- memo -----------------------------------------------------------------------

    @functools.cached_property
    def _memo_entries(self) -> dict[str, object]:
        """This value's entry dict in :data:`_MEMO`, hashed once per
        instance instead of once per lookup."""
        return _MEMO.setdefault(self, {})

    def _memo(self, name: str, build):
        entries = self._memo_entries
        value = entries.get(name)
        if value is None:
            value = entries[name] = build()
        return value

    # --- structure ------------------------------------------------------------------

    def nodes(self) -> list[NodeId]:
        raise NotImplementedError

    @property
    def n_nodes(self) -> int:
        return len(self.nodes())

    def contains(self, node: NodeId) -> bool:
        raise NotImplementedError

    def node_ports(self, node: NodeId) -> tuple:
        """All ports of ``node`` (LOCAL included), in arbiter order."""
        raise NotImplementedError

    def neighbor(self, node: NodeId, port) -> NodeId | None:
        """The node reached through ``port``, or None when unconnected."""
        raise NotImplementedError

    def links(self) -> list[tuple[NodeId, object, NodeId]]:
        """All directed router-to-router links as (src, out_port, dst)."""
        return [
            (node, port, nb)
            for node in self.nodes()
            for port, nb in self._adjacency()[node]
        ]

    def directed_links(self) -> list[tuple[NodeId, object, NodeId, object]]:
        """Links with the far-end input port: (src, out_port, dst, in_port)."""
        adjacency = self._adjacency()
        out = []
        for src, port, dst in self.links():
            in_port = next(p for p, nb in adjacency[dst] if nb == src)
            out.append((src, port, dst, in_port))
        return out

    def _adjacency(self) -> dict[NodeId, tuple]:
        """node -> ((port, neighbor), ...) over connected non-LOCAL ports."""

        def build():
            table = {}
            for node in self.nodes():
                entries = []
                for port in self.node_ports(node):
                    nb = self.neighbor(node, port)
                    if nb is not None:
                        entries.append((port, nb))
                table[node] = tuple(entries)
            return table

        return self._memo("adjacency", build)

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Minimal hops between two routers (BFS on the link graph)."""

        def build():
            adjacency = self._adjacency()
            dists: dict[NodeId, dict[NodeId, int]] = {}
            for src in self.nodes():
                dist = {src: 0}
                frontier = deque([src])
                while frontier:
                    node = frontier.popleft()
                    for _port, nb in adjacency[node]:
                        if nb not in dist:
                            dist[nb] = dist[node] + 1
                            frontier.append(nb)
                dists[src] = dist
            return dists

        for n in (a, b):
            if not self.contains(n):
                raise ConfigurationError(f"node {n} outside {self.kind} topology")
        return self._memo("bfs", build)[a][b]

    @property
    def diameter(self) -> int:
        """Maximum router-to-router hop distance."""

        def build():
            nodes = self.nodes()
            return max(
                self.hop_distance(a, b) for a in nodes for b in nodes
            )

        return self._memo("diameter", build)

    # --- endpoints (where traffic injects) --------------------------------------------

    def endpoints(self) -> list[NodeId]:
        """Traffic injection points, in generation order.

        For the flat mesh and torus these are the routers themselves;
        a concentrated mesh exposes its (wider) core grid; a chiplet
        hierarchy exposes the core routers but not the interface
        routers.
        """
        return self.nodes()

    def endpoint_grid(self) -> tuple[int, int]:
        """(width, height) of the endpoint coordinate grid."""
        raise NotImplementedError

    def endpoint_router(self, endpoint: NodeId) -> NodeId:
        """The router serving ``endpoint`` (identity unless concentrated)."""
        return endpoint

    # --- routing ----------------------------------------------------------------------

    def route_port(self, node: NodeId, dest: NodeId):
        """Next-hop port toward ``dest`` (table topologies only)."""
        raise NotImplementedError(f"{self.kind} routes by dimension order")

    def routing_table(self) -> dict[NodeId, dict[NodeId, object]]:
        """dest -> {node: next-hop port} (table topologies only)."""
        raise NotImplementedError(f"{self.kind} routes by dimension order")

    def build_routing_table(
        self, alive=None
    ) -> dict[NodeId, dict[NodeId, object]]:
        """Recompute the table over an alive subset of directed links.

        ``alive`` is a set of (src, out_port) pairs; None means every
        link.  Used by the adaptive fault reroute — the recomputed table
        keeps the same up*/down* turn restrictions, so detour paths stay
        deadlock-free.
        """
        raise NotImplementedError(f"{self.kind} routes by dimension order")

    def route_table_ints(self, nodes: list[NodeId]) -> list[list[int]]:
        """The table as ints over node indices, for the batch engine."""
        table = self.routing_table()
        return [
            [int(table[dest].get(node, 0)) for dest in nodes]
            for node in nodes
        ]

    # --- physical attributes ----------------------------------------------------------

    def straight_port(self, node: NodeId, in_port):
        """The output port continuing straight through ``node``.

        Used by the SRLR tap model: a multicast passing straight through
        a router can latch locally for free.  None disables taps at this
        (node, in_port); grid topologies return the compass opposite.
        """
        return None

    def link_scale(self, src: NodeId, out_port) -> float:
        """Physical length of link (src, out_port) relative to 1 NoC mm.

        1.0 for on-chip NoC links; chiplet NoI links are longer
        (``noi_scale``), which the effective-fJ/bit/mm accounting picks
        up per link.
        """
        return 1.0

    def route_mm(self, src: NodeId, dest: NodeId) -> float:
        """Routed path length in link-mm units (= hops when uniform)."""
        return self.hop_distance(src, dest)


@dataclass(frozen=True)
class MeshTopology(Topology):
    """A k x k mesh of 5-port routers."""

    k: int

    kind = "mesh"

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ConfigurationError(f"mesh radix k must be >= 2, got {self.k}")

    @property
    def n_nodes(self) -> int:
        return self.k * self.k

    def nodes(self) -> list[NodeId]:
        return [(x, y) for y in range(self.k) for x in range(self.k)]

    def contains(self, node: NodeId) -> bool:
        x, y = node
        return 0 <= x < self.k and 0 <= y < self.k

    def node_ports(self, node: NodeId) -> tuple:
        return tuple(Port)

    def neighbor(self, node: NodeId, port: Port) -> NodeId | None:
        """The node reached through ``port``, or None at the mesh edge."""
        if not self.contains(node):
            raise ConfigurationError(f"node {node} outside {self.k}x{self.k} mesh")
        x, y = node
        if port == Port.NORTH:
            dest = (x, y + 1)
        elif port == Port.SOUTH:
            dest = (x, y - 1)
        elif port == Port.EAST:
            dest = (x + 1, y)
        elif port == Port.WEST:
            dest = (x - 1, y)
        else:
            return None
        return dest if self.contains(dest) else None

    def links(self) -> list[tuple[NodeId, Port, NodeId]]:
        """All directed router-to-router links as (src, out_port, dst)."""
        out = []
        for node in self.nodes():
            for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST):
                neighbor = self.neighbor(node, port)
                if neighbor is not None:
                    out.append((node, port, neighbor))
        return out

    def directed_links(self) -> list[tuple[NodeId, Port, NodeId, Port]]:
        return [
            (src, port, dst, OPPOSITE[port]) for src, port, dst in self.links()
        ]

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Manhattan distance in hops."""
        for n in (a, b):
            if not self.contains(n):
                raise ConfigurationError(f"node {n} outside {self.k}x{self.k} mesh")
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    @property
    def diameter(self) -> int:
        return 2 * (self.k - 1)

    def endpoint_grid(self) -> tuple[int, int]:
        return (self.k, self.k)

    def straight_port(self, node: NodeId, in_port):
        return OPPOSITE.get(in_port)


def _concentration_block(c: int) -> tuple[int, int]:
    """Factor a concentration ``c`` into an (sx, sy) core block."""
    sy = max(d for d in range(1, int(math.isqrt(c)) + 1) if c % d == 0)
    return c // sy, sy


@dataclass(frozen=True)
class ConcentratedMesh(MeshTopology):
    """A k x k router mesh with ``c`` cores concentrated per router.

    The router network — wiring, XY/YX routing, VC flow control — is
    exactly the flat mesh's; concentration only changes the endpoint
    set: cores tile a (k*sx) x (k*sy) grid where (sx, sy) is the most
    square factorization of ``c``, and ``endpoint_router`` maps each
    core block onto its shared router.  Core pairs that share a router
    exchange traffic locally and never enter the network.
    """

    c: int = 2

    kind = "cmesh"
    grid_endpoints = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.c < 2:
            raise ConfigurationError(
                f"concentration must be >= 2, got {self.c}"
            )

    @property
    def block(self) -> tuple[int, int]:
        """Cores per router as an (sx, sy) block."""
        return _concentration_block(self.c)

    def endpoints(self) -> list[NodeId]:
        w, h = self.endpoint_grid()
        return [(x, y) for y in range(h) for x in range(w)]

    def endpoint_grid(self) -> tuple[int, int]:
        sx, sy = self.block
        return (self.k * sx, self.k * sy)

    def endpoint_router(self, endpoint: NodeId) -> NodeId:
        sx, sy = self.block
        x, y = endpoint
        router = (x // sx, y // sy)
        if not self.contains(router) or not (0 <= x and 0 <= y):
            raise ConfigurationError(
                f"core {endpoint} outside the {self.k * sx}x{self.k * sy} "
                f"core grid"
            )
        return router


@dataclass(frozen=True)
class TorusTopology(Topology):
    """A k x k torus: the mesh plus wraparound links on both axes.

    Dimension-order routing deadlocks on the wrap cycles without
    dateline VCs, so the torus routes by a precomputed up*/down* table
    (:func:`updown_routing_table`) — deadlock-free on the plain VC
    pipeline at the price of non-minimal paths near the root.
    """

    k: int

    kind = "torus"
    table_routed = True

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ConfigurationError(
                f"torus radix k must be >= 3 (k=2 degenerates to parallel "
                f"wrap links), got {self.k}"
            )

    @property
    def n_nodes(self) -> int:
        return self.k * self.k

    def nodes(self) -> list[NodeId]:
        return [(x, y) for y in range(self.k) for x in range(self.k)]

    def contains(self, node: NodeId) -> bool:
        x, y = node
        return 0 <= x < self.k and 0 <= y < self.k

    def node_ports(self, node: NodeId) -> tuple:
        return tuple(Port)

    def neighbor(self, node: NodeId, port) -> NodeId | None:
        if not self.contains(node):
            raise ConfigurationError(
                f"node {node} outside {self.k}x{self.k} torus"
            )
        x, y = node
        k = self.k
        if port == Port.NORTH:
            return (x, (y + 1) % k)
        if port == Port.SOUTH:
            return (x, (y - 1) % k)
        if port == Port.EAST:
            return ((x + 1) % k, y)
        if port == Port.WEST:
            return ((x - 1) % k, y)
        return None

    def links(self) -> list[tuple[NodeId, Port, NodeId]]:
        return [
            (node, port, self.neighbor(node, port))
            for node in self.nodes()
            for port in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)
        ]

    def directed_links(self) -> list[tuple[NodeId, Port, NodeId, Port]]:
        return [
            (src, port, dst, OPPOSITE[port]) for src, port, dst in self.links()
        ]

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Wraparound Manhattan distance (each axis takes the short way)."""
        for n in (a, b):
            if not self.contains(n):
                raise ConfigurationError(
                    f"node {n} outside {self.k}x{self.k} torus"
                )
        k = self.k
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        return min(dx, k - dx) + min(dy, k - dy)

    @property
    def diameter(self) -> int:
        return 2 * (self.k // 2)

    def endpoint_grid(self) -> tuple[int, int]:
        return (self.k, self.k)

    def straight_port(self, node: NodeId, in_port):
        return OPPOSITE.get(in_port)

    def routing_table(self):
        return self._memo(
            "table",
            lambda: updown_routing_table(self.nodes(), self._adjacency()),
        )

    def build_routing_table(self, alive=None):
        if alive is None:
            return self.routing_table()
        return updown_routing_table(self.nodes(), self._adjacency(), alive)

    def route_port(self, node: NodeId, dest: NodeId):
        return self.routing_table()[dest][node]


@dataclass(frozen=True)
class ChipletNoc(Topology):
    """A two-level chiplet NoC/NoI hierarchy (gem5 SimpleChiplet style).

    ``chiplets_x x chiplets_y`` chiplets, each a ``chiplet_k``-radix
    local mesh of core routers at global grid coordinates.  Each
    chiplet's gateway router (its local (0, 0)) uplinks through port
    :data:`PORT_UP` to a per-chiplet *interface* router; the interface
    routers form the inter-chiplet NoI mesh.  Interface router ``i`` of
    chiplet (cx, cy) sits at node ``(W + cx, cy)`` where ``W`` is the
    core-grid width, keeping every NodeId a non-negative (x, y) pair.

    NoI links are physically longer than the 1 mm NoC links by
    ``noi_scale`` — the effective-fJ/bit/mm accounting prices them per
    link.  Routing is a global up*/down* table over the whole two-level
    graph; the heterogeneous port counts (gateways and interface
    routers have 6 ports) are what force per-node adjacency throughout
    the stack.
    """

    chiplets_x: int = 2
    chiplets_y: int = 2
    chiplet_k: int = 2
    noi_scale: float = 2.0

    kind = "chiplet"
    table_routed = True
    grid_endpoints = False

    def __post_init__(self) -> None:
        if self.chiplet_k < 2:
            raise ConfigurationError(
                f"chiplet_k must be >= 2, got {self.chiplet_k}"
            )
        for name, value in (
            ("chiplets_x", self.chiplets_x),
            ("chiplets_y", self.chiplets_y),
        ):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.chiplets_x * self.chiplets_y < 2:
            raise ConfigurationError(
                "a chiplet hierarchy needs at least 2 chiplets "
                "(chiplets_x * chiplets_y >= 2); use topology='mesh' "
                "for a single die"
            )
        if self.noi_scale <= 0.0:
            raise ConfigurationError(
                f"noi_scale must be > 0, got {self.noi_scale}"
            )

    # --- coordinate helpers -----------------------------------------------------------

    @property
    def core_grid(self) -> tuple[int, int]:
        return (
            self.chiplets_x * self.chiplet_k,
            self.chiplets_y * self.chiplet_k,
        )

    def interface_node(self, cx: int, cy: int) -> NodeId:
        return (self.core_grid[0] + cx, cy)

    def is_interface(self, node: NodeId) -> bool:
        return node[0] >= self.core_grid[0]

    def chiplet_of(self, node: NodeId) -> tuple[int, int]:
        """(cx, cy) chiplet indices of a core or interface router."""
        if self.is_interface(node):
            return (node[0] - self.core_grid[0], node[1])
        return (node[0] // self.chiplet_k, node[1] // self.chiplet_k)

    def gateway_node(self, cx: int, cy: int) -> NodeId:
        return (cx * self.chiplet_k, cy * self.chiplet_k)

    # --- structure --------------------------------------------------------------------

    def nodes(self) -> list[NodeId]:
        w, h = self.core_grid
        cores = [(x, y) for y in range(h) for x in range(w)]
        interfaces = [
            self.interface_node(cx, cy)
            for cy in range(self.chiplets_y)
            for cx in range(self.chiplets_x)
        ]
        return cores + interfaces

    def contains(self, node: NodeId) -> bool:
        return node in self._memo("nodeset", lambda: set(self.nodes()))

    def node_ports(self, node: NodeId) -> tuple:
        if self.is_interface(node) or node == self.gateway_node(
            *self.chiplet_of(node)
        ):
            return (Port.LOCAL, Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST,
                    PORT_UP)
        return tuple(Port)

    def _adjacency(self) -> dict[NodeId, tuple]:
        def build():
            w, h = self.core_grid
            ck = self.chiplet_k
            table: dict[NodeId, list] = {n: [] for n in self.nodes()}
            # Local NoC meshes: compass links that stay inside a chiplet.
            for y in range(h):
                for x in range(w):
                    node = (x, y)
                    for port, (nx, ny) in (
                        (Port.NORTH, (x, y + 1)),
                        (Port.SOUTH, (x, y - 1)),
                        (Port.EAST, (x + 1, y)),
                        (Port.WEST, (x - 1, y)),
                    ):
                        if not (0 <= nx < w and 0 <= ny < h):
                            continue
                        if (nx // ck, ny // ck) != (x // ck, y // ck):
                            continue  # chiplet boundary: no direct NoC link
                        table[node].append((port, (nx, ny)))
            # Vertical uplinks and the NoI mesh over interface routers.
            for cy in range(self.chiplets_y):
                for cx in range(self.chiplets_x):
                    iface = self.interface_node(cx, cy)
                    gateway = self.gateway_node(cx, cy)
                    table[gateway].append((PORT_UP, iface))
                    table[iface].append((PORT_UP, gateway))
                    for port, (nx, ny) in (
                        (Port.NORTH, (cx, cy + 1)),
                        (Port.SOUTH, (cx, cy - 1)),
                        (Port.EAST, (cx + 1, cy)),
                        (Port.WEST, (cx - 1, cy)),
                    ):
                        if 0 <= nx < self.chiplets_x and 0 <= ny < self.chiplets_y:
                            table[iface].append(
                                (port, self.interface_node(nx, ny))
                            )
            return {
                node: tuple(sorted(entries, key=lambda e: int(e[0])))
                for node, entries in table.items()
            }

        return self._memo("adjacency", build)

    def neighbor(self, node: NodeId, port) -> NodeId | None:
        if not self.contains(node):
            raise ConfigurationError(f"node {node} outside the chiplet NoC")
        for p, nb in self._adjacency()[node]:
            if p == port:
                return nb
        return None

    # --- endpoints --------------------------------------------------------------------

    def endpoints(self) -> list[NodeId]:
        w, h = self.core_grid
        return [(x, y) for y in range(h) for x in range(w)]

    def endpoint_grid(self) -> tuple[int, int]:
        return self.core_grid

    # --- routing ----------------------------------------------------------------------

    def routing_table(self):
        return self._memo(
            "table",
            lambda: updown_routing_table(self.nodes(), self._adjacency()),
        )

    def build_routing_table(self, alive=None):
        if alive is None:
            return self.routing_table()
        return updown_routing_table(self.nodes(), self._adjacency(), alive)

    def route_port(self, node: NodeId, dest: NodeId):
        return self.routing_table()[dest][node]

    # --- physical attributes ----------------------------------------------------------

    def link_scale(self, src: NodeId, out_port) -> float:
        """NoI (interface-to-interface) links are ``noi_scale`` x longer."""
        if self.is_interface(src) and int(out_port) != PORT_UP:
            return self.noi_scale
        return 1.0

    def route_mm(self, src: NodeId, dest: NodeId) -> float:
        """Length of the routed path, per-link scales included; each
        (src, dest) pair is walked once per topology value."""
        lengths = self._memo("route_mm", dict)
        mm = lengths.get((src, dest))
        if mm is not None:
            return mm
        mm = 0.0
        node = src
        table = self.routing_table()[dest]
        while node != dest:
            port = table.get(node)
            if port is None or port == Port.LOCAL:
                raise ConfigurationError(f"no route {src} -> {dest}")
            mm += self.link_scale(node, port)
            node = self.neighbor(node, port)
        lengths[src, dest] = mm
        return mm


def updown_routing_table(
    nodes: list[NodeId],
    adjacency: dict[NodeId, tuple],
    alive=None,
) -> dict[NodeId, dict[NodeId, object]]:
    """Deadlock-free up*/down* next-hop tables over a link graph.

    ``adjacency`` maps node -> ((port, neighbor), ...); ``alive``
    optionally restricts to a set of (src, port) directed links (the
    fault layer's alive set).  Returns dest -> {node: port}, with
    ``Port.LOCAL`` at the destination itself; nodes with no legal path
    to a destination are absent from its table (the caller treats that
    as unreachable).

    Construction: BFS from the smallest node assigns each node a
    (level, discovery order) rank; a directed link is *up* when it
    decreases the rank.  Legal routes take up-links first, then
    down-links — the classic up*/down* turn restriction, whose channel
    dependency graph is acyclic because every up-channel points down
    the rank order and every down-channel points up it, with no
    down->up dependencies.  Next hops are chosen down-first (take the
    shortest all-down path when one exists, else climb), which makes
    the per-node tables *consistent*: once a packet starts descending
    it never climbs again, so the realized path of any (src, dest)
    pair is itself legal.  Ties break on the smallest port number.
    """
    usable: dict[NodeId, list] = {
        node: [
            (port, nb)
            for port, nb in adjacency[node]
            if alive is None or (node, port) in alive
        ]
        for node in nodes
    }
    # Rank nodes by BFS from the smallest node (deterministic order).
    root = min(nodes)
    rank: dict[NodeId, tuple[int, int]] = {root: (0, 0)}
    order = 1
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        level = rank[node][0]
        for _port, nb in sorted(usable[node], key=lambda e: int(e[0])):
            if nb not in rank:
                rank[nb] = (level + 1, order)
                order += 1
                frontier.append(nb)

    def is_up(src: NodeId, dst: NodeId) -> bool:
        return rank[dst] < rank[src]

    # Predecessor lists over the alive links, for backward BFS.
    preds: dict[NodeId, list] = {n: [] for n in nodes}
    for node in nodes:
        if node not in rank:
            continue
        for port, nb in usable[node]:
            if nb in rank:
                preds[nb].append((node, port))

    tables: dict[NodeId, dict[NodeId, object]] = {}
    inf = math.inf
    # Nodes in ascending rank: every up-neighbor precedes its source.
    by_rank = sorted((n for n in nodes if n in rank), key=lambda n: rank[n])
    for dest in nodes:
        if dest not in rank:
            tables[dest] = {}
            continue
        # d_down[n]: shortest n -> dest path using only down-links.
        d_down: dict[NodeId, float] = {dest: 0}
        frontier = deque([dest])
        while frontier:
            node = frontier.popleft()
            for pred, _port in preds[node]:
                if pred not in d_down and not is_up(pred, node):
                    d_down[pred] = d_down[node] + 1
                    frontier.append(pred)
        # total[n]: climb (up-links only) to the nearest all-down node.
        total: dict[NodeId, float] = {}
        for node in by_rank:
            if node in d_down:
                total[node] = d_down[node]
                continue
            best = inf
            for _port, nb in usable[node]:
                if is_up(node, nb):
                    t = total.get(nb, inf)
                    if t + 1 < best:
                        best = t + 1
            if best < inf:
                total[node] = best
        table: dict[NodeId, object] = {dest: Port.LOCAL}
        for node in by_rank:
            if node == dest or node not in total:
                continue
            want = total[node] - 1
            if node in d_down:
                choices = [
                    port
                    for port, nb in usable[node]
                    if not is_up(node, nb) and d_down.get(nb, inf) == want
                ]
            else:
                choices = [
                    port
                    for port, nb in usable[node]
                    if is_up(node, nb) and total.get(nb, inf) == want
                ]
            table[node] = min(choices, key=int)
        tables[dest] = table
    return tables


def build_topology(
    kind: str,
    k: int,
    *,
    concentration: int = 1,
    chiplets_x: int = 1,
    chiplets_y: int = 1,
    noi_scale: float = 2.0,
) -> Topology:
    """Build a topology from campaign-config / CLI parameters.

    ``k`` is the router-grid radix (the per-chiplet local mesh radix for
    ``kind='chiplet'``).  Validation errors name the offending
    parameter, so CLI typos fail with a message rather than a traceback.
    """
    if kind not in TOPOLOGY_KINDS:
        raise ConfigurationError(
            f"topology must be one of {TOPOLOGY_KINDS}, got {kind!r}"
        )
    if kind != "cmesh" and concentration != 1:
        raise ConfigurationError(
            f"concentration={concentration} applies only to "
            f"topology='cmesh' (got topology={kind!r})"
        )
    if kind != "chiplet" and (chiplets_x != 1 or chiplets_y != 1):
        raise ConfigurationError(
            f"chiplets_x/chiplets_y=({chiplets_x}, {chiplets_y}) apply "
            f"only to topology='chiplet' (got topology={kind!r})"
        )
    if kind == "mesh":
        return MeshTopology(k)
    if kind == "torus":
        return TorusTopology(k)
    if kind == "cmesh":
        if concentration < 2:
            raise ConfigurationError(
                f"concentration must be >= 2 for topology='cmesh', "
                f"got {concentration}"
            )
        return ConcentratedMesh(k, c=concentration)
    return ChipletNoc(
        chiplets_x=chiplets_x,
        chiplets_y=chiplets_y,
        chiplet_k=k,
        noi_scale=noi_scale,
    )


__all__ = [
    "ChipletNoc",
    "ConcentratedMesh",
    "MeshTopology",
    "NodeId",
    "OPPOSITE",
    "PORT_UP",
    "Port",
    "TOPOLOGY_KINDS",
    "Topology",
    "TorusTopology",
    "build_topology",
    "updown_routing_table",
]
