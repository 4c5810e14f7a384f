"""The topology zoo: structure, routing and engine contracts per family.

Covers the edge cases the flat-mesh suite never sees:

* torus wraparound — every border node has four neighbors, and
  ``hop_distance`` takes the short way around each axis;
* concentrated-mesh endpoint mapping — every core lands on the router
  that owns its block, and same-router pairs never enter the network;
* chiplet hierarchy — no compass link crosses a chiplet boundary, the
  only inter-chiplet paths run gateway -> interface -> NoI mesh, and
  NoI links are priced ``noi_scale`` x longer;
* deadlock freedom — the routing channel-dependence graph of every
  topology class (and of up*/down* tables over degraded link sets) is
  acyclic;
* the factory's named validation errors, silent fast-engine dispatch
  on every topology class, and flat-mesh bit-identity through the new
  Topology path.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.noc import (
    ChipletNoc,
    ConcentratedMesh,
    EngineFallbackWarning,
    FastNocSimulator,
    MeshTopology,
    NocSimulator,
    SyntheticTraffic,
    TorusTopology,
    build_topology,
    next_port,
    routing_is_deadlock_free,
    unicast_path,
    updown_routing_table,
)
from repro.noc.topology import OPPOSITE, PORT_UP, Port

SEED = 7


# --- torus wraparound -------------------------------------------------------------------


def test_torus_every_node_has_four_compass_neighbors():
    topo = TorusTopology(4)
    for node in topo.nodes():
        neighbors = [
            topo.neighbor(node, p)
            for p in (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)
        ]
        assert None not in neighbors
        assert len(set(neighbors)) == 4


def test_torus_wraparound_neighbors():
    topo = TorusTopology(4)
    assert topo.neighbor((3, 1), Port.EAST) == (0, 1)
    assert topo.neighbor((0, 1), Port.WEST) == (3, 1)
    assert topo.neighbor((2, 3), Port.NORTH) == (2, 0)
    assert topo.neighbor((2, 0), Port.SOUTH) == (2, 3)


def test_torus_hop_distance_takes_the_short_way():
    topo = TorusTopology(5)
    # Axis distance 4 wraps to 1; the mesh would say 4.
    assert topo.hop_distance((0, 0), (4, 0)) == 1
    assert topo.hop_distance((0, 0), (0, 4)) == 1
    assert topo.hop_distance((0, 0), (4, 4)) == 2
    assert topo.hop_distance((0, 0), (2, 2)) == 4
    assert topo.diameter == 4
    mesh = MeshTopology(5)
    for a in topo.nodes():
        for b in topo.nodes():
            assert topo.hop_distance(a, b) <= mesh.hop_distance(a, b)


def test_torus_routes_reach_every_pair():
    topo = TorusTopology(4)
    for src in topo.nodes():
        for dest in topo.nodes():
            if src == dest:
                continue
            path = unicast_path(topo, src, dest)  # [(node, out_port), ...]
            assert path[0][0] == src
            last_node, last_port = path[-1]
            assert topo.neighbor(last_node, last_port) == dest


def test_torus_k2_rejected():
    with pytest.raises(ConfigurationError, match="k must be >= 3"):
        TorusTopology(2)


# --- concentrated mesh ------------------------------------------------------------------


def test_cmesh_router_network_is_the_flat_mesh():
    cmesh = ConcentratedMesh(3, c=4)
    mesh = MeshTopology(3)
    assert cmesh.nodes() == mesh.nodes()
    assert cmesh.links() == mesh.links()
    assert cmesh.directed_links() == mesh.directed_links()


def test_cmesh_endpoint_mapping_tiles_blocks():
    cmesh = ConcentratedMesh(2, c=4)  # (sx, sy) = (2, 2)
    assert cmesh.block == (2, 2)
    assert cmesh.endpoint_grid() == (4, 4)
    assert len(cmesh.endpoints()) == 16
    assert cmesh.endpoint_router((0, 0)) == (0, 0)
    assert cmesh.endpoint_router((1, 1)) == (0, 0)
    assert cmesh.endpoint_router((2, 0)) == (1, 0)
    assert cmesh.endpoint_router((3, 3)) == (1, 1)
    # Every router owns exactly c cores.
    owners = [cmesh.endpoint_router(e) for e in cmesh.endpoints()]
    assert all(owners.count(r) == 4 for r in cmesh.nodes())


def test_cmesh_non_square_concentration_factors_rectangularly():
    cmesh = ConcentratedMesh(2, c=2)
    assert cmesh.block == (2, 1)
    assert cmesh.endpoint_grid() == (4, 2)


def test_cmesh_out_of_grid_core_rejected():
    cmesh = ConcentratedMesh(2, c=4)
    with pytest.raises(ConfigurationError, match="outside"):
        cmesh.endpoint_router((4, 0))


def test_cmesh_same_router_pairs_stay_local():
    # At rate 1.0 every core fires every cycle; packets between cores of
    # one block must never be offered to the network.
    cmesh = ConcentratedMesh(2, c=4)
    traffic = SyntheticTraffic(cmesh, 1.0, "uniform", seed=SEED)
    for cycle in range(20):
        for packet in traffic.packets_for_cycle(cycle):
            (dest,) = packet.dests
            assert packet.src != dest


# --- chiplet NoC/NoI --------------------------------------------------------------------


def test_chiplet_no_compass_link_crosses_a_boundary():
    topo = ChipletNoc(chiplets_x=2, chiplets_y=2, chiplet_k=2)
    for src, port, dst in topo.links():
        if int(port) == PORT_UP:
            continue
        if topo.is_interface(src):
            assert topo.is_interface(dst)  # NoI mesh stays on interfaces
        else:
            assert topo.chiplet_of(src) == topo.chiplet_of(dst)


def test_chiplet_gateways_uplink_to_their_interface():
    topo = ChipletNoc(chiplets_x=2, chiplets_y=1, chiplet_k=2)
    for cx in range(2):
        gateway = topo.gateway_node(cx, 0)
        iface = topo.interface_node(cx, 0)
        assert topo.neighbor(gateway, PORT_UP) == iface
        assert topo.neighbor(iface, PORT_UP) == gateway
        # Non-gateway cores have no uplink.
    assert topo.neighbor((1, 1), PORT_UP) is None


def test_chiplet_inter_chiplet_route_passes_the_noi():
    topo = ChipletNoc(chiplets_x=2, chiplets_y=2, chiplet_k=2)
    path = unicast_path(topo, (0, 0), (3, 3))
    visited = [node for node, _port in path] + [(3, 3)]
    assert any(topo.is_interface(node) for node in visited)
    assert visited[0] == (0, 0) and visited[-1] == (3, 3)


def test_chiplet_heterogeneous_port_counts():
    topo = ChipletNoc(chiplets_x=2, chiplets_y=2, chiplet_k=2)
    assert PORT_UP in topo.node_ports(topo.gateway_node(0, 0))
    assert PORT_UP in topo.node_ports(topo.interface_node(0, 0))
    assert PORT_UP not in topo.node_ports((1, 1))


def test_chiplet_noi_links_are_longer():
    topo = ChipletNoc(chiplets_x=2, chiplets_y=1, chiplet_k=2, noi_scale=3.0)
    iface = topo.interface_node(0, 0)
    assert topo.link_scale(iface, Port.EAST) == 3.0
    assert topo.link_scale(iface, PORT_UP) == 1.0
    assert topo.link_scale((0, 0), PORT_UP) == 1.0
    assert topo.link_scale((0, 0), Port.EAST) == 1.0
    # route_mm prices the NoI crossing; the same-chiplet route does not.
    cross = topo.route_mm((1, 1), (2, 1))
    assert cross > topo.hop_distance((1, 1), (2, 1))
    assert topo.route_mm((0, 0), (1, 1)) == topo.hop_distance((0, 0), (1, 1))


def test_chiplet_endpoints_are_cores_only():
    topo = ChipletNoc(chiplets_x=2, chiplets_y=2, chiplet_k=2)
    endpoints = topo.endpoints()
    assert len(endpoints) == 16
    assert not any(topo.is_interface(e) for e in endpoints)
    assert len(topo.nodes()) == 16 + 4


# --- deadlock freedom -------------------------------------------------------------------

FAMILY = [
    ("mesh-xy", MeshTopology(4), "xy"),
    ("mesh-yx", MeshTopology(4), "yx"),
    ("cmesh", ConcentratedMesh(3, c=2), "xy"),
    ("torus-k3", TorusTopology(3), "xy"),
    ("torus-k4", TorusTopology(4), "xy"),
    ("torus-k5", TorusTopology(5), "xy"),
    ("chiplet-2x2", ChipletNoc(chiplets_x=2, chiplets_y=2, chiplet_k=2), "xy"),
    ("chiplet-3x1", ChipletNoc(chiplets_x=3, chiplets_y=1, chiplet_k=3), "xy"),
]


@pytest.mark.parametrize(
    "topology,order",
    [case[1:] for case in FAMILY],
    ids=[case[0] for case in FAMILY],
)
def test_routing_cdg_is_acyclic(topology, order):
    assert routing_is_deadlock_free(topology, order)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(3, 5),
    drop=st.integers(0, 6),
    seed=st.integers(0, 1000),
)
def test_updown_table_stays_deadlock_free_with_links_down(k, drop, seed):
    """Property: up*/down* over any degraded-but-connected link set keeps
    every turn legal (up before down), hence acyclic routes."""
    import random

    topo = TorusTopology(k)
    rng = random.Random(seed)
    alive = {(src, port) for src, port, _dst in topo.links()}
    candidates = sorted(alive)
    rng.shuffle(candidates)
    for src, port in candidates[:drop]:
        alive.discard((src, port))
    table = updown_routing_table(topo.nodes(), topo._adjacency(), alive)
    # Walk every route; no loops (bounded walk) and every hop alive.
    nodes = topo.nodes()
    for dest in nodes:
        for src in nodes:
            port = table[dest].get(src)
            if src == dest or port is None:
                continue
            node, hops = src, 0
            while node != dest:
                port = table[dest][node]
                assert (node, port) in alive
                node = topo.neighbor(node, port)
                hops += 1
                assert hops <= 4 * len(nodes), "routing loop"


def test_o1turn_rejected_on_table_routed_topologies():
    from repro.noc import NocConfig

    with pytest.raises(ConfigurationError, match="o1turn"):
        NocSimulator(TorusTopology(4), config=NocConfig(routing="o1turn"))


# --- factory validation -----------------------------------------------------------------


def test_factory_unknown_kind_named():
    with pytest.raises(ConfigurationError, match="topology"):
        build_topology("hypercube", 4)


def test_factory_rejects_misapplied_parameters():
    with pytest.raises(ConfigurationError, match="concentration"):
        build_topology("mesh", 4, concentration=4)
    with pytest.raises(ConfigurationError, match="chiplets_x"):
        build_topology("torus", 4, chiplets_x=2)
    with pytest.raises(ConfigurationError, match="concentration"):
        build_topology("cmesh", 4)  # needs concentration >= 2


def test_factory_rejects_bad_chiplet_shape():
    with pytest.raises(ConfigurationError, match="chiplet_k"):
        build_topology("chiplet", 1, chiplets_x=2, chiplets_y=2)
    with pytest.raises(ConfigurationError, match="at least 2 chiplets"):
        build_topology("chiplet", 2)


# --- engine contracts -------------------------------------------------------------------


def test_fast_engine_supported_topologies_dispatch_silently():
    for topo in (
        MeshTopology(3),
        TorusTopology(3),
        ConcentratedMesh(2, c=2),
        ChipletNoc(chiplets_x=2, chiplets_y=1, chiplet_k=2),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            sim = NocSimulator(
                topo, injection_rate=0.05, seed=SEED, engine="fast"
            )
        assert sim.engine == "fast"
        assert type(sim) is FastNocSimulator


def test_traffic_topology_mismatch_rejected():
    traffic = SyntheticTraffic(TorusTopology(4), 0.05, "uniform", seed=SEED)
    with pytest.raises(ConfigurationError, match="different topology"):
        NocSimulator(MeshTopology(4), traffic=traffic, seed=SEED)


def test_multicast_restricted_to_grid_endpoint_topologies():
    with pytest.raises(ConfigurationError, match="multicast"):
        SyntheticTraffic(
            ConcentratedMesh(2, c=2),
            0.05,
            "uniform",
            multicast_fraction=0.5,
            seed=SEED,
        )


# --- flat-mesh bit-identity through the Topology path -----------------------------------


def test_mesh_int_and_topology_constructions_identical():
    runs = []
    for spec in (4, MeshTopology(4), build_topology("mesh", 4)):
        sim = NocSimulator(spec, injection_rate=0.1, seed=SEED)
        stats = sim.run(warmup=20, measure=100)
        runs.append(
            (
                sim.cycle,
                stats.link_traversals,
                sorted(
                    (d.src, d.dest, d.inject_cycle, d.deliver_cycle)
                    for d in stats.deliveries
                ),
                [link.traversals for link in sim.links],
            )
        )
    assert runs[0] == runs[1] == runs[2]


def test_mesh_table_agrees_with_xy():
    from repro.noc.routing import xy_route

    mesh = MeshTopology(4)
    for src in mesh.nodes():
        for dest in mesh.nodes():
            if src == dest:
                continue
            assert next_port(mesh, src, dest, "xy") == xy_route(src, dest)
            path = unicast_path(mesh, src, dest)  # one entry per hop
            assert len(path) == mesh.hop_distance(src, dest)


def test_directed_links_reverse_ports_consistent():
    for topo in (
        MeshTopology(3),
        TorusTopology(3),
        ConcentratedMesh(2, c=2),
        ChipletNoc(chiplets_x=2, chiplets_y=1, chiplet_k=2),
    ):
        for src, port, dst, in_port in topo.directed_links():
            # The receiver sees the flit on in_port; walking back from
            # dst through in_port's neighbor entry must return to src.
            assert topo.neighbor(dst, in_port) == src
