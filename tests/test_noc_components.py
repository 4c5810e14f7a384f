"""NoC building blocks: packets, VCs, credits, crossbar."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.noc import Crossbar, Packet, Port
from repro.noc.packet import FlitType
from repro.noc.vc import InputPort, OutputPort, VirtualChannel


# --- packets / flits --------------------------------------------------------------------


def test_single_flit_packet():
    p = Packet(src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1, inject_cycle=5)
    flits = p.flits()
    assert len(flits) == 1
    assert flits[0].is_head and flits[0].is_tail
    assert flits[0].flit_type is FlitType.SINGLE


def test_multi_flit_packet_structure():
    p = Packet(src=(0, 0), dests=frozenset({(1, 1)}), size_flits=4, inject_cycle=0)
    flits = p.flits()
    assert [f.flit_type for f in flits] == [
        FlitType.HEAD,
        FlitType.BODY,
        FlitType.BODY,
        FlitType.TAIL,
    ]
    assert [f.seq for f in flits] == [0, 1, 2, 3]


def test_multicast_must_be_single_flit():
    with pytest.raises(ConfigurationError):
        Packet(
            src=(0, 0),
            dests=frozenset({(1, 1), (2, 2)}),
            size_flits=3,
            inject_cycle=0,
        )


def test_packet_validation():
    with pytest.raises(ConfigurationError):
        Packet(src=(0, 0), dests=frozenset(), size_flits=1, inject_cycle=0)
    with pytest.raises(ConfigurationError):
        Packet(src=(0, 0), dests=frozenset({(0, 0)}), size_flits=1, inject_cycle=0)
    with pytest.raises(ConfigurationError):
        Packet(src=(0, 0), dests=frozenset({(1, 1)}), size_flits=0, inject_cycle=0)


def test_flit_branching():
    p = Packet(
        src=(0, 0), dests=frozenset({(1, 0), (2, 0)}), size_flits=1, inject_cycle=0
    )
    flit = p.flits()[0]
    branch = flit.branch(frozenset({(1, 0)}))
    assert branch.dests == frozenset({(1, 0)})
    assert branch.packet is p
    with pytest.raises(ConfigurationError):
        flit.branch(frozenset({(9, 9)}))
    with pytest.raises(ConfigurationError):
        flit.branch(frozenset())


def test_packet_ids_unique():
    a = Packet(src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1, inject_cycle=0)
    b = Packet(src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1, inject_cycle=0)
    assert a.packet_id != b.packet_id


# --- VCs and credits --------------------------------------------------------------------


def _single(dst=(1, 1)):
    return Packet(
        src=(0, 0), dests=frozenset({dst}), size_flits=1, inject_cycle=0
    ).flits()[0]


def test_vc_fifo_and_readiness():
    vc = VirtualChannel(capacity=2)
    vc.push(_single(), ready_cycle=5)
    assert vc.front(4) is None  # still in the pipeline
    assert vc.front(5) is not None
    assert vc.occupancy == 1


def test_vc_overflow_detected():
    vc = VirtualChannel(capacity=1)
    vc.push(_single(), 0)
    with pytest.raises(ProtocolError):
        vc.push(_single(), 0)


def test_vc_pop_clears_state_on_tail():
    vc = VirtualChannel(capacity=2)
    vc.out_port = Port.EAST
    vc.out_vc = 1
    vc.push(_single(), 0)
    vc.pop()
    assert vc.out_port is None and vc.out_vc is None
    assert vc.is_idle
    with pytest.raises(ProtocolError):
        vc.pop()


def test_input_port_idle_vc_search():
    port = InputPort(n_vcs=2, vc_capacity=2)
    assert port.idle_vc() == 0
    port.vcs[0].push(_single(), 0)
    assert port.idle_vc() == 1
    port.vcs[1].out_port = Port.EAST  # busy mid-packet
    assert port.idle_vc() is None


def test_output_port_credits_and_ownership():
    out = OutputPort(n_vcs=2, vc_capacity=2)
    assert out.free_vcs() == [0, 1]
    out.acquire(0, (Port.WEST, 1))
    assert out.free_vcs() == [1]
    with pytest.raises(ProtocolError):
        out.acquire(0, (Port.EAST, 0))
    out.consume_credit(0)
    out.consume_credit(0)
    with pytest.raises(ProtocolError):
        out.consume_credit(0)
    out.return_credit(0)
    out.return_credit(0)
    with pytest.raises(ProtocolError):
        out.return_credit(0)
    out.release(0)
    with pytest.raises(ProtocolError):
        out.release(0)


# --- crossbar ----------------------------------------------------------------------------


def test_crossbar_counts_traversals():
    xbar = Crossbar()
    xbar.connect(Port.WEST, Port.EAST)
    xbar.connect(Port.WEST, Port.EAST)
    xbar.connect(Port.LOCAL, Port.NORTH)
    assert xbar.traversals == 3
    assert xbar.crosspoint_counts[(Port.WEST, Port.EAST)] == 2


def test_crossbar_rejects_u_turn():
    xbar = Crossbar()
    with pytest.raises(ProtocolError):
        xbar.connect(Port.EAST, Port.EAST)
    permissive = Crossbar(allow_u_turn=True)
    permissive.connect(Port.EAST, Port.EAST)  # allowed when configured


def test_crosspoint_count_matches_paper():
    assert Crossbar.n_crosspoints(5) == 20  # the 64 x 20 SRLRs of Fig. 3
    assert Crossbar.n_crosspoints(5, allow_u_turn=True) == 25
    with pytest.raises(ConfigurationError):
        Crossbar.n_crosspoints(1)
