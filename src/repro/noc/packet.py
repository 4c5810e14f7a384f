"""Packets and flits.

Packets are wormhole-switched as flit sequences.  Multicast packets carry
a destination *set*; the simulator restricts multicasts to single-flit
packets (the coherence-invalidation style traffic that motivates the
paper's multicast argument [10] is single-flit), which keeps fork
replication trivially deadlock-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigurationError
from repro.noc.topology import NodeId

_packet_ids = itertools.count()


class FlitType(Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    SINGLE = "single"  # head and tail in one flit


def check_packet(
    src: NodeId,
    dests: frozenset[NodeId],
    size_flits: int,
    routing: str = "xy",
    payload: tuple[int, ...] = (),
) -> None:
    """Refuse a packet the simulator cannot carry (:class:`Packet`'s rules)."""
    if routing not in ("xy", "yx"):
        raise ConfigurationError(f"routing must be 'xy' or 'yx', got {routing!r}")
    if payload:
        if len(payload) != size_flits:
            raise ConfigurationError(
                f"packet carries {len(payload)} payload words for "
                f"{size_flits} flits"
            )
        if any(w < 0 for w in payload):
            raise ConfigurationError("payload words must be non-negative")
    if routing == "yx" and len(dests) > 1:
        raise ConfigurationError("multicast packets must route 'xy'")
    if not dests:
        raise ConfigurationError("packet needs at least one destination")
    if size_flits < 1:
        raise ConfigurationError(f"size_flits must be >= 1, got {size_flits}")
    if src in dests:
        raise ConfigurationError("packet destination equals its source")
    if len(dests) > 1 and size_flits != 1:
        raise ConfigurationError(
            "multicast packets must be single-flit (see module docstring)"
        )


@dataclass
class Packet:
    """One network packet, possibly multicast.

    ``dests`` is a frozenset of destination nodes; unicast packets have
    exactly one.  ``size_flits`` counts flits including head and tail.
    """

    src: NodeId
    dests: frozenset[NodeId]
    size_flits: int
    inject_cycle: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: Dimension order this packet routes in: "xy" (default) or "yx".
    #: O1TURN picks one per packet at injection; the two orders must use
    #: disjoint VC classes to stay deadlock-free.  Multicasts are always
    #: "xy" (the tree construction assumes it).
    routing: str = "xy"
    #: Per-flit payload words (one non-negative int per flit, LSB = wire
    #: 0).  Empty = no payload recorded; the energy model then falls back
    #: to the constant per-bit price.  When present, data-dependent link
    #: energy counts the bit transitions each word causes on each wire.
    payload: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_packet(
            self.src, self.dests, self.size_flits, self.routing, self.payload
        )

    @property
    def is_multicast(self) -> bool:
        return len(self.dests) > 1

    def flits(self) -> list["Flit"]:
        """Materialize the packet's flit sequence."""
        if self.size_flits == 1:
            return [
                Flit(
                    packet=self,
                    seq=0,
                    flit_type=FlitType.SINGLE,
                    dests=self.dests,
                )
            ]
        out = []
        for seq in range(self.size_flits):
            if seq == 0:
                ftype = FlitType.HEAD
            elif seq == self.size_flits - 1:
                ftype = FlitType.TAIL
            else:
                ftype = FlitType.BODY
            out.append(Flit(packet=self, seq=seq, flit_type=ftype, dests=self.dests))
        return out


def unicast_packet(
    src: NodeId,
    dests: frozenset[NodeId],
    size_flits: int,
    inject_cycle: int,
    payload: tuple[int, ...] = (),
) -> Packet:
    """Hot-path unicast constructor used by traffic generation.

    Bypasses ``__post_init__`` validation for packets whose invariants
    the caller guarantees by construction: exactly one destination,
    ``dests`` excludes ``src``, ``size_flits >= 1``, routing ``"xy"``,
    and ``payload`` either empty or one word per flit.  Produces a
    packet indistinguishable from ``Packet(...)``.
    """
    p = Packet.__new__(Packet)
    p.src = src
    p.dests = dests
    p.size_flits = size_flits
    p.inject_cycle = inject_cycle
    p.packet_id = next(_packet_ids)
    p.routing = "xy"
    p.payload = payload
    return p


def single_flit(packet: Packet) -> Flit:
    """Hot-path flit constructor for single-flit packets.

    Field-for-field identical to ``packet.flits()[0]`` when
    ``size_flits == 1``; bypasses dataclass ``__init__`` overhead.
    """
    f = Flit.__new__(Flit)
    f.packet = packet
    f.seq = 0
    f.flit_type = FlitType.SINGLE
    f.dests = packet.dests
    f.corrupted = False
    return f


@dataclass
class Flit:
    """One flit in flight.

    ``dests`` may shrink as a multicast is forked: each branch copy keeps
    only the destinations it is responsible for.
    """

    packet: Packet
    seq: int
    flit_type: FlitType
    dests: frozenset[NodeId]
    #: Payload integrity: set by the fault layer when a link traversal
    #: flipped bits the active protection did not repair.  The header is
    #: modeled as separately protected, so a corrupted flit still routes.
    corrupted: bool = False

    @property
    def is_head(self) -> bool:
        return self.flit_type in (FlitType.HEAD, FlitType.SINGLE)

    @property
    def is_tail(self) -> bool:
        return self.flit_type in (FlitType.TAIL, FlitType.SINGLE)

    def branch(self, dests: frozenset[NodeId]) -> "Flit":
        """A fork copy of this flit responsible for ``dests`` only."""
        if not dests <= self.dests:
            raise ConfigurationError("branch dests must be a subset")
        if not dests:
            raise ConfigurationError("branch needs at least one destination")
        return Flit(
            packet=self.packet,
            seq=self.seq,
            flit_type=self.flit_type,
            dests=dests,
            corrupted=self.corrupted,
        )


__all__ = [
    "Flit", "FlitType", "Packet", "check_packet", "single_flit", "unicast_packet"
]
