"""Synthetic traffic generators.

The standard mesh evaluation patterns (uniform random, transpose,
bit-complement, nearest neighbor, hotspot) plus multicast mixes modeling
the coherence-style 1-to-N traffic that motivates the SRLR's free
multicast (Section II / [10]).  Injection is a per-node Bernoulli process
in packets per node per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.noc.packet import Packet, unicast_packet
from repro.noc.topology import NodeId, Topology

PATTERNS = (
    "uniform",
    "transpose",
    "bit_complement",
    "neighbor",
    "hotspot",
)


def pattern_destination(
    pattern: str, src: NodeId, k: int, rng: np.random.Generator
) -> NodeId:
    """Destination of one unicast packet under a named pattern."""
    x, y = src
    if pattern == "uniform":
        while True:
            dest = (int(rng.integers(k)), int(rng.integers(k)))
            if dest != src:
                return dest
    if pattern == "transpose":
        dest = (y, x)
    elif pattern == "bit_complement":
        dest = (k - 1 - x, k - 1 - y)
    elif pattern == "neighbor":
        dest = ((x + 1) % k, y)
    elif pattern == "hotspot":
        dest = (k // 2, k // 2)
    else:
        raise ConfigurationError(
            f"unknown pattern {pattern!r}; choose from {PATTERNS}"
        )
    if dest == src:
        # Self-addressed under a deterministic pattern: fall back to the
        # east neighbor so the node still exercises the network.
        dest = ((x + 1) % k, y)
        if dest == src:
            raise ConfigurationError("mesh too small for this pattern")
    return dest


def endpoint_destination(
    pattern: str, src: NodeId, w: int, h: int, rng: np.random.Generator
) -> NodeId:
    """Destination on a ``w x h`` endpoint grid (rectangular patterns).

    The generalization of :func:`pattern_destination` for topologies
    whose endpoint grid is not square (concentrated meshes, chiplet
    hierarchies); for ``w == h == k`` the draw sequence is identical.
    """
    x, y = src
    if pattern == "uniform":
        while True:
            dest = (int(rng.integers(w)), int(rng.integers(h)))
            if dest != src:
                return dest
    if pattern == "transpose":
        dest = (y, x)
    elif pattern == "bit_complement":
        dest = (w - 1 - x, h - 1 - y)
    elif pattern == "neighbor":
        dest = ((x + 1) % w, y)
    elif pattern == "hotspot":
        dest = (w // 2, h // 2)
    else:
        raise ConfigurationError(
            f"unknown pattern {pattern!r}; choose from {PATTERNS}"
        )
    if dest == src:
        dest = ((x + 1) % w, y)
        if dest == src:
            raise ConfigurationError("endpoint grid too small for this pattern")
    return dest


class DrainableTraffic:
    """The explicit drain protocol every traffic source implements.

    ``NocSimulator.run`` calls :meth:`begin_drain` when the measurement
    window closes and :meth:`end_drain` (in a ``finally``) once the
    network has emptied, instead of reaching into the generator to zero
    ``injection_rate``.  The default implementation reproduces the
    legacy behavior exactly — the rate is parked at 0.0 but
    ``packets_for_cycle`` keeps running (and keeps consuming its RNG
    stream), so drained runs stay bit-identical to the pre-protocol
    golden results.  Sources without a meaningful rate (trace replay)
    override with a flag instead.

    ``silent_drain`` tells the simulator whether ``packets_for_cycle``
    makes no packet *and draws nothing* while draining.  Only then may
    ``NocSimulator.run`` jump over idle drain cycles without calling it;
    a rate-parked source like this one keeps drawing, so it says False.
    """

    #: True when draining makes ``packets_for_cycle`` a pure no-op.
    silent_drain = False

    @property
    def draining(self) -> bool:
        return getattr(self, "_drain_saved_rate", None) is not None

    def begin_drain(self) -> None:
        if self.draining:
            raise ConfigurationError("begin_drain() while already draining")
        self._drain_saved_rate = self.injection_rate
        self.injection_rate = 0.0

    def end_drain(self) -> None:
        if not self.draining:
            raise ConfigurationError("end_drain() without begin_drain()")
        self.injection_rate = self._drain_saved_rate
        self._drain_saved_rate = None


@dataclass
class SyntheticTraffic(DrainableTraffic):
    """Bernoulli packet injection with a destination pattern.

    Attributes
    ----------
    topology:
        The topology being driven.  Grid-endpoint topologies (mesh,
        torus) inject at routers; others (concentrated mesh, chiplet)
        inject at *endpoints* — per-endpoint Bernoulli coins, with
        endpoint pairs mapped onto their serving routers and
        same-router pairs served locally (never entering the network).
    injection_rate:
        Packets per node per cycle (0..1).
    pattern:
        One of :data:`PATTERNS`.
    size_flits:
        Flits per unicast packet.
    multicast_fraction:
        Share of packets that are multicast (single-flit, random
        destination set of ``multicast_degree``).
    multicast_degree:
        Destinations per multicast packet.
    seed:
        RNG seed; generation is fully reproducible.
    """

    topology: Topology
    injection_rate: float
    pattern: str = "uniform"
    size_flits: int = 1
    multicast_fraction: float = 0.0
    multicast_degree: int = 4
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ConfigurationError(
                f"injection_rate must lie in [0, 1], got {self.injection_rate}"
            )
        if self.pattern not in PATTERNS:
            raise ConfigurationError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERNS}"
            )
        if self.size_flits < 1:
            raise ConfigurationError(
                f"size_flits must be >= 1, got {self.size_flits}"
            )
        if not 0.0 <= self.multicast_fraction <= 1.0:
            raise ConfigurationError(
                f"multicast_fraction must lie in [0, 1], got {self.multicast_fraction}"
            )
        if self.multicast_fraction > 0.0:
            if not self.topology.grid_endpoints:
                raise ConfigurationError(
                    "multicast traffic is only defined over grid-endpoint "
                    f"topologies (mesh, torus); got {self.topology.kind}"
                )
            # The degree only matters when multicasts are actually made.
            if self.multicast_degree < 2:
                raise ConfigurationError(
                    f"multicast_degree must be >= 2, got {self.multicast_degree}"
                )
            if self.multicast_degree > self.topology.n_nodes - 1:
                raise ConfigurationError("multicast_degree exceeds the node count")
        if not self.topology.grid_endpoints:
            w, h = self.topology.endpoint_grid()
            if self.pattern == "transpose" and w != h:
                raise ConfigurationError(
                    f"pattern='transpose' needs a square endpoint grid; "
                    f"the {self.topology.kind} topology's is {w}x{h}"
                )
        self._rng = np.random.default_rng(self.seed)
        # Cached node walk for the per-cycle Bernoulli loop: this runs
        # once per node per cycle, so rebuilding the node list (and
        # re-resolving the bound methods) each call is measurable for
        # both engines.  The draw sequence is untouched.
        self._node_list = list(self.topology.nodes())
        self._endpoint_list = list(self.topology.endpoints())

    def _multicast_dests(self, src: NodeId) -> frozenset[NodeId]:
        candidates = [n for n in self.topology.nodes() if n != src]
        idx = self._rng.choice(len(candidates), self.multicast_degree, replace=False)
        return frozenset(candidates[i] for i in idx)

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        """Packets generated network-wide at ``cycle``."""
        out: list[Packet] = []
        rate = self.injection_rate
        if not self.topology.grid_endpoints:
            # Endpoint-level injection (concentrated mesh, chiplet):
            # one Bernoulli coin per *core*, destinations drawn on the
            # endpoint grid, both ends mapped to their serving routers.
            # Same-router pairs are served locally and generate no
            # network packet.
            w, h = self.topology.endpoint_grid()
            rng = self._rng
            draw = rng.random
            pattern = self.pattern
            sf = self.size_flits
            endpoint_router = self.topology.endpoint_router
            for src in self._endpoint_list:
                if draw() >= rate:
                    continue
                dest = endpoint_destination(pattern, src, w, h, rng)
                src_r = endpoint_router(src)
                dest_r = endpoint_router(dest)
                if src_r == dest_r:
                    continue
                out.append(
                    unicast_packet(src_r, frozenset((dest_r,)), sf, cycle)
                )
            return out
        k = self.topology.k
        draw = self._rng.random
        if self.multicast_fraction == 0.0:
            # Unicast hot paths.  The per-node Bernoulli coin flips are
            # drawn in batches instead of one scalar ``rng.random()``
            # call per node, with ``PCG64.advance(-n)`` rewinding any
            # over-drawn values, so the stream of random draws — and
            # hence every downstream result for a given seed — is
            # bit-identical to the scalar loop.  Batch draws fill from
            # the same ``next_double`` sequence as scalar draws (one
            # 64-bit generator step per double), which makes the
            # rewind arithmetic exact.
            nodes = self._node_list
            sf = self.size_flits
            rng = self._rng
            if self.pattern != "uniform":
                # Deterministic destination patterns consume no RNG
                # beyond the Bernoulli scan: one batch, no rewind.
                vals = rng.random(len(nodes)).tolist()
                pattern = self.pattern
                for src, v in zip(nodes, vals):
                    if v >= rate:
                        continue
                    dest = pattern_destination(pattern, src, k, rng)
                    out.append(
                        unicast_packet(src, frozenset((dest,)), sf, cycle)
                    )
                return out
            # Uniform random: destination draws interleave with the
            # Bernoulli stream, so scan in segments — batch up to the
            # first firing node, rewind the unused tail, draw that
            # node's destination, repeat on the remainder.
            integers = rng.integers
            batch = rng.random
            advance = rng.bit_generator.advance
            n = len(nodes)
            pos = 0
            while pos < n:
                remaining = n - pos
                vals = batch(remaining).tolist()
                hit = -1
                for j, v in enumerate(vals):
                    if v < rate:
                        hit = j
                        break
                if hit < 0:
                    break
                unused = remaining - hit - 1
                if unused:
                    advance(-unused)
                src = nodes[pos + hit]
                while True:
                    dest = (int(integers(k)), int(integers(k)))
                    if dest != src:
                        break
                out.append(unicast_packet(src, frozenset((dest,)), sf, cycle))
                pos += hit + 1
            return out
        for src in self._node_list:
            if draw() >= rate:
                continue
            if (
                self.multicast_fraction > 0.0
                and self._rng.random() < self.multicast_fraction
            ):
                dests = self._multicast_dests(src)
                out.append(
                    Packet(src=src, dests=dests, size_flits=1, inject_cycle=cycle)
                )
            else:
                dest = pattern_destination(self.pattern, src, k, self._rng)
                out.append(
                    Packet(
                        src=src,
                        dests=frozenset({dest}),
                        size_flits=self.size_flits,
                        inject_cycle=cycle,
                    )
                )
        return out


__all__ = [
    "PATTERNS",
    "DrainableTraffic",
    "SyntheticTraffic",
    "endpoint_destination",
    "pattern_destination",
]
