"""Simulation statistics: latency, throughput, and energy event counts.

The event counters are the interface to the energy model: every buffered,
switched, linked or tapped flit increments a counter here, and
:mod:`repro.noc.power` prices the counters with the router/circuit energy
models after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DeliveryRecord:
    """One (packet, destination) delivery."""

    packet_id: int
    dest: tuple[int, int]
    inject_cycle: int
    deliver_cycle: int
    via_tap: bool
    #: Source node, recorded when known (None in legacy call paths).
    src: tuple[int, int] | None = None
    #: Payload arrived corrupted (fault layer active, protection did not
    #: repair it before ejection).
    corrupted: bool = False

    @property
    def latency(self) -> int:
        return self.deliver_cycle - self.inject_cycle


@dataclass
class NocStats:
    """Counters and records accumulated over one simulation."""

    buffer_writes: int = 0
    buffer_reads: int = 0
    crossbar_traversals: int = 0
    link_traversals: int = 0
    ejections: int = 0
    tap_deliveries: int = 0
    bypassed_flits: int = 0
    injected_flits: int = 0
    injected_packets: int = 0
    #: Deliveries whose payload arrived corrupted (0 without a fault layer).
    corrupted_deliveries: int = 0
    deliveries: list[DeliveryRecord] = field(default_factory=list)
    #: Cycle range over which statistics count (set by the simulator).
    measure_start: int = 0
    measure_end: int = 0

    def record_delivery(
        self,
        packet_id: int,
        dest: tuple[int, int],
        inject_cycle: int,
        deliver_cycle: int,
        via_tap: bool,
        src: tuple[int, int] | None = None,
        corrupted: bool = False,
    ) -> None:
        self.deliveries.append(
            DeliveryRecord(
                packet_id, dest, inject_cycle, deliver_cycle, via_tap,
                src=src, corrupted=corrupted,
            )
        )
        if via_tap:
            self.tap_deliveries += 1
        if corrupted:
            self.corrupted_deliveries += 1

    # --- summary metrics -------------------------------------------------------------

    def _measured(self) -> list[DeliveryRecord]:
        return [
            d
            for d in self.deliveries
            if self.measure_start <= d.inject_cycle < self.measure_end
        ]

    @property
    def delivered_count(self) -> int:
        return len(self._measured())

    @property
    def clean_delivered_count(self) -> int:
        """Measured deliveries whose payload arrived intact."""
        return sum(1 for d in self._measured() if not d.corrupted)

    def clean_measured(self) -> list[DeliveryRecord]:
        """Intact measured deliveries (the 'useful work' of a fault run)."""
        return [d for d in self._measured() if not d.corrupted]

    @property
    def average_latency(self) -> float:
        measured = self._measured()
        if not measured:
            return float("nan")
        return sum(d.latency for d in measured) / len(measured)

    def throughput(self, n_nodes: int) -> float:
        """Delivered (packet, dest) pairs per node per cycle in the window."""
        window = self.measure_end - self.measure_start
        if window <= 0 or n_nodes <= 0:
            return 0.0
        return self.delivered_count / (window * n_nodes)


__all__ = ["DeliveryRecord", "NocStats"]
