"""Pricing protection: what reliability costs in fJ/bit/mm.

The paper's 40.4 fJ/bit/mm is the energy of a *raw* traversal.  Once
links err, the honest figure of merit is the **effective** energy per
*useful* bit-mm: total energy spent — including CRC logic, nack/ack
signaling, retransmitted traversals and retry buffering — divided by the
bit-mm of payload that arrived intact.  This module layers those
protection overheads on top of :func:`repro.noc.power.price_stats`.

Overheads are expressed relative to the calibrated router energies so
they track the datapath choice (SRLR vs full swing) automatically:

* CRC generate/check logic switches a small fraction of the datapath
  energy at every hop while link-level protection is active;
* a retransmission re-drives the full flit over crossbar + wire, plus a
  narrow nack back-channel;
* an end-to-end ack is a short control packet priced per hop as a bit
  fraction of a flit traversal;
* e2e retry buffering writes every injected flit into the source-side
  retry buffer (same array energy as a router buffer).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import check_fields, checked
from repro.energy.router import RouterPowerModel
from repro.fault.injector import FaultStats
from repro.fault.protection import ProtectionConfig
from repro.noc.power import NocEnergyReport, payload_pricing_active, price_stats
from repro.noc.stats import NocStats
from repro.noc.topology import Topology
from repro.units import FJ, MM


@dataclass(frozen=True)
class ProtectionCosts:
    """Relative energy costs of the protection machinery."""

    #: CRC generate + check logic per hop, as a fraction of the datapath
    #: flit energy (a 64-bit parallel CRC is small next to a 64x1mm bus).
    crc_fraction: float = checked(0.05, interval="[0, 1]")
    #: Nack back-channel per retransmission, as a datapath fraction (a
    #: single-wire signal against a 64-bit bus).
    nack_fraction: float = checked(0.15, interval="[0, 1]")
    #: Ack packet width for end-to-end protection, bits on the wire.
    ack_bits: int = checked(8, interval="[1, inf)")

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class FaultEnergyReport:
    """Energy of one fault run: base network + protection overheads, joules."""

    base: NocEnergyReport
    crc: float
    retransmission: float
    ack: float
    retry_buffer: float
    #: Intact payload delivered in the measurement window, bit * mm.
    useful_bit_mm: float
    clean_deliveries: int
    #: Extra traversal energy of links longer than the 1 mm baseline
    #: (chiplet NoI links); 0.0 on uniform-length topologies.
    link_surcharge: float = 0.0

    @property
    def overhead(self) -> float:
        return (
            self.crc
            + self.retransmission
            + self.ack
            + self.retry_buffer
            + self.link_surcharge
        )

    @property
    def total(self) -> float:
        return self.base.total + self.overhead

    @property
    def overhead_fraction(self) -> float:
        return self.overhead / self.total if self.total > 0.0 else 0.0

    @property
    def effective_fj_per_bit_mm(self) -> float:
        """Total energy per intact delivered bit-mm, femtojoules.

        Infinite when nothing useful got through — the honest value for
        a link so broken the protection scheme cannot save it.
        """
        if self.useful_bit_mm <= 0.0:
            return float("inf")
        return self.total / self.useful_bit_mm / FJ


def price_fault_run(
    stats: NocStats,
    fault: FaultStats,
    topology: Topology,
    protection: ProtectionConfig,
    size_flits: int = 1,
    model: RouterPowerModel | None = None,
    costs: ProtectionCosts | None = None,
    datapath: str = "srlr",
    n_cycles: int | None = None,
    useful_deliveries: list[tuple] | None = None,
    links=None,
    coupling: bool = True,
) -> FaultEnergyReport:
    """Price a fault run: base event energy + protection overheads.

    ``size_flits`` is the (unicast) packet size the traffic generator
    used; deliveries are assumed unicast when converting to bit-mm (the
    fault campaign drives unicast traffic).  ``useful_deliveries``
    overrides the set of intact deliveries with explicit (src, dest)
    pairs — end-to-end campaigns use this because a retried packet's
    delivery record carries the retry's inject cycle and would fall
    outside the measurement window.  ``links`` (the simulator's link
    list) enables per-link length accounting: traversals of links with
    ``mm_scale != 1`` (chiplet NoI wires) pay a datapath surcharge
    proportional to the extra length.  When the run counted payload
    transitions (a payload-carrying workload), link pricing switches to
    the data-dependent model of :func:`repro.noc.power.price_stats` —
    which already folds ``mm_scale`` in per link, so the surcharge is
    skipped rather than double-counted; ``coupling=False`` drops the
    crosstalk term.
    """
    model = model or RouterPowerModel()
    costs = costs or ProtectionCosts()
    payload_active = payload_pricing_active(links)
    base = price_stats(
        stats,
        model,
        datapath=datapath,
        n_cycles=n_cycles,
        links=links,
        coupling=coupling,
    )
    e_dp = model.datapath_energy_per_flit(datapath)
    flit_bits = model.config.flit_bits

    crc = 0.0
    if protection.link_level:
        crc = costs.crc_fraction * e_dp * stats.link_traversals
    retransmission = fault.retransmissions * e_dp * (1.0 + costs.nack_fraction)
    ack = fault.ack_hops * (costs.ack_bits / flit_bits) * e_dp
    retry_buffer = 0.0
    if protection.protocol == "e2e":
        retry_buffer = model.buffer_energy_per_flit() * stats.injected_flits

    link_surcharge = 0.0
    if links is not None and not payload_active:
        # Datapath energy scales with wire length: each traversal of a
        # longer-than-baseline link pays the extra length's share.
        extra = sum(
            (link.mm_scale - 1.0) * link.traversals
            for link in links
            if link.mm_scale != 1.0
        )
        link_surcharge = extra * e_dp

    if useful_deliveries is None:
        useful_deliveries = [
            (record.src, record.dest) for record in stats.clean_measured()
        ]
    link_mm = model.config.link_length / MM
    useful_bit_mm = 0.0
    # route_mm = hops on uniform-length topologies (bitwise the old
    # hop_distance accounting); per-link scaled on chiplet NoC/NoI.  A
    # chiplet route is a walk, so each distinct pair is resolved once.
    routes: dict[tuple, float] = {}
    for src, dest in useful_deliveries:
        if src is None:
            hops = 1
        else:
            hops = routes.get((src, dest))
            if hops is None:
                hops = routes[src, dest] = topology.route_mm(src, dest)
        useful_bit_mm += size_flits * flit_bits * hops * link_mm
    return FaultEnergyReport(
        base=base,
        crc=crc,
        retransmission=retransmission,
        ack=ack,
        retry_buffer=retry_buffer,
        useful_bit_mm=useful_bit_mm,
        clean_deliveries=len(useful_deliveries),
        link_surcharge=link_surcharge,
    )


__all__ = ["FaultEnergyReport", "ProtectionCosts", "price_fault_run"]
