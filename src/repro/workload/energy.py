"""Data-dependent link energy: pricing counted bit transitions.

The constant per-bit datapath price (``e_dp = flit_bits * per_bit``)
assumes every traversal toggles every wire — the worst case the circuit
is sized for.  Real payloads toggle a fraction of the wires, and
adjacent wires toggling in opposite directions pay extra through the
sidewall coupling capacitor (the dynamic Miller effect the crosstalk
experiment E15 measures in volts).  This module converts the per-link
transition/coupling counters of :class:`repro.noc.link.Link` into
joules:

* one toggled wire costs ``e_dp / flit_bits`` — so an all-toggle word
  prices to exactly ``e_dp`` and the data-dependent model reduces to
  the constant model in the worst case (a regression test pins this);
* one opposing adjacent pair additionally costs
  ``coupling_miller_fraction() * (e_dp / flit_bits)``, the sidewall's
  share of a transition derived from the same coupled two-line physics
  as E15: the fractional far-end swing the victim loses when its
  neighbor switches against it.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ConfigurationError


@lru_cache(maxsize=1)
def coupling_miller_fraction() -> float:
    """Fractional energy surcharge of one opposing-pair transition.

    Built from the calibrated coupled two-line model exactly as
    experiment E15 builds its crosstalk sweep: the nominal SRLR link
    at reference wire spacing, victim and aggressor both driven by the
    launch pulldown.  The dynamic Miller swing loss
    ``(quiet - opposing) / quiet`` is the fraction of the victim's
    far-end swing the sidewall capacitor eats when the neighbor
    switches against it — the extra charge the driver had to supply,
    expressed as a fraction of the quiet transition.
    """
    from repro.circuit import SRLRLink, robust_design
    from repro.circuit.srlr import DEFAULT_LAUNCH_WIDTH
    from repro.tech.technology import tech_45nm_soi
    from repro.wire.coupled import CoupledPair
    from repro.wire.rc import WireGeometry, WireSegment

    tech = tech_45nm_soi()
    design = robust_design(tech)
    link = SRLRLink(design)
    launch = link._pm_launch
    geometry = WireGeometry(tech.wire_ref_width, tech.wire_ref_space)
    segment = WireSegment(tech, geometry, design.segment_length)
    pair = CoupledPair(
        segment,
        r_victim=launch.r_up,
        r_aggressor=launch.r_up,
        c_load=link._c_load,
    )
    quiet = pair.victim_far_peak(DEFAULT_LAUNCH_WIDTH, launch.amplitude, 0.0)
    opposing = pair.victim_far_peak(
        DEFAULT_LAUNCH_WIDTH, launch.amplitude, -launch.amplitude
    )
    return (quiet - opposing) / quiet


def payload_datapath_energy(
    links, e_dp: float, flit_bits: int, coupling: bool = True
) -> float:
    """Total data-dependent link energy over ``links``, joules.

    Each link's counted energy is scaled by its physical length
    (``mm_scale``), so longer chiplet NoI wires pay proportionally —
    the same per-link accounting the constant model applies through
    the fault layer's link surcharge.

    Baseline-length (``mm_scale == 1``) counters are accumulated as
    integers and priced with a *single* multiply, so the worst-case
    reduction is bitwise: all-toggle traversals give
    ``transitions == flit_bits * traversals`` and
    ``(e_dp / flit_bits) * (flit_bits * T)`` rounds identically to
    ``e_dp * T``, the constant model's figure.
    """
    if flit_bits < 1:
        raise ConfigurationError(f"flit_bits must be >= 1, got {flit_bits}")
    e_transition = e_dp / flit_bits
    base_transitions = 0
    base_events = 0
    scaled = 0.0
    any_events = coupling and any(link.coupling_events for link in links)
    e_coupling = (
        coupling_miller_fraction() * e_transition if any_events else 0.0
    )
    for link in links:
        if link.mm_scale == 1.0:
            base_transitions += link.payload_transitions
            base_events += link.coupling_events
        else:
            scaled += link.mm_scale * (
                e_transition * link.payload_transitions
                + e_coupling * link.coupling_events
            )
    total = e_transition * base_transitions + scaled
    if e_coupling and base_events:
        total += e_coupling * base_events
    return total


__all__ = [
    "coupling_miller_fraction",
    "payload_datapath_energy",
]
