"""Payload attachment: giving generated packets data to switch.

Synthetic generators decide *when* and *where* packets go; the payload
wrapper decides *what bits* they carry, which is what the
data-dependent link energy model prices.  Two modes:

* ``"random"`` — each flit carries an independent uniform random word,
  drawn from a *separate* RNG stream derived via
  :func:`repro.runtime.seeds.derived_seed`.  The traffic generator's
  own stream is untouched, so the delivery statistics (latency, hops,
  traversal counts) of a payloaded run are bit-identical to the same
  seed's constant-mode run — only the energy changes.
* ``"worst_case"`` — no words are attached at all; the link synthesizes
  the complement of its previous word at every traversal
  (:meth:`repro.noc.link.Link.count_payload`), guaranteeing
  ``flit_bits`` transitions per traversal and zero opposing-pair
  coupling events.  This is the case that must price exactly to the
  constant model, which the reduction regression test pins down.

:func:`repro.noc.trace.record_trace` records a payloaded source's
stream (payload words included, or the worst-case mode) once, so runs
that share it replay it instead of regenerating it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.noc.packet import Packet
from repro.runtime.seeds import derived_seed

#: Payload modes a traffic source can advertise.
PAYLOAD_MODES = ("constant", "random", "worst_case")


def random_word(rng: np.random.Generator, flit_bits: int) -> int:
    """One uniform random ``flit_bits``-wide word (LSB = wire 0)."""
    n64 = (flit_bits + 63) // 64
    word = 0
    for i in range(n64):
        word |= int(rng.integers(0, 1 << 64, dtype=np.uint64)) << (64 * i)
    return word & ((1 << flit_bits) - 1)


def attach_payloads(
    packets: list[Packet], rng: np.random.Generator, flit_bits: int
) -> list[Packet]:
    """Attach one random word per flit to each packet, in place.

    Words are drawn in packet order, one draw per flit, so the payload
    stream is deterministic given the RNG state — both engines inject
    the same cycle's packets in the same order and therefore see
    identical words.
    """
    for packet in packets:
        packet.payload = tuple(
            random_word(rng, flit_bits) for _ in range(packet.size_flits)
        )
    return packets


class PayloadedTraffic:
    """Wrap a traffic source with a payload policy.

    Delegates the full traffic protocol (``packets_for_cycle``, the
    drain protocol, ``multicast_fraction``) to ``inner`` and adds the
    ``payload_mode`` / ``payload_bits`` attributes the simulator wires
    into its links.  ``mode="random"`` draws words from a dedicated RNG
    seeded by ``derived_seed(inner.seed, "workload/payload/...")`` —
    content-addressed, so the same generator config always carries the
    same data no matter where in a campaign it runs.
    """

    def __init__(self, inner, mode: str = "random", flit_bits: int = 64):
        if mode not in PAYLOAD_MODES:
            raise ConfigurationError(
                f"payload mode must be one of {PAYLOAD_MODES}, got {mode!r}"
            )
        if flit_bits < 1:
            raise ConfigurationError(
                f"flit_bits must be >= 1, got {flit_bits}"
            )
        if getattr(inner, "payload_mode", "constant") != "constant":
            raise ConfigurationError(
                "inner traffic already carries payload "
                f"(mode {inner.payload_mode!r}); wrap a payload-free source"
            )
        self.inner = inner
        self.payload_mode = mode
        self.payload_bits = flit_bits
        seed = int(getattr(inner, "seed", 0))
        self._rng = np.random.default_rng(
            derived_seed(seed, f"workload/payload/{mode}/{flit_bits}")
        )

    # --- delegated traffic protocol ---------------------------------------------------

    @property
    def topology(self):
        return self.inner.topology

    @property
    def injection_rate(self) -> float:
        return self.inner.injection_rate

    @injection_rate.setter
    def injection_rate(self, value: float) -> None:
        self.inner.injection_rate = value

    @property
    def multicast_fraction(self) -> float:
        return getattr(self.inner, "multicast_fraction", 0.0)

    @property
    def draining(self) -> bool:
        return self.inner.draining

    @property
    def silent_drain(self) -> bool:
        # Payload words are drawn only for packets the inner source makes.
        return getattr(self.inner, "silent_drain", False)

    def begin_drain(self) -> None:
        self.inner.begin_drain()

    def end_drain(self) -> None:
        self.inner.end_drain()

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        packets = self.inner.packets_for_cycle(cycle)
        if self.payload_mode == "random" and packets:
            attach_payloads(packets, self._rng, self.payload_bits)
        return packets


__all__ = [
    "PAYLOAD_MODES",
    "PayloadedTraffic",
    "attach_payloads",
    "random_word",
]
