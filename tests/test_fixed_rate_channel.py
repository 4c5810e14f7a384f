"""Fixed-rate fault channels: indexed draws, bitwise equal to scalar ones.

A link whose flit error probability never changes draws its uniforms in
numpy blocks and keeps only the indices of the faulty draws
(:class:`repro.fault.injector.FixedRateChannel`).  These tests pin that
every attempt sees the same verdict as the scalar draw of the general
:class:`~repro.fault.injector.FaultChannel` would give it: across block
boundaries, inside a CRC retry loop that spans one, and at the edges
p = 0 (nothing drawn) and p = 1 (every draw faulty).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fault import FaultLayer, ProtectionConfig, UniformBer
from repro.fault.injector import _DRAW_BLOCK, FaultChannel, FixedRateChannel
from repro.fault.models import SupplyDroop, flit_error_probability
from repro.noc import NocSimulator, Packet

TOKEN = "0,0->1,0"


def _attached(ber: float, protection) -> FaultLayer:
    sim = NocSimulator(2, injection_rate=0.0, seed=1)
    return FaultLayer(UniformBer(ber), protection, seed=5).attach(sim)


def _pair(ber: float, protection):
    """A fixed-rate channel and a general channel on the same stream."""
    fixed = _attached(ber, protection).channels[TOKEN]
    layer = _attached(ber, protection)
    general = FaultChannel(
        layer=layer,
        link=layer.channels[TOKEN].link,
        out_port=fixed.out_port,
        state=layer.channels[TOKEN].state,
        rng=np.random.default_rng(fixed.seed),
        protection=layer.protection,
        flit_bits=layer.flit_bits,
    )
    layer.channels[TOKEN] = general
    layer.stats.per_link[TOKEN] = general.counters
    return fixed, general


def _flit():
    packet = Packet(
        src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1, inject_cycle=0
    )
    return packet.flits()[0]


def test_block_draws_equal_scalar_draws():
    """The property the channel rests on: ``random(n)`` returns the
    doubles of ``n`` scalar ``random()`` calls and leaves the generator
    in the same state."""
    for seed in (0, 1, 12345, 2**40 + 3):
        blocks = np.random.default_rng(seed)
        scalars = np.random.default_rng(seed)
        drawn = np.concatenate([blocks.random(_DRAW_BLOCK) for _ in range(3)])
        one_by_one = [float(scalars.random()) for _ in range(3 * _DRAW_BLOCK)]
        assert drawn.tolist() == one_by_one
        assert blocks.bit_generator.state == scalars.bit_generator.state


def test_attach_picks_the_fixed_rate_channel_only_for_fixed_states():
    sim = NocSimulator(2, seed=1)
    layer = FaultLayer(UniformBer(1e-3), "none", seed=5).attach(sim)
    assert all(isinstance(c, FixedRateChannel) for c in layer.channels.values())
    sim = NocSimulator(2, seed=1)
    layer = FaultLayer(SupplyDroop(), "none", seed=5).attach(sim)
    assert not any(
        isinstance(c, FixedRateChannel) for c in layer.channels.values()
    )


@pytest.mark.parametrize("ber", [1e-4, 3e-3, 2e-2])
def test_attempts_equal_scalar_draws_across_block_boundaries(ber):
    fixed, _ = _pair(ber, "none")
    p = flit_error_probability(ber, fixed.flit_bits)
    rng = np.random.default_rng(fixed.seed)
    n = 3 * _DRAW_BLOCK + 17
    expected = [float(rng.random()) < p for _ in range(n)]
    assert [fixed._attempt_faulty(0) for _ in range(n)] == expected
    # The generator continued the memoised first block exactly.
    assert fixed.rng is not None
    assert fixed._drawn == 4 * _DRAW_BLOCK


@pytest.mark.parametrize(
    "protocol",
    [
        "none",
        "e2e",
        "crc",
        "reroute",
        # Frequent give-ups between clean hops: the give-up streak and
        # the disable cycle must match too.
        ProtectionConfig(protocol="reroute", max_link_retries=2),
    ],
    ids=["none", "e2e", "crc", "reroute", "reroute-short-streaks"],
)
@pytest.mark.parametrize("ber", [1e-3, 1e-2, 1.0])
def test_transmit_matches_general_channel(protocol, ber):
    """Arrival, corruption and every ledger entry agree flit by flit,
    over more attempts than one block holds."""
    fixed, general = _pair(ber, protocol)
    for cycle in range(2 * _DRAW_BLOCK + 40):
        a, b = _flit(), _flit()
        assert fixed.transmit(fixed.link, a, cycle)[0] == general.transmit(
            general.link, b, cycle
        )[0]
        assert a.corrupted == b.corrupted
    assert fixed.counters == general.counters
    assert dataclasses.asdict(fixed.layer.stats) == dataclasses.asdict(
        general.layer.stats
    )
    assert len(fixed.layer._corrupted_packets) == len(
        general.layer._corrupted_packets
    )


def test_crc_retry_run_spanning_a_block_boundary():
    """A CRC retry loop whose attempts straddle the end of a block sees
    the same verdicts as scalar draws."""
    protection = ProtectionConfig(protocol="crc", max_link_retries=64)
    fixed, general = _pair(0.02, protection)
    spanned = False
    cycle = 0
    while fixed._draws < 2 * _DRAW_BLOCK:
        before = fixed._draws
        a, b = _flit(), _flit()
        arrival = fixed.transmit(fixed.link, a, cycle)[0]
        assert arrival == general.transmit(general.link, b, cycle)[0]
        assert a.corrupted == b.corrupted
        if before < _DRAW_BLOCK < fixed._draws - 1:
            spanned = True  # attempts on both sides of the boundary
        cycle += 1
    assert spanned
    assert fixed.counters == general.counters
    assert fixed.counters.retransmissions > 0


def test_zero_probability_draws_nothing():
    fixed, general = _pair(0.0, "crc")
    state = general.rng.bit_generator.state
    for cycle in range(_DRAW_BLOCK + 5):
        fixed.transmit(fixed.link, _flit(), cycle)
        general.transmit(general.link, _flit(), cycle)
    # Neither channel consumed a draw; the fixed one never built a
    # generator or drew a block.
    assert general.rng.bit_generator.state == state
    assert fixed.rng is None and fixed._drawn == 0
    assert fixed.counters == general.counters
    assert fixed.counters.faulty_attempts == 0


def test_unit_probability_faults_every_attempt():
    fixed, _ = _pair(1.0, "none")
    assert fixed.p == 1.0
    n = 2 * _DRAW_BLOCK + 3
    assert all(fixed._attempt_faulty(0) for _ in range(n))
