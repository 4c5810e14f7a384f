"""Differential test: the batched link kernel against the scalar oracle.

:func:`repro.circuit.link.transmit_batch` steps a batch of dies through
each stage as arrays.  :func:`scalar_transmit` below is the per-UI model
it replaced, frozen here as the oracle: it walks one link hop by hop and
UI by UI through :meth:`SRLRStage.transfer` with plain floats.  The kernel
must reproduce it bitwise — fail/pass, error counts, stuck flags, every
tap's bits, the supply energy and the probed eye samples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit.bus import SRLRBus, random_words
from repro.circuit.link import SRLRLink, TransmissionResult, transmit_batch
from repro.circuit.srlr import robust_design, straightforward_design
from repro.errors import ConfigurationError
from repro.mc import default_stress_pattern, run_monte_carlo
from repro.mc.engine import simulate_die, simulate_dies
from repro.tech.variation import monte_carlo_sample

T_BIT = 1.0 / 4.1e9
#: The 180-die pool: the 120 golden dies (seeds 2013-2132) and 60 more.
POOL_SEEDS = list(range(2013, 2193))


def scalar_transmit(
    link: SRLRLink,
    bits: list[int],
    bit_period: float,
    noise_sigma: float = 0.0,
    rng=None,
    probe_stage: int | None = None,
) -> TransmissionResult:
    """The scalar per-UI transmission model (frozen reference)."""
    probe = [] if probe_stage is not None else None
    if noise_sigma > 0.0 and rng is None:
        rng = np.random.default_rng(0)
    d = link.design
    vdd = d.tech.vdd
    n = len(bits)
    energy = 0.0
    if any(s.is_stuck for s in link.stages):
        ones = [1] * n
        return TransmissionResult(
            sent=list(bits),
            received=ones,
            tap_bits=[ones[:] for _ in link.stages],
            energy=0.0,
            stuck=True,
        )
    widths = [link.launch_width if b else 0.0 for b in bits]
    launch = link._pm_launch
    tap_bits = []
    for stage in link.stages:
        table = link._table(launch.r_up, launch.r_down)
        tau = table.decay_tau
        residual = 0.0
        out_widths = [0.0] * n
        fired_bits = [0] * n
        decay_frac = math.exp(-bit_period / tau)
        avg_frac = (tau / bit_period) * (1.0 - decay_frac)
        busy_until = -float("inf")
        for k in range(n):
            w = widths[k]
            if w > 0.0:
                energy += vdd * launch.amplitude * table.charge_in(w)
                t_peak = table.t_peak(w)
                residual_at_peak = residual * math.exp(
                    -min(t_peak, bit_period) / tau
                )
                swing = table.peak_ratio(w) * launch.amplitude + residual_at_peak
                dwell = min(table.width_out(w), bit_period)
            else:
                swing = residual * avg_frac
                dwell = bit_period
                t_peak = 0.0
            if noise_sigma > 0.0:
                swing += float(rng.normal(0.0, noise_sigma))
            ui_start = k * bit_period
            if ui_start >= busy_until:
                out = stage.transfer(swing, dwell)
                if out.fired:
                    fired_bits[k] = 1
                    out_widths[k] = out.out_width
                    energy += link._stage_internal_energy(stage)
                    busy_until = ui_start + out.t_trip + stage.wx + d.reset_recovery
            if probe is not None and stage.stage_index == probe_stage:
                probe.append((swing, dwell, bool(fired_bits[k])))
            if w > 0.0 and swing > 0.0:
                residual = swing * math.exp(-max(bit_period - t_peak, 0.0) / tau)
            else:
                residual = residual * decay_frac
        tap_bits.append(fired_bits)
        widths = out_widths
        launch = stage.launch
    return TransmissionResult(
        sent=list(bits),
        received=tap_bits[-1][:],
        tap_bits=tap_bits,
        energy=energy,
        stuck=False,
        probe=probe,
    )


def full(result: TransmissionResult) -> tuple:
    return (
        result.sent,
        result.received,
        result.tap_bits,
        result.energy,
        result.stuck,
        result.probe,
    )


def outcome(result: TransmissionResult) -> tuple:
    return (result.ok, result.n_errors, result.stuck)


DESIGNS = {"robust": robust_design, "straightforward": straightforward_design}
#: Robust-design pool dies with an inverted standby margin.
STUCK_SEEDS = (2067, 2178)


@pytest.fixture(scope="module", params=sorted(DESIGNS))
def pool(request):
    """(links, scalar results) over the 180-die pool for one design."""
    design = DESIGNS[request.param]()
    pattern = default_stress_pattern()
    links = [SRLRLink(design, monte_carlo_sample(design.tech, s)) for s in POOL_SEEDS]
    return links, [scalar_transmit(link, pattern, T_BIT) for link in links]


@pytest.fixture(scope="module")
def robust_links():
    design = robust_design()
    return {s: SRLRLink(design, monte_carlo_sample(design.tech, s)) for s in POOL_SEEDS}


def test_pool_outcomes_match_the_oracle_exactly(pool):
    links, scalar = pool
    batched = transmit_batch(links, default_stress_pattern(), T_BIT)
    assert [outcome(r) for r in batched] == [outcome(r) for r in scalar]
    # The pool exercises working and failing dies alike.
    assert any(r.ok for r in scalar)
    assert any(not r.ok and not r.stuck for r in scalar)


@pytest.mark.parametrize("block", [1, 7, 25, 180])
def test_block_partition_invariance(pool, block):
    links, scalar = pool
    pattern = default_stress_pattern()
    batched = []
    for start in range(0, len(links), block):
        batched += transmit_batch(links[start : start + block], pattern, T_BIT)
    assert [outcome(r) for r in batched] == [outcome(r) for r in scalar]
    # Every field of the first 40 dies, whatever the block.
    assert [full(r) for r in batched[:40]] == [full(r) for r in scalar[:40]]


def test_every_field_matches_on_a_mixed_stuck_and_live_batch(robust_links):
    seeds = [2013, 2067, 2014, 2020, 2178, 2031]
    links = [robust_links[s] for s in seeds]
    pattern = default_stress_pattern()
    batched = transmit_batch(links, pattern, T_BIT, probe_stage=4)
    scalar = [scalar_transmit(link, pattern, T_BIT, probe_stage=4) for link in links]
    assert [full(r) for r in batched] == [full(r) for r in scalar]
    assert [r.stuck for r in batched] == [False, True, False, False, True, False]
    assert batched[0].probe and batched[1].probe is None


@pytest.mark.parametrize("probe_stage", [0, 9])
def test_noise_draws_match_the_scalar_stream(robust_links, probe_stage):
    links = [robust_links[s] for s in (2013, 2067, 2044, 2100)]
    bits = default_stress_pattern()
    sigma = 0.02  # large enough to flip bits
    batched = transmit_batch(
        links, bits, T_BIT, sigma, np.random.default_rng(9), probe_stage
    )
    rng = np.random.default_rng(9)
    scalar = [
        scalar_transmit(link, bits, T_BIT, sigma, rng, probe_stage) for link in links
    ]
    assert [full(r) for r in batched] == [full(r) for r in scalar]
    assert any(r.n_errors for r in scalar)
    # One link at a time from the same stream: the same draws again.
    rng = np.random.default_rng(9)
    single = [link.transmit(bits, T_BIT, sigma, rng, probe_stage) for link in links]
    assert [full(r) for r in single] == [full(r) for r in scalar]


def test_default_noise_rng_is_seeded(robust_links):
    link = robust_links[2013]
    bits = default_stress_pattern()
    assert full(link.transmit(bits, T_BIT, noise_sigma=0.01)) == full(
        scalar_transmit(link, bits, T_BIT, noise_sigma=0.01)
    )


@pytest.mark.parametrize(
    "bits",
    [[0] * 40, [1] * 40, [], [1, 0] * 30],
    ids=["all-zero", "all-one", "empty", "alternating"],
)
def test_edge_patterns_match(robust_links, bits):
    links = [robust_links[s] for s in (2013, 2067, 2050)]
    for bit_period in (T_BIT, 1.0 / 9e9):
        batched = transmit_batch(links, bits, bit_period, probe_stage=2)
        scalar = [scalar_transmit(x, bits, bit_period, probe_stage=2) for x in links]
        assert [full(r) for r in batched] == [full(r) for r in scalar]


def test_overclocked_links_replay_the_reset_gate(robust_links):
    # Past the maximum rate the reset dead time drops pulses: the kernel's
    # sequential replay of the gate must agree with the scalar loop.
    links = [robust_links[s] for s in POOL_SEEDS[:30]]
    pattern = default_stress_pattern()
    for rate in (6e9, 9e9, 12e9):
        batched = transmit_batch(links, pattern, 1.0 / rate, probe_stage=9)
        scalar = [scalar_transmit(x, pattern, 1.0 / rate, probe_stage=9) for x in links]
        assert [full(r) for r in batched] == [full(r) for r in scalar]
        assert any(r.n_errors for r in scalar)


def test_per_link_bit_planes(robust_links):
    links = [robust_links[s] for s in (2013, 2015, 2067)]
    planes = np.array([[1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 0]])
    batched = transmit_batch(links, planes, T_BIT)
    scalar = [
        scalar_transmit(x, plane, T_BIT) for x, plane in zip(links, planes.tolist())
    ]
    assert [full(r) for r in batched] == [full(r) for r in scalar]


def test_bus_matches_lane_by_lane_oracle():
    design = robust_design()
    bus = SRLRBus(design, n_bits=16, sample=monte_carlo_sample(design.tech, 3001))
    words = random_words(20, 16)
    result = bus.transmit_words(words, T_BIT)
    energy = 0.0
    lane_errors = []
    for j, lane in enumerate(bus.lanes):
        outcome = scalar_transmit(lane, [(w >> j) & 1 for w in words], T_BIT)
        energy += outcome.energy
        lane_errors.append(outcome.n_errors)
    assert result.energy == energy
    assert result.lane_errors == lane_errors


def test_batch_validation(robust_links):
    links = [robust_links[2013], robust_links[2014]]
    with pytest.raises(ConfigurationError):
        transmit_batch(links, [0, 2, 1], T_BIT)
    with pytest.raises(ConfigurationError):
        transmit_batch(links, np.zeros((3, 4), dtype=int), T_BIT)
    with pytest.raises(ConfigurationError):
        transmit_batch(links, [0, 1], -1.0)
    with pytest.raises(ConfigurationError):
        transmit_batch(links, [0, 1], T_BIT, probe_stage=10)
    short = SRLRLink(robust_design(n_stages=5))
    with pytest.raises(ConfigurationError):
        transmit_batch([links[0], short], [0, 1], T_BIT)
    assert transmit_batch([], [0, 1], T_BIT) == []


def test_simulate_dies_matches_one_die_at_a_time():
    design = straightforward_design()
    pattern = tuple(default_stress_pattern())
    seeds = POOL_SEEDS[:12]
    batched = simulate_dies(seeds, design, pattern, T_BIT, True)
    assert batched == [simulate_die(s, design, pattern, T_BIT, True) for s in seeds]


def test_monte_carlo_is_chunking_invariant():
    from repro.runtime import ParallelExecutor

    design = robust_design()
    results = [
        run_monte_carlo(
            design,
            n_runs=30,
            base_seed=2060,
            executor=ParallelExecutor(n_jobs=1, chunk_size=chunk),
        ).runs
        for chunk in (1, 4, None)
    ]
    assert results[0] == results[1] == results[2]
    assert any(r.stuck for r in results[0]) and any(not r.ok for r in results[0])
