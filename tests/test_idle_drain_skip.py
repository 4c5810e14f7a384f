"""Idle drain cycles are skipped, and the skip changes nothing.

When the network holds no flit and the fault layer only waits on a
timer, ``NocSimulator.run`` jumps to the layer's next event instead of
stepping each cycle — but only for traffic sources that draw nothing
while draining (``silent_drain``: trace replay, which the fault
campaign's recorded streams use too).  Every test here runs the same
scenario once with the jump and once stepping every cycle (the same
recording with ``silent_drain`` switched off) and demands identical statistics, fault ledger, final
cycle and, for wedged runs, the identical ``LivelockError``.
"""

from __future__ import annotations

import copy

import pytest

from repro.errors import LivelockError
from repro.fault import DeadLinks, FaultLayer, ProtectionConfig, UniformBer
from repro.fault.protection import _Transfer
from repro.noc import (
    ENGINES,
    MeshTopology,
    NocSimulator,
    SyntheticTraffic,
    TraceTraffic,
    record_trace,
)
from tests.test_noc_fastsim_parity import _fault_fingerprint, _fingerprint

WARMUP, MEASURE = 40, 160


def _tape(seed: int = 4, rate: float = 0.05) -> TraceTraffic:
    source = SyntheticTraffic(
        MeshTopology(3), rate, "uniform", size_flits=2, seed=seed
    )
    return record_trace(source, WARMUP + MEASURE)


def _run(engine, silent, model, protection, drain_limit=20_000, wedge=None):
    """One run; returns (fingerprints, steps taken, livelock message)."""
    traffic = _tape().replay()
    if not silent:
        traffic.silent_drain = False
    sim = NocSimulator(MeshTopology(3), traffic=traffic, seed=4, engine=engine)
    layer = FaultLayer(model, protection, seed=2).attach(sim)
    if wedge is not None:
        wedge(layer)
    steps = 0
    step = sim.step

    def counted():
        nonlocal steps
        steps += 1
        step()

    sim.step = counted
    message = None
    try:
        sim.run(warmup=WARMUP, measure=MEASURE, drain_limit=drain_limit)
    except LivelockError as exc:
        message = str(exc)
    return (_fingerprint(sim), _fault_fingerprint(layer)), steps, message, sim


def _assert_skip_is_invisible(**scenario):
    for engine in ENGINES:
        skipped = _run(engine, True, **scenario)
        stepped = _run(engine, False, **scenario)
        assert skipped[0] == stepped[0]
        assert skipped[2] == stepped[2]
        assert skipped[3].cycle == stepped[3].cycle
        # Stepping runs every cycle; the skip really skipped.
        assert stepped[1] == stepped[3].cycle
        assert skipped[1] < stepped[1]
    return skipped, stepped


def test_e2e_long_idle_drains_match_stepping():
    (fp, _steps, message, _sim), _ = _assert_skip_is_invisible(
        model=UniformBer(1e-2),
        protection=ProtectionConfig(protocol="e2e", timeout_cycles=150),
    )
    assert message is None
    assert fp[1]["packet_retries"] > 0


def test_drain_limit_livelock_is_raised_at_the_same_cycle():
    """A severed wire and an endless retry budget: the drain limit runs
    out while the network idles between retries."""
    (_fp, _steps, message, _sim), _ = _assert_skip_is_invisible(
        model=DeadLinks(victims=("1,1->1,2",), mode="drop"),
        protection=ProtectionConfig(
            protocol="e2e", timeout_cycles=100, max_packet_retries=1000
        ),
        drain_limit=2_500,
    )
    assert message is not None and "failed to drain within 2500" in message


def test_stall_livelock_without_event_is_raised_at_the_same_cycle():
    """A tracker wedged by hand: a transfer with nothing pending and no
    ack in flight keeps the layer busy with no event scheduled, so the
    stall detector must fire, skip or no skip."""

    def wedge(layer):
        layer.tracker._transfers[10**9] = _Transfer(
            src=(0, 0), dests=frozenset({(1, 1)}), size_flits=1,
            routing="xy", first_inject=0, last_send=0, pending=set(),
        )

    for engine in ENGINES:
        skipped = _run(
            engine, True, UniformBer(1e-3), ProtectionConfig(protocol="e2e"),
            wedge=wedge,
        )
        stepped = _run(
            engine, False, UniformBer(1e-3), ProtectionConfig(protocol="e2e"),
            wedge=wedge,
        )
        assert skipped[2] is not None and "no forward progress" in skipped[2]
        assert skipped[2] == stepped[2]
        assert skipped[3].cycle == stepped[3].cycle
        assert skipped[0] == stepped[0]


@pytest.mark.parametrize("engine", ENGINES)
def test_live_synthetic_traffic_steps_every_drain_cycle(engine):
    """A live generator keeps drawing while drained, so its runs step
    every cycle: the generator ends where one driven by hand through
    every simulated cycle ends."""
    topology = MeshTopology(3)
    traffic = SyntheticTraffic(topology, 0.05, "uniform", size_flits=2, seed=4)
    twin = copy.deepcopy(traffic)
    assert not traffic.silent_drain
    sim = NocSimulator(topology, traffic=traffic, seed=4, engine=engine)
    FaultLayer(
        UniformBer(1e-2), ProtectionConfig(protocol="e2e", timeout_cycles=150),
        seed=2,
    ).attach(sim)
    sim.run(warmup=WARMUP, measure=MEASURE, drain_limit=20_000)
    assert sim.cycle > WARMUP + MEASURE + 150
    for cycle in range(WARMUP + MEASURE):
        twin.packets_for_cycle(cycle)
    twin.begin_drain()
    for cycle in range(WARMUP + MEASURE, sim.cycle):
        assert twin.packets_for_cycle(cycle) == []
    twin.end_drain()
    assert traffic._rng.bit_generator.state == twin._rng.bit_generator.state
