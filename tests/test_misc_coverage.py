"""Cross-cutting coverage: lane namespacing, taps under traces, misc APIs."""

from __future__ import annotations

import pytest

from repro.circuit import SRLRLink, robust_design
from repro.noc import (
    MeshTopology,
    NocConfig,
    NocSimulator,
    SyntheticTraffic,
    TraceTraffic,
    price_stats,
    record_trace,
)
from repro.tech import monte_carlo_sample, tech_45nm_soi


def test_name_prefix_isolates_lane_mismatch():
    sample = monte_carlo_sample(tech_45nm_soi(), seed=44)
    a = SRLRLink(robust_design(), sample, name_prefix="laneA.")
    b = SRLRLink(robust_design(), sample, name_prefix="laneB.")
    c = SRLRLink(robust_design(), sample, name_prefix="laneA.")
    # Same prefix + same sample = identical devices; different prefix
    # draws fresh mismatch on the same die.
    assert a.stages[0]._m1.vth == c.stages[0]._m1.vth
    assert a.stages[0]._m1.vth != b.stages[0]._m1.vth
    # The bias replica is shared (one generator per die), so the launch
    # amplitudes agree up to the drivers' own mismatch scale.
    assert abs(a._pm_launch.amplitude - b._pm_launch.amplitude) < 0.05


def test_trace_replay_isolates_tap_effect():
    """The advertised trace use case: identical traffic, taps on vs off."""
    topo = MeshTopology(4)
    gen = SyntheticTraffic(
        topo, injection_rate=0.04, multicast_fraction=0.6, multicast_degree=4, seed=12
    )
    trace = record_trace(gen, 200)

    def run(taps: bool):
        sim = NocSimulator(
            4,
            config=NocConfig(enable_taps=taps),
            traffic=TraceTraffic(topo, trace.entries),
        )
        return sim.run(warmup=0, measure=220)

    with_taps = run(True)
    without = run(False)
    # Same deliveries either way...
    assert with_taps.delivered_count == without.delivered_count
    # ...but taps convert ejections into free deliveries, saving energy.
    assert with_taps.tap_deliveries > 0
    assert without.tap_deliveries == 0
    assert with_taps.ejections < without.ejections
    assert price_stats(with_taps).total < price_stats(without).total


def test_transmit_probe_shape(robust_link, stress_pattern):
    out = robust_link.transmit(stress_pattern, 1.0 / 4.1e9, probe_stage=5)
    assert out.probe is not None
    assert len(out.probe) == len(stress_pattern)
    swings = [s for s, _, fired in out.probe if fired]
    assert swings and all(0.1 < s < 0.6 for s in swings)
    # No probe requested -> no probe payload.
    assert robust_link.transmit(stress_pattern[:8], 1.0 / 4.1e9).probe is None


def test_transmit_probe_validation(robust_link):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        robust_link.transmit([1, 0], 1.0 / 4.1e9, probe_stage=99)


def test_bypass_disabled_below_occupied_vcs():
    """Bypass only applies to flits landing in an *empty* VC.

    Single-flit packets always find their allocated VC empty (one packet
    per VC ownership), so multi-flit worms are needed: body flits arrive
    behind a still-buffered head and must take the full pipeline.
    """
    topo = MeshTopology(4)
    traffic = SyntheticTraffic(topo, injection_rate=0.3, size_flits=3, seed=3)
    sim = NocSimulator(
        4,
        config=NocConfig(enable_bypass=True, vc_capacity=4, n_vcs=2),
        traffic=traffic,
    )
    for _ in range(250):
        sim.step()
    assert 0 < sim.stats.bypassed_flits < sim.stats.buffer_writes


def test_pattern_lookup_in_experiment_registry():
    """Every experiment driver exported by the analysis package runs."""
    import repro.analysis as analysis

    names = [n for n in analysis.__all__ if n.startswith("e") and n[1].isdigit()]
    # One exported driver per registry entry that runs one (E1..E27 but
    # the text rows E25/E26, plus the e11 simulated variant).
    assert len(names) == 26
    assert set(names) == {
        e.driver.__name__ for e in analysis.REGISTRY if e.driver is not None
    }
    for name in names:
        assert callable(getattr(analysis, name))
