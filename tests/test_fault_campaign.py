"""Fault campaign: jobs-parity acceptance, energy crossover story, and
report plumbing."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import warnings
from dataclasses import asdict

import pytest

from repro.energy.router import RouterPowerModel
from repro.errors import ConfigurationError
from repro.fault import (
    EngineFallbackWarning,
    FaultCampaignConfig,
    format_fault_report,
    protection_crossover,
    run_fault_campaign,
)
from repro.fault.campaign import _evaluate_point
from repro.fault.energy import price_fault_run
from repro.fault.injector import FaultStats
from repro.fault.protection import ProtectionConfig
from repro.noc.stats import NocStats
from repro.noc.topology import build_topology
from repro.units import MM


@pytest.fixture(scope="module")
def campaign():
    config = FaultCampaignConfig(
        k=3,
        injection_rate=0.06,
        size_flits=2,
        warmup=30,
        measure=180,
        drain_limit=30_000,
        bers=(1e-5, 2e-3),
        protocols=("none", "crc", "e2e", "reroute"),
        seed=11,
    )
    return config, run_fault_campaign(config, n_jobs=1)


class TestJobsParity:
    """Acceptance: fixed seed -> bitwise-identical per-link error counts
    and identical summary stats, regardless of worker count."""

    def test_serial_and_parallel_are_bitwise_identical(self, campaign):
        config, serial = campaign
        parallel = run_fault_campaign(config, n_jobs=2)
        assert serial.points == parallel.points

    def test_per_link_counts_are_populated_and_consistent(self, campaign):
        _config, result = campaign
        for point in result.points:
            faulty = sum(f for _t, f, _n in point.per_link_errors)
            assert faulty == point.raw_faults
            assert len(point.per_link_ber_bounds) == len(point.per_link_errors)
            for (_t, f, n), bound in zip(
                point.per_link_errors, point.per_link_ber_bounds
            ):
                assert 0.0 < bound <= 1.0
                if n > 0:
                    assert bound >= f / n or math.isclose(bound, f / n)


class TestCrossoverStory:
    """The headline: unprotected wins at tiny BER, protection wins once
    raw errors start destroying payloads."""

    def test_none_cheapest_when_errors_are_rare(self, campaign):
        _config, result = campaign
        none_pt = result.point(1e-5, "none")
        crc_pt = result.point(1e-5, "crc")
        assert none_pt.effective_fj_per_bit_mm < crc_pt.effective_fj_per_bit_mm

    def test_crc_cheaper_than_none_at_high_ber(self, campaign):
        _config, result = campaign
        none_pt = result.point(2e-3, "none")
        crc_pt = result.point(2e-3, "crc")
        assert crc_pt.effective_fj_per_bit_mm < none_pt.effective_fj_per_bit_mm
        # And CRC actually repaired the traffic.
        assert crc_pt.corrupted_delivered == 0
        assert crc_pt.retransmissions > 0
        assert none_pt.corrupted_delivered > 0

    def test_crossover_detects_the_flip(self, campaign):
        _config, result = campaign
        assert protection_crossover(result, "crc", "none") == 2e-3
        assert protection_crossover(result, "none", "crc") == 1e-5

    def test_best_protocol(self, campaign):
        _config, result = campaign
        assert result.best_protocol(1e-5) == "none"
        best_high = result.best_protocol(2e-3)
        assert best_high in ("crc", "reroute", "e2e")

    def test_e2e_counters_populated_under_errors(self, campaign):
        _config, result = campaign
        point = result.point(2e-3, "e2e")
        assert point.completed_transfers > 0
        assert point.packet_retries > 0

    def test_offered_load_identical_across_protocols(self, campaign):
        """Same traffic seed everywhere: raw fault exposure differs only
        through protocol-induced extra traversals, and the none/e2e
        delivered counts come from the same offered packets."""
        _config, result = campaign
        none_lo = result.point(1e-5, "none")
        crc_lo = result.point(1e-5, "crc")
        # At 1e-5 essentially nothing retransmits in this short window,
        # so the two runs see the same traffic and deliver it all.
        assert none_lo.delivered == crc_lo.delivered


class TestPlumbing:
    def test_point_lookup_raises_on_unknown(self, campaign):
        _config, result = campaign
        with pytest.raises(ConfigurationError):
            result.point(0.5, "none")
        with pytest.raises(ConfigurationError):
            result.point(1e-5, "parity")

    def test_format_report_mentions_every_point(self, campaign):
        _config, result = campaign
        report = format_fault_report(result)
        for point in result.points:
            assert point.protocol in report
        assert "fJ/b/mm" in report

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FaultCampaignConfig(k=1)
        with pytest.raises(ConfigurationError):
            FaultCampaignConfig(bers=(2.0,))
        with pytest.raises(ConfigurationError):
            FaultCampaignConfig(protocols=("parity",))
        with pytest.raises(ConfigurationError):
            FaultCampaignConfig(injection_rate=0.0)

    def test_unknown_datapath_is_refused_at_the_config(self, monkeypatch):
        # Before the fix the config was accepted and the error only came
        # from the energy model when the first point was priced.
        import repro.fault.campaign as campaign_module

        def no_point(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(campaign_module, "_evaluate_point", no_point)
        with pytest.raises(
            ConfigurationError,
            match=r"datapath must be one of \('srlr', 'full_swing'\), got 'bogus'",
        ):
            run_fault_campaign(FaultCampaignConfig(datapath="bogus"), n_jobs=1)
        for datapath in ("srlr", "full_swing"):
            assert FaultCampaignConfig(datapath=datapath).datapath == datapath

    def test_list_valued_config_equals_tuple_valued(self):
        """JSON configs carry lists; they name the same campaign."""
        fields = dict(k=2, warmup=10, measure=20, seed=5)
        listed = FaultCampaignConfig(bers=[1e-3], protocols=["none"], **fields)
        tupled = FaultCampaignConfig(bers=(1e-3,), protocols=("none",), **fields)
        assert listed == tupled
        assert listed.content_hash() == tupled.content_hash()
        assert run_fault_campaign(listed) == run_fault_campaign(tupled)

    def test_service_points_equal_driver_points_for_integer_bers(self):
        """A JSON config may give a BER as an integer; the service's
        points carry it as given, as the in-process driver's do."""
        from repro.service import get_adapter

        adapter = get_adapter("fault")
        config = adapter.canonical_config(
            {"k": 2, "warmup": 10, "measure": 20, "bers": [0],
             "protocols": ["none"]}
        )
        payloads = {
            t.key: json.loads(json.dumps(adapter.run_task(config, t.spec)))
            for t in adapter.expand(config)
        }
        merged = adapter.merge(config, payloads)
        reference = run_fault_campaign(adapter._config(config))
        assert json.dumps([asdict(p) for p in merged.points]) == json.dumps(
            [asdict(p) for p in reference.points]
        )

    def test_tasks_cover_grid(self):
        config = FaultCampaignConfig(bers=(1e-6, 1e-3), protocols=("none", "crc"))
        tasks = config.tasks()
        assert len(tasks) == 4
        assert (1e-6, "crc") in [(ber, proto) for _cfg, ber, proto in tasks]

    def test_points_contain_no_unstable_identifiers(self, campaign):
        """Parity depends on results being free of process-global state
        (packet ids, wall-clock): everything in a point must be a plain
        value derived from the simulation itself."""
        _config, result = campaign
        for point in result.points:
            for name in ("ber", "goodput", "avg_latency", "delivered"):
                assert getattr(point, name) is not None
            assert not hasattr(point, "packet_ids")
            assert not hasattr(point, "timestamp")


class TestMulticastEngineFallback:
    """engine='fast' + multicast must fall back *loudly* (naming the
    campaign's config hash), never silently — and the fallback run must
    equal an explicit reference-engine run bitwise."""

    CONFIG = dict(
        k=2,
        warmup=20,
        measure=60,
        bers=(1e-3,),
        protocols=("none",),
        seed=7,
        multicast_fraction=0.25,
        multicast_degree=2,  # a k=2 mesh has only 3 possible destinations
    )

    def test_fallback_warns_and_names_config_hash(self):
        config = FaultCampaignConfig(engine="fast", **self.CONFIG)
        with pytest.warns(EngineFallbackWarning) as record:
            assert config.effective_engine() == "reference"
        [warning] = record
        message = str(warning.message)
        assert config.content_hash()[:16] in message
        assert "multicast" in message

    def test_run_fault_campaign_warns_once(self):
        config = FaultCampaignConfig(engine="fast", **self.CONFIG)
        with pytest.warns(EngineFallbackWarning):
            run_fault_campaign(config)

    def test_fallback_matches_explicit_reference_bitwise(self):
        fast = FaultCampaignConfig(engine="fast", **self.CONFIG)
        reference = FaultCampaignConfig(engine="reference", **self.CONFIG)
        with pytest.warns(EngineFallbackWarning):
            fell_back = run_fault_campaign(fast)
        baseline = run_fault_campaign(reference)
        assert [asdict(p) for p in fell_back.points] == [
            asdict(p) for p in baseline.points
        ]

    def test_no_multicast_no_warning(self):
        config = FaultCampaignConfig(engine="fast", k=2, warmup=20,
                                     measure=60, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            assert config.effective_engine() == "fast"

    def test_reference_engine_never_warns(self):
        config = FaultCampaignConfig(engine="reference", **self.CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            assert config.effective_engine() == "reference"

    def test_multicast_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            FaultCampaignConfig(multicast_fraction=1.5)
        with pytest.raises(ConfigurationError):
            FaultCampaignConfig(multicast_fraction=-0.1)

    def test_multicast_changes_config_hash(self):
        base = FaultCampaignConfig(**self.CONFIG)
        bumped_fields = dict(self.CONFIG, multicast_fraction=0.5)
        assert base.content_hash() != \
            FaultCampaignConfig(**bumped_fields).content_hash()


def campaign_digest(result) -> str:
    """SHA-256 (32 hex chars) over every field of every point, with
    floats by their exact JSON ``repr``."""
    text = json.dumps(
        [asdict(point) for point in result.points],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()[:32]


#: Pinned whole-campaign results.  ``mesh`` and ``chiplet`` are the
#: perfbench ``fault_mesh`` / ``fault_chiplet`` configs at seed 7 (their
#: digests equal pool entry 0 of ``perfbench/fingerprints.json``);
#: ``bursty`` covers the Markov on/off generator with random payloads.
GOLDEN_CAMPAIGNS = {
    "mesh": (
        dict(topology="mesh", k=4, bers=(1e-6, 1e-4, 1e-3),
             payload_mode="random", engine="fast", seed=7),
        "9c52c95a48aae5411b1e5b8bbfef8f77",
    ),
    "chiplet": (
        dict(topology="chiplet", k=2, chiplets_x=2, chiplets_y=2,
             bers=(1e-4,), payload_mode="random", engine="fast", seed=7),
        "da4a5937cfbb26674657a1e601b78c86",
    ),
    "bursty": (
        dict(k=3, workload="bursty", injection_rate=0.06, warmup=30,
             measure=150, bers=(1e-4, 1e-2), payload_mode="random", seed=5),
        "d7f17a6dcdf9a96b76b8e625c012a948",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CAMPAIGNS))
def test_campaign_golden_digest(name):
    """Every ``FaultPointResult`` field of three whole campaigns is
    pinned: a change to traffic, fault draws, protection or pricing
    shows up here, inside the tier-1 suite."""
    fields, expected = GOLDEN_CAMPAIGNS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineFallbackWarning)
        result = run_fault_campaign(FaultCampaignConfig(**fields))
    assert campaign_digest(result) == expected


def test_useful_bit_mm_resolves_each_route_once_and_sums_as_the_walk():
    topology = build_topology("chiplet", 2, chiplets_x=2, chiplets_y=2, noi_scale=2.5)
    endpoints = topology.endpoints()
    rng = random.Random(3)
    deliveries = [
        (rng.choice(endpoints), rng.choice(endpoints)) for _ in range(400)
    ]
    deliveries[7] = (None, endpoints[0])
    model = RouterPowerModel()
    link_mm = model.config.link_length / MM
    size_flits = 3
    # The per-delivery walk, summed in delivery order.
    expected = 0.0
    for src, dest in deliveries:
        hops = topology.route_mm(src, dest) if src is not None else 1
        expected += size_flits * model.config.flit_bits * hops * link_mm

    walked = []
    route_mm = type(topology).route_mm

    def counting(self, src, dest):
        walked.append((src, dest))
        return route_mm(self, src, dest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(topology), "route_mm", counting)
        report = price_fault_run(
            NocStats(),
            FaultStats(),
            topology,
            ProtectionConfig(),
            size_flits=size_flits,
            model=model,
            useful_deliveries=deliveries,
        )
    assert report.useful_bit_mm == expected
    assert report.clean_deliveries == len(deliveries)
    pairs = {pair for pair in deliveries if pair[0] is not None}
    assert sorted(walked) == sorted(pairs)


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize(
    "topology",
    [dict(topology="mesh", k=3), dict(topology="chiplet", k=2, chiplets_x=2)],
    ids=["mesh", "chiplet"],
)
def test_a_finished_point_leaves_no_cyclic_garbage(topology, engine):
    """Once a point's result is built its fault layer is detached, so
    reference counting alone frees the simulator, the layer and every
    channel: with the collector off, nothing is left for it to find."""
    config = FaultCampaignConfig(
        **topology, engine=engine, injection_rate=0.06, warmup=20,
        measure=80, bers=(1e-4, 5e-2),
    )
    tasks = config.tasks()
    _evaluate_point(tasks[0])  # first-use imports and memos
    gc.collect()
    gc.disable()
    try:
        leftover = {}
        for task in tasks:
            _evaluate_point(task)
            leftover[task[1:]] = gc.collect()
    finally:
        gc.enable()
    assert len(leftover) == 8
    assert leftover == dict.fromkeys(leftover, 0)
