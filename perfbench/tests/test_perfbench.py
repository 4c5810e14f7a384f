"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

from perfbench import calib, fingerprint, tracing
from perfbench.run import PER_LAYER, ROOT
from perfbench.workloads import POOL, WORKLOADS, McFig6, pass_order


def test_correction_divides_out_sampling_and_mean_kernel_time():
    # 2.0 s wall, 0.1 s of it sampling, kernel mean 2x the reference.
    samples = [calib.T_KERNEL_REF * 1.5, calib.T_KERNEL_REF * 2.5]
    assert calib.corrected(2.0, 0.1, samples) == pytest.approx(1.9 / 2.0)


def test_correction_cancels_a_uniformly_slower_host():
    ref = calib.T_KERNEL_REF
    fast = calib.corrected(1.0, 0.0, [ref] * 5)
    slow = calib.corrected(1.7, 0.0, [ref * 1.7] * 5)
    assert fast == pytest.approx(1.0)
    assert slow == pytest.approx(fast)


def test_correction_weights_each_moment_of_the_pass():
    # Half the samples slow, half fast: the mean, not either mode.
    ref = calib.T_KERNEL_REF
    assert calib.corrected(1.5, 0.0, [ref, ref, 2 * ref, 2 * ref]) == pytest.approx(1.0)


def test_sensitivity_scales_the_correction_in_log_space():
    ref = calib.T_KERNEL_REF
    # A workload with sensitivity 0.5 slows sqrt(4) = 2x while the kernel
    # slows 4x; the correction maps that back to the reference time.
    assert calib.corrected(2.0, 0.0, [4 * ref], sensitivity=0.5) == pytest.approx(1.0)
    assert calib.corrected(2.0, 0.0, [ref], sensitivity=0.5) == pytest.approx(2.0)


def test_fit_sensitivity_recovers_the_slope_within_groups():
    kernel = [1.0, 1.5, 2.0, 1.0, 1.5, 2.0]
    groups = [0, 0, 0, 1, 1, 1]
    base = {0: 3.0, 1: 5.0}  # groups differ in work, not in slope
    host = [base[g] * k**0.7 for k, g in zip(kernel, groups)]
    assert calib.fit_sensitivity(host, kernel, groups) == pytest.approx(0.7)
    assert calib.fit_sensitivity([1.0, 2.0], [1.0, 1.0], [0, 0]) is None


def test_fit_runs_recovers_pass_and_setup_slopes_across_runs():
    def record(kernel: float, trace: int = 0) -> dict:
        return {
            "workload": "w", "trace": trace,
            "raw_items_per_s": 10.0 / kernel**0.8,
            "setup_host_s": [2.0 * kernel**0.9, 2.0 * kernel**0.9],
            "pass_kernel_mean_s": [kernel, None, kernel],
        }

    runs = [record(k) for k in (1.0, 1.4, 2.2)] + [record(9.0, trace=1)]
    passes, setup = calib.fit_runs(runs)["w"]
    assert passes == pytest.approx(0.8)
    assert setup == pytest.approx(0.9)


def test_correction_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        calib.corrected(1.0, 0.0, [0.0, 0.001])
    with pytest.raises(ValueError):
        calib.corrected(1.0, 0.0, [])


def test_sampler_samples_inside_the_block_and_excludes_itself():
    import time

    with calib.Sampler() as sampler:
        # Pure user-mode work: the timer counts user CPU time only.
        deadline = time.perf_counter() + 0.3
        spins = 0
        while time.perf_counter() < deadline:
            spins += 1
    # About one sample per INTERVAL_S of CPU time, plus the exit sample.
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.sampling_s < sampler.host_s
    assert sampler.program_s == pytest.approx(sampler.host_s - sampler.sampling_s)
    assert sampler.reference_s == pytest.approx(
        calib.corrected(sampler.host_s, sampler.sampling_s, sampler.samples)
    )


def test_sampler_restores_the_previous_handler():
    import signal

    previous = signal.getsignal(signal.SIGVTALRM)
    with calib.Sampler():
        pass
    assert signal.getsignal(signal.SIGVTALRM) is previous
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)


def test_seed_orders_the_pool_deterministically():
    assert pass_order(11) == pass_order(11)
    assert pass_order(11) != pass_order(12)
    assert sorted(pass_order(11)) == list(range(POOL))


def test_every_workload_has_a_full_recorded_pool():
    table = fingerprint.load()
    assert set(table) == set(WORKLOADS)
    for rows in table.values():
        assert [row["entry"] for row in rows] == list(range(POOL))


def test_fingerprint_trips_on_one_perturbed_die():
    workload = McFig6()
    workload.setup()
    recorded = fingerprint.load()["mc_fig6"][0]
    output = workload.run(0)
    assert workload.check(workload.summarize(0, output), recorded)
    robust = output[0]
    flipped = dataclasses.replace(robust.runs[7], ok=not robust.runs[7].ok)
    perturbed = [
        dataclasses.replace(robust, runs=[*robust.runs[:7], flipped, *robust.runs[8:]]),
        output[1],
    ]
    assert not workload.check(workload.summarize(0, perturbed), recorded)


def _span(name, start, end, parent, pass_id=1):
    return tracing.Span(name, start, end, parent, pass_id)


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        _span("bench.pass", 0.0, 10.0, -1),  # 0
        _span("energy.link_energy", 1.0, 5.0, 0),  # 1: contains the build
        _span("circuit.link_build", 2.0, 4.5, 1),  # 2
        _span("circuit.transmit", 6.0, 7.0, 0),  # 3
        _span("circuit.transmit", 7.5, 9.0, 0),  # 4
        _span("circuit.transmit", 0.0, 3.0, -1, pass_id=2),  # other pass
    ]
    own = tracing.self_times(spans, 1)
    assert own == pytest.approx(
        {
            "bench.pass": 10.0 - 4.0 - 1.0 - 1.5,
            "energy.link_energy": 4.0 - 2.5,
            "circuit.link_build": 2.5,
            "circuit.transmit": 2.5,
        }
    )
    assert sum(own.values()) == pytest.approx(10.0)
    assert tracing.span_counts(spans, 1)["circuit.transmit"] == 2
    assert tracing.inclusive_times(spans, 1, "energy.link_energy") == 4.0


def test_nested_spans_of_one_name_count_once_inclusive():
    spans = [
        _span("noc.build", 0.0, 3.0, -1),
        _span("noc.build", 0.5, 2.0, 0),
    ]
    assert tracing.inclusive_times(spans, 1, "noc.build") == 3.0
    assert tracing.self_times(spans, 1)["noc.build"] == pytest.approx(3.0)


def test_instrumentation_records_and_restores():
    from repro.circuit import link

    original = link.SRLRLink.transmit
    tracer = tracing.Tracer()
    probes = tracing.Instrumentation(tracer)
    probes.install()
    try:
        assert link.SRLRLink.transmit is not original
        assert not probes.missing
    finally:
        probes.uninstall()
    assert link.SRLRLink.transmit is original


def test_tracer_survives_a_sample_landing_inside_begin():
    tracer = tracing.Tracer()

    class Interrupted(list):
        # The sampler's signal handler runs between bytecodes: here,
        # right after begin() appended its span.
        def append(self, span):
            super().append(span)
            if span.name == "layer":
                tracer.add("bench.sample", 1.0, 2.0)

    tracer.spans = Interrupted()
    index = tracer.begin("layer")
    tracer.end(index)
    assert tracer.spans[index].name == "layer"
    assert tracer.spans[index].end > 0.0
    assert tracing.self_times(tracer.spans, None)["layer"] >= 0.0


def test_tracer_ignores_other_threads():
    import threading

    tracer = tracing.Tracer()
    seen = []
    thread = threading.Thread(target=lambda: seen.append(tracer.begin("x")))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [None] and tracer.spans == []


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fault_mesh",
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _ in PER_LAYER]
    assert metrics["noc.fast_runs"]["value"] == 12
    assert metrics["noc.reference_runs"]["value"] == 0
    assert metrics["circuit.transmits"]["value"] == 0
