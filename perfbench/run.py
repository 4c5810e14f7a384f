"""Layered benchmark of the SRLR reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mc_fig6 --seed 1 --seconds 15 --trace 0

An untraced run is ``SEGMENTS`` processes, one after another: child
processes (``--segment``) and then the run's own.  Each sets the
workload up (one set-up time sample) and repeats fixed passes for its
share of ``--seconds``, so a process-level accident (memory layout, hash
order) moves one segment, not the run.  Every pass is timed with the
calibration kernel sampled inside it (:mod:`perfbench.calib`) and
checked against its recorded fingerprint.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (reference-host units);
``--trace 1`` runs one process that alternates traced and untraced
passes and reports per-layer self times and counts per traced pass,
plus the tracing overhead.  A host record (versions, core count, raw
wall-clock rates, calibration spread) is printed before the result line
and written to ``perfbench/out/``.
The exit code is 0 only if every pass matched its fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calib, fingerprint, tracing  # noqa: E402
from perfbench.workloads import OUT, POOL, WORKLOADS, Workload, pass_order  # noqa: E402

#: Processes per untraced run, each one set-up sample and a share of
#: the measuring time.
SEGMENTS = 3
SEGMENT_TIMEOUT_S = 170.0

#: (name, unit) of every per-layer metric, reported on every workload
#: (0 where the workload does not reach the layer).  Times are seconds
#: of the reference host per traced pass and counts are per traced pass,
#: except ``wire.*``, which cover the set-up.
PER_LAYER = [
    ("wire.table_builds", "count"),
    ("wire.table_build_s", "s"),
    ("circuit.transmit_s", "s"),
    ("circuit.transmits", "count"),
    ("circuit.link_build_s", "s"),
    ("circuit.design_s", "s"),
    ("tech.sample_s", "s"),
    ("mc.run_s", "s"),
    ("mc.failing_dies", "count"),
    ("runtime.map_s", "s"),
    ("noc.run_s", "s"),
    ("noc.build_s", "s"),
    ("noc.cycles", "count"),
    ("noc.us_per_cycle", "us"),
    ("noc.fast_runs", "count"),
    ("noc.reference_runs", "count"),
    ("noc.fallback_warnings", "count"),
    ("fault.campaign_s", "s"),
    ("fault.attach_s", "s"),
    ("fault.price_s", "s"),
    ("fault.retransmissions", "count"),
    ("fault.livelocked_points", "count"),
    ("workload.build_traffic_s", "s"),
    ("service.open_s", "s"),
    ("service.submit_s", "s"),
    ("service.lease_s", "s"),
    ("service.complete_s", "s"),
    ("service.record_worker_s", "s"),
    ("service.merge_s", "s"),
    ("service.execute_s", "s"),
    ("service.worker_s", "s"),
    ("service.overhead_ms_per_task", "ms"),
    ("service.lost_races", "count"),
    ("energy.link_energy_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_pass", "count"),
]

#: Root span of a traced pass; its self time is what no probe covers.
PASS_SPAN = "bench.pass"
#: Leaf span of one calibration sample taken inside a traced pass.
SAMPLE_SPAN = "bench.sample"


@dataclass
class Pass:
    """One timed pass."""

    index: int
    entry: int
    items: int
    ok: bool
    traced: bool
    #: Host wall seconds of the program, sampler time excluded (None if
    #: the pass raised).
    host_s: float | None = None
    #: The same interval in reference-host seconds.
    ref_s: float | None = None
    counts: dict = field(default_factory=dict)
    kernel_s: list[float] = field(default_factory=list)


def iqr_frac(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def setup(workload: Workload, entry: int, recorded: dict) -> bool:
    """Import the program, build inputs, run one warm-up pass; True if the
    warm-up output matches its fingerprint."""
    workload.setup()
    output = workload.run(entry)
    ok = workload.check(workload.summarize(entry, output), recorded[entry])
    workload.cleanup()
    return ok


def run_segment(
    args: argparse.Namespace,
    segment: int,
    seconds: float,
    instrumentation: tracing.Instrumentation | None = None,
) -> dict:
    """Set up (timed, traced if asked) and run passes for ``seconds``.

    Segments start at different points of the seed's pool order.
    """
    workload = WORKLOADS[args.workload]()
    recorded = fingerprint.load()[workload.name]
    order = pass_order(args.seed)
    first = 1 + segment * (POOL // SEGMENTS)
    tracer = instrumentation.tracer if instrumentation else None
    try:
        if instrumentation is not None:
            instrumentation.install()
            tracer.pass_id = "setup"
        try:
            with calib.Sampler(calib.SETUP_SENSITIVITY) as sampler:
                setup_ok = setup(workload, order[(first - 1) % POOL], recorded)
        finally:
            if instrumentation is not None:
                tracer.pass_id = None
                instrumentation.uninstall()
        passes = run_passes(workload, order, first, recorded, seconds, instrumentation)
    finally:
        workload.close()
    return {
        "setup_ref_s": sampler.reference_s,
        "setup_host_s": sampler.program_s,
        "setup_ok": setup_ok,
        "passes": passes,
    }


def run_child_segment(args: argparse.Namespace, segment: int, seconds: float) -> dict | None:
    """``run_segment`` in a fresh interpreter; None if it failed."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--segment", str(segment),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=SEGMENT_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"segment {segment} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"segment {segment} failed", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["passes"] = [Pass(**p) for p in result["passes"]]
    return result


def run_pass(
    workload: Workload,
    index: int,
    entry: int,
    recorded: dict,
    instrumentation: tracing.Instrumentation | None,
) -> Pass:
    """One timed pass, checked against its fingerprint after timing."""
    traced = instrumentation is not None and index % 2 == 1
    p = Pass(index=index, entry=entry, items=workload.items(entry), ok=False, traced=traced)
    on_sample = None
    if traced:
        tracer = instrumentation.tracer
        instrumentation.install()
        tracer.pass_id = index
        root = tracer.begin(PASS_SPAN)

        def on_sample(start: float, end: float) -> None:
            tracer.add(SAMPLE_SPAN, start, end)

    output = None
    try:
        with calib.Sampler(workload.sensitivity, on_sample=on_sample) as sampler:
            output = workload.run(entry)
    except Exception:
        traceback.print_exc()
    finally:
        if traced:
            tracer.end(root)
            tracer.pass_id = None
            instrumentation.uninstall()
    if output is not None:
        p.host_s, p.ref_s = sampler.program_s, sampler.reference_s
        p.kernel_s = sampler.samples
        try:
            summary = workload.summarize(entry, output)
            p.ok = workload.check(summary, recorded[entry])
            p.counts = workload.counts(summary)
        except Exception:
            traceback.print_exc()
        if not p.ok:
            print(f"pass {index}: pool entry {entry} does not match its "
                  "fingerprint", file=sys.stderr)
    workload.cleanup()
    return p


def run_passes(
    workload: Workload,
    order: list[int],
    first: int,
    recorded: dict,
    seconds: float,
    instrumentation: tracing.Instrumentation | None,
) -> list[Pass]:
    """Repeat passes until ``seconds`` have elapsed; traced runs trace
    every other pass.  Only complete passes are counted."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    index = first
    while not passes or time.perf_counter() < deadline:
        passes.append(
            run_pass(workload, index, order[index % POOL], recorded, instrumentation)
        )
        index += 1
    return passes


def median_rate(passes: list[Pass], reference: bool = True) -> float:
    """Median items per second over the passes that completed."""
    rates = [
        p.items / (p.ref_s if reference else p.host_s)
        for p in passes
        if p.host_s is not None
    ]
    return statistics.median(rates) if rates else float("nan")


def layer_metrics(
    passes: list[Pass], tracer: tracing.Tracer, setup_factor: float
) -> dict[str, float]:
    """Per-layer metrics: mean per traced pass, in reference seconds."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    setup_spans = tracing.span_counts(tracer.spans, "setup")
    setup_self = tracing.self_times(tracer.spans, "setup")
    values["wire.table_builds"] = setup_spans.get("wire.table_build", 0)
    values["wire.table_build_s"] = setup_self.get("wire.table_build", 0.0) * setup_factor
    traced = [p for p in passes if p.traced and p.host_s is not None]
    if not traced:
        return values
    attributed = tasks = overhead = 0.0
    spans = 0
    for p in traced:
        factor = p.ref_s / p.host_s
        for name, seconds in tracing.self_times(tracer.spans, p.index).items():
            metric = f"{name}_s"
            if metric in values and not metric.startswith("wire."):
                values[metric] += seconds * factor
            if name not in (PASS_SPAN, SAMPLE_SPAN):
                attributed += seconds * factor
        counted = tracing.span_counts(tracer.spans, p.index)
        spans += sum(n for name, n in counted.items() if name != SAMPLE_SPAN)
        values["circuit.transmits"] += counted.get("circuit.transmit", 0)
        for (pass_id, name), value in tracer.counts.items():
            if pass_id == p.index and name in values:
                values[name] += value
        for name, value in p.counts.items():
            values[name] += value
        executing = tracing.inclusive_times(tracer.spans, p.index, "service.execute")
        if executing > 0.0:
            # Samples landing inside task execution are not queue time.
            sampled = tracing.inclusive_times(tracer.spans, p.index, SAMPLE_SPAN)
            overhead += (p.host_s + sampled - executing) * factor
            tasks += p.items
    n = len(traced)
    for name, _unit in PER_LAYER:
        if not name.startswith(("wire.", "trace.")):
            values[name] /= n
    if values["noc.cycles"] > 0:
        values["noc.us_per_cycle"] = values["noc.run_s"] / values["noc.cycles"] * 1e6
    if tasks > 0:
        values["service.overhead_ms_per_task"] = overhead / tasks * 1e3
    values["trace.pass_s"] = statistics.fmean(p.ref_s for p in traced)
    values["trace.attributed_frac"] = attributed / n / values["trace.pass_s"]
    values["trace.spans_per_pass"] = spans / n
    untraced = [p for p in passes if not p.traced and p.ok]
    traced_ok = [p for p in traced if p.ok]
    if untraced and traced_ok:
        values["trace.overhead_frac"] = median_rate(untraced) / median_rate(traced_ok) - 1.0
    return values


def host_record(
    args: argparse.Namespace,
    sensitivity: float,
    passes: list[Pass],
    setup_ref: list[float],
    setup_host: list[float],
) -> dict:
    """What the host looked like during the run (not a gated metric)."""
    import numpy

    from repro.runtime.checkpoint import git_provenance

    timed = [p for p in passes if p.host_s is not None]
    kernel = [t for p in timed for t in p.kernel_s]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_provenance(ROOT),
        "kernel_ref_s": calib.T_KERNEL_REF,
        "sensitivity": sensitivity,
        "sensitivity_fit": calib.fit_sensitivity(
            [p.host_s for p in timed],
            [statistics.fmean(p.kernel_s) for p in timed],
            [p.entry for p in timed],
        ),
        "kernel_median_s": statistics.median(kernel) if kernel else None,
        "kernel_iqr_frac": iqr_frac(kernel),
        "passes": len(passes),
        "raw_items_per_s": median_rate(timed, reference=False),
        "items_per_s": median_rate(timed),
        "raw_pass_iqr_frac": iqr_frac([p.host_s for p in timed]),
        "corrected_pass_iqr_frac": iqr_frac([p.ref_s for p in timed]),
        "setup_ref_s": setup_ref,
        "setup_host_s": setup_host,
        "pass_entry": [p.entry for p in passes],
        "pass_host_s": [p.host_s for p in passes],
        "pass_ref_s": [p.ref_s for p in passes],
        "pass_kernel_mean_s": [
            statistics.fmean(p.kernel_s) if p.kernel_s else None for p in passes
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.segment is not None:
        result = run_segment(args, args.segment, args.seconds)
        result["passes"] = [asdict(p) for p in result["passes"]]
        print(json.dumps(result))
        return 0

    tracer = instrumentation = None
    segments: list[dict | None] = []
    if args.trace:
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer)
        segments.append(run_segment(args, 0, args.seconds, instrumentation))
    else:
        share = args.seconds / SEGMENTS
        for segment in range(1, SEGMENTS):
            segments.append(run_child_segment(args, segment, share))
        segments.append(run_segment(args, 0, share))
    done = [s for s in segments if s is not None]
    passes = [p for s in done for p in s["passes"]]
    setup_ref = [s["setup_ref_s"] for s in done]
    setup_host = [s["setup_host_s"] for s in done]
    attempted = len(segments) + len(passes)
    failed = (
        len(segments) - len(done)
        + sum(not s["setup_ok"] for s in done)
        + sum(not p.ok for p in passes)
    )
    if args.trace:
        values = layer_metrics(passes, tracer, setup_ref[0] / setup_host[0])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "items_per_s": {"value": median_rate(passes), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    sensitivity = WORKLOADS[args.workload]().sensitivity
    record = host_record(args, sensitivity, passes, setup_ref, setup_host)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"host-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("host " + json.dumps({k: v for k, v in record.items() if not k.startswith("pass_")}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
