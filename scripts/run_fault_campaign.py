"""Run the fault-injection campaign from the command line.

Run:  PYTHONPATH=src python scripts/run_fault_campaign.py [options]

The study: sweep raw per-bit link error rates against the selectable
protection schemes (none / crc / e2e / reroute) on the cycle-level mesh
and report, per point, the *effective* fJ/bit/mm (protection overheads
included, divided by intact payload bit-mm), goodput, and the raw
protocol counters — plus per-link Clopper-Pearson BER bounds recovered
from the injected error counts.

Typical invocations::

    python scripts/run_fault_campaign.py                      # default grid
    python scripts/run_fault_campaign.py --jobs 4             # parallel
    python scripts/run_fault_campaign.py --bers 1e-6 1e-4 1e-2
    python scripts/run_fault_campaign.py --protocols none crc
    python scripts/run_fault_campaign.py --smoke              # CI-sized run
    python scripts/run_fault_campaign.py --checkpoint run.jsonl
    python scripts/run_fault_campaign.py --checkpoint run.jsonl --resume
    python scripts/run_fault_campaign.py --task-timeout 300 --retries 2
    python scripts/run_fault_campaign.py --topology torus --k 4
    python scripts/run_fault_campaign.py --topology cmesh --concentration 4
    python scripts/run_fault_campaign.py --topology chiplet --k 2 \
        --chiplets-x 2 --chiplets-y 2

``--checkpoint`` persists each completed point to a crash-safe JSONL
store; after a kill (Ctrl-C, OOM, SIGKILL) re-run with ``--resume`` to
compute only the missing points — the result is bitwise identical to an
uninterrupted run.  ``--task-timeout``/``--retries`` opt points into the
resilient task layer (docs/RESILIENCE.md): a point that exhausts its
budget is quarantined and reported instead of aborting the campaign.

For a fixed ``--seed``, per-link fault counts and every summary
statistic are bitwise identical for any ``--jobs`` value (fault RNG
streams are content-addressed per link; see docs/FAULTS.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigurationError
from repro.fault import (
    PROTOCOLS,
    FaultCampaignConfig,
    format_fault_report,
    run_fault_campaign,
)
from repro.noc.topology import TOPOLOGY_KINDS
from repro.runtime import ParallelExecutor, ResilienceConfig
from repro.workload import COLLECTIVES, PAYLOAD_MODES, WORKLOADS


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run_fault_campaign.py",
        description="Effective fJ/bit/mm and goodput vs raw link BER "
        "per protection scheme.",
    )
    parser.add_argument("--k", type=int, default=4,
                        help="router-grid radix; per-chiplet local mesh "
                        "radix for --topology chiplet (default: 4)")
    parser.add_argument("--topology", choices=sorted(TOPOLOGY_KINDS),
                        default="mesh",
                        help="topology family (default: mesh)")
    parser.add_argument("--concentration", type=int, default=1, metavar="C",
                        help="cores per router for --topology cmesh "
                        "(default: 1, i.e. unset)")
    parser.add_argument("--chiplets-x", type=int, default=1, metavar="N",
                        help="chiplet grid width for --topology chiplet")
    parser.add_argument("--chiplets-y", type=int, default=1, metavar="N",
                        help="chiplet grid height for --topology chiplet")
    parser.add_argument("--noi-scale", type=float, default=2.0, metavar="X",
                        help="NoI link length multiplier for --topology "
                        "chiplet (default: 2.0)")
    parser.add_argument("--rate", type=float, default=0.05, metavar="R",
                        help="injection rate, packets/node/cycle (default: 0.05)")
    parser.add_argument("--pattern", default="uniform",
                        help="traffic pattern (default: uniform)")
    parser.add_argument("--size-flits", type=int, default=2, metavar="N",
                        help="flits per packet (default: 2)")
    parser.add_argument("--warmup", type=int, default=100)
    parser.add_argument("--measure", type=int, default=400)
    parser.add_argument("--drain-limit", type=int, default=20_000)
    parser.add_argument("--bers", type=float, nargs="+", metavar="BER",
                        default=[1e-6, 1e-4, 1e-3, 1e-2],
                        help="raw per-bit error rates to sweep")
    parser.add_argument("--protocols", nargs="+", choices=PROTOCOLS,
                        default=list(PROTOCOLS),
                        help="protection schemes (default: all)")
    parser.add_argument("--datapath", choices=["srlr", "full_swing"],
                        default="srlr",
                        help="datapath energy model (default: srlr)")
    parser.add_argument("--engine", choices=["fast", "reference"],
                        default="fast",
                        help="NoC cycle-loop engine (default: fast; both "
                        "produce identical results)")
    parser.add_argument("--multicast-fraction", type=float, default=0.0,
                        metavar="F",
                        help="share of injected packets that are multicast "
                        "(default: 0; forces the reference engine with an "
                        "explicit EngineFallbackWarning when --engine fast)")
    parser.add_argument("--multicast-degree", type=int, default=4, metavar="D",
                        help="destinations per multicast packet (default: 4)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="synthetic",
                        help="workload family (default: synthetic)")
    parser.add_argument("--trace-path", default=None, metavar="FILE",
                        help="trace file to replay (--workload trace)")
    parser.add_argument("--burst-on", type=float, default=0.05, metavar="P",
                        help="Markov P(off->on) per cycle (--workload bursty)")
    parser.add_argument("--burst-off", type=float, default=0.15, metavar="P",
                        help="Markov P(on->off) per cycle (--workload bursty)")
    parser.add_argument("--collective-fraction", type=float, default=0.25,
                        metavar="F",
                        help="multicast share (--workload collective)")
    parser.add_argument("--collective", choices=sorted(COLLECTIVES),
                        default="row",
                        help="collective destination set (default: row)")
    parser.add_argument("--payload-mode", choices=sorted(PAYLOAD_MODES),
                        default="constant",
                        help="what bits flits carry; non-constant switches "
                        "link pricing to counted bit transitions "
                        "(default: constant)")
    parser.add_argument("--no-coupling", action="store_true",
                        help="drop the crosstalk coupling term from "
                        "data-dependent link pricing")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = all cores)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed (default: 7)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI-sized run: 3x3 mesh, short windows, "
                        "one high BER, every protocol once")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="crash-safe JSONL store: each completed point "
                        "is persisted durably as it lands")
    parser.add_argument("--resume", action="store_true",
                        help="continue a checkpoint written by the same "
                        "configuration, computing only missing points")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="S",
                        help="per-point soft wall-clock timeout in seconds "
                        "(enables the resilient task layer)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry budget per point after a failure "
                        "(enables the resilient task layer; default 2 "
                        "when --task-timeout is set)")
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    return args


def build_config(args: argparse.Namespace) -> FaultCampaignConfig:
    fields = dict(
        topology=args.topology,
        k=args.k,
        concentration=args.concentration,
        chiplets_x=args.chiplets_x,
        chiplets_y=args.chiplets_y,
        noi_scale=args.noi_scale,
        injection_rate=args.rate,
        pattern=args.pattern,
        size_flits=args.size_flits,
        warmup=args.warmup,
        measure=args.measure,
        drain_limit=args.drain_limit,
        bers=args.bers,
        protocols=args.protocols,
        datapath=args.datapath,
        seed=args.seed,
        engine=args.engine,
        multicast_fraction=args.multicast_fraction,
        multicast_degree=args.multicast_degree,
        workload=args.workload,
        trace_path=args.trace_path,
        burst_on=args.burst_on,
        burst_off=args.burst_off,
        collective_fraction=args.collective_fraction,
        collective=args.collective,
        payload_mode=args.payload_mode,
        coupling=not args.no_coupling,
    )
    if args.smoke:
        # --smoke shrinks windows and the BER grid but keeps the
        # requested topology, so CI can smoke any family member.
        fields.update(
            k=3,
            injection_rate=0.06,
            pattern="uniform",
            size_flits=2,
            warmup=30,
            measure=150,
            drain_limit=20_000,
            bers=(2e-3,),
        )
    return FaultCampaignConfig(**fields)


def build_resilience(args: argparse.Namespace) -> "ResilienceConfig | None":
    if args.task_timeout is None and args.retries is None:
        return None
    return ResilienceConfig(
        timeout=args.task_timeout,
        max_retries=args.retries if args.retries is not None else 2,
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = build_config(args)
    except ConfigurationError as exc:
        # Topology/builder mistakes (e.g. --topology cmesh without
        # --concentration) name the offending parameter; no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    result = run_fault_campaign(
        config,
        executor=ParallelExecutor(
            n_jobs=args.jobs, resilience=build_resilience(args)
        ),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(format_fault_report(result))
    livelocked = [p for p in result.points if p.livelocked]
    if livelocked:
        print(
            f"\n{len(livelocked)} point(s) hit the livelock detector "
            "(partial counters; see docs/FAULTS.md)"
        )
    print(f"\n{len(result.points)} points, wall time {time.time() - t0:.1f}s")
    if result.failures:
        print(
            f"{len(result.failures)} point(s) exhausted their retry budget "
            "and were quarantined (see table above)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
