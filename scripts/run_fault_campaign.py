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

Every campaign parameter is a flag generated from a
:class:`~repro.fault.FaultCampaignConfig` field (``--<field>``, plus
``--rate`` for ``injection_rate`` and ``--no-coupling``), so ``--help``
lists them all with their defaults; a flag left off keeps the field's
default.

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
    FaultCampaignConfig,
    format_fault_report,
    run_fault_campaign,
)
from repro.fault.campaign import add_config_flags, config_flag_values
from repro.runtime import ParallelExecutor, ResilienceConfig


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run_fault_campaign.py",
        description="Effective fJ/bit/mm and goodput vs raw link BER "
        "per protection scheme.",
    )
    add_config_flags(parser)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = all cores)")
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
    fields = config_flag_values(args)
    if args.smoke:
        # --smoke shrinks windows and the BER grid and puts the traffic
        # shape back at its defaults, but keeps the requested topology,
        # so CI can smoke any family member.
        for name in ("pattern", "size_flits", "drain_limit"):
            fields.pop(name, None)
        fields.update(
            k=3, injection_rate=0.06, warmup=30, measure=150, bers=(2e-3,)
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
