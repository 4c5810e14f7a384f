"""Run a design-space exploration study from the command line.

Run:  PYTHONPATH=src python scripts/run_dse.py [study] [options]

Studies
-------
``fig8``    Fig. 8 re-cast: energy/bit/cm vs bandwidth density over
            (swing, wire pitch) under the Fig. 6 yield gate, then the
            frontier-membership verdict against the Table I baselines.
``sizing``  Section II re-cast: energy/bit/mm vs worst-stage sensing
            margin over (M1/M2 widths, swing, driver scale).

Typical invocations::

    python scripts/run_dse.py fig8 --strategy nsga2 --jobs 4
    python scripts/run_dse.py sizing --strategy grid --levels 3
    python scripts/run_dse.py fig8 --resume          # continue after ^C

Every evaluation is appended durably to the run store (default
``results/dse/<study>-<strategy>.jsonl``) as it completes, so an
interrupted search loses at most the in-flight batch; ``--resume``
replays the store and recomputes only what is missing.  For a fixed
``--seed`` the reported front is bitwise identical for every ``--jobs``
value and for any interrupt/resume pattern (docs/DSE.md explains why).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.dse import (
    Fig8Outcome,
    format_report,
    make_strategy,
    fig8_study,
    sizing_study,
)
from repro.errors import CheckpointError
from repro.runtime import ResultCache


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run_dse.py",
        description="Multi-objective design-space exploration studies.",
    )
    parser.add_argument(
        "study", nargs="?", default="fig8", choices=["fig8", "sizing"],
        help="which paper claim to explore (default: fig8)",
    )
    parser.add_argument(
        "--strategy", default="nsga2", choices=["grid", "lhs", "nsga2"],
        help="search strategy (default: nsga2)",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = all cores)")
    parser.add_argument("--seed", type=int, default=2013,
                        help="base seed (default: 2013)")
    parser.add_argument("--population", type=int, default=16,
                        help="NSGA-II population (default: 16)")
    parser.add_argument("--generations", type=int, default=6,
                        help="NSGA-II generations (default: 6)")
    parser.add_argument("--levels", type=int, default=4,
                        help="grid points per axis (default: 4)")
    parser.add_argument("--samples", type=int, default=48,
                        help="LHS sample count (default: 48)")
    parser.add_argument("--mc-runs", type=int, default=None, metavar="N",
                        help="Monte Carlo dies per candidate"
                             " (default: the study's own)")
    parser.add_argument("--store", type=Path, default=None, metavar="PATH",
                        help="run store path (default:"
                             " results/dse/<study>-<strategy>.jsonl)")
    parser.add_argument("--no-store", action="store_true",
                        help="run without persisting evaluations")
    parser.add_argument("--resume", action="store_true",
                        help="continue an interrupted run from its store")
    parser.add_argument("--fresh", action="store_true",
                        help="delete an existing store and start over")
    parser.add_argument("--cache", type=Path, nargs="?", default=None,
                        const=Path("results/.dse-cache"), metavar="DIR",
                        help="cross-run result cache"
                             " (default dir: results/.dse-cache)")
    return parser.parse_args(argv)


def build_strategy(args: argparse.Namespace):
    if args.strategy == "grid":
        return make_strategy("grid", levels=args.levels)
    if args.strategy == "lhs":
        return make_strategy("lhs", n_samples=args.samples)
    return make_strategy(
        "nsga2", population=args.population, generations=args.generations
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    store_path = args.store or Path("results/dse") / f"{args.study}-{args.strategy}.jsonl"
    if args.fresh and store_path.exists():
        store_path.unlink()
    checkpoint = None if args.no_store else store_path
    cache = ResultCache(args.cache) if args.cache is not None else None
    strategy = build_strategy(args)

    def progress(generation: int, fresh: int, total: int) -> None:
        print(
            f"[dse] generation {generation}: {fresh} evaluated, "
            f"{total} candidates so far",
            file=sys.stderr,
        )

    kwargs = dict(
        strategy=strategy,
        base_seed=args.seed,
        n_jobs=args.jobs,
        cache=cache,
        checkpoint=checkpoint,
        resume=args.resume,
        progress=progress,
    )
    if args.mc_runs is not None:
        kwargs["mc_runs"] = args.mc_runs
    t0 = time.time()
    try:
        if args.study == "fig8":
            outcome = fig8_study(**kwargs)
            result = outcome.result
        else:
            outcome = None
            result = sizing_study(**kwargs)
    except CheckpointError as exc:
        print(f"run store: {exc}", file=sys.stderr)
        print(
            "hint: --resume continues the stored run; --fresh discards it;"
            " --store PATH writes elsewhere",
            file=sys.stderr,
        )
        return 2
    except KeyboardInterrupt:
        if checkpoint is not None:
            print(
                f"\ninterrupted — completed evaluations are safe in {store_path};"
                f" re-run with --resume to continue",
                file=sys.stderr,
            )
        else:
            print("\ninterrupted (no store; nothing persisted)", file=sys.stderr)
        return 130

    title = {
        "fig8": "Fig. 8 re-cast: energy vs bandwidth density",
        "sizing": "Section II re-cast: energy vs sensing margin",
    }[args.study]
    print(format_report(result, title=title))
    if checkpoint is not None:
        print(f"\nrun store: {store_path} ({len(result.records)} records)")
    if cache is not None:
        print(cache.summary())
    if isinstance(outcome, Fig8Outcome):
        print(f"\npaper operating point: "
              f"{outcome.paper_point['energy_fj_per_bit_per_cm']:.0f} fJ/bit/cm at "
              f"{outcome.paper_point['bandwidth_density_gbps_per_um']:.2f} Gb/s/um")
        print(outcome.verdict())
    print(f"total wall time: {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
