"""Run every experiment; write results/ and EXPERIMENTS.md.

Run:  python scripts/run_all_experiments.py [--full] [--jobs [N]]
                                            [--cache [DIR]] [outdir]

The canonical "reproduce the paper" entry point: runs each entry of the
experiment registry (:mod:`repro.analysis.registry`) once at its row's
size, prints each report, saves it as ``<outdir>/<id>.txt`` plus a
combined REPORT.txt, and renders EXPERIMENTS.md from the same results.
With the default outdir (``results``) EXPERIMENTS.md is rewritten in
place; any other outdir gets its own copy, so a scratch run leaves the
committed files alone.  CI runs the script and fails if ``git diff``
shows EXPERIMENTS.md or ``results/`` changed, so no tracked number can
drift from the code.

``--full`` selects publication-fidelity sizes.  ``--jobs N`` fans the
Monte Carlo blocks, the DSE search and the fault campaign across N
worker processes (bare ``--jobs``: all cores); results are identical for
every N.  ``--cache`` reuses previously computed Monte Carlo blocks from
an on-disk content-addressed cache (default ``results/.mc-cache``).
Wall times go to stdout only, so every written file is byte-stable.

A failing experiment does not abort the suite: the remaining experiments
still run, a failure table is printed at the end, EXPERIMENTS.md is left
as it was, and the process exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

from repro.analysis import REGISTRY, calibration_report, render_experiments_md
from repro.runtime import ResultCache, print_progress

OUTDIR = Path("results")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run_all_experiments.py",
        description="Run every experiment; write results/ and EXPERIMENTS.md.",
    )
    parser.add_argument("--full", action="store_true",
                        help="publication-fidelity sizes")
    parser.add_argument("--jobs", type=int, nargs="?", const=0, default=1,
                        metavar="N", help="worker processes (bare --jobs or "
                        "0 = all cores; default 1)")
    parser.add_argument("--cache", type=Path, nargs="?", default=None,
                        const=OUTDIR / ".mc-cache", metavar="DIR",
                        help="on-disk Monte Carlo result cache "
                        "(default dir: results/.mc-cache)")
    parser.add_argument("outdir", nargs="?", type=Path, default=OUTDIR,
                        help="report directory (default: results)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    args.outdir.mkdir(exist_ok=True)
    cache = ResultCache(args.cache) if args.cache is not None else None
    runtime = {
        "n_jobs": args.jobs,
        "cache": cache,
        "progress": print_progress if args.jobs != 1 else None,
    }

    t_start = time.time()
    data = {}
    combined: list[str] = []
    # (id, exception summary, elapsed) per failed experiment: one bad
    # experiment must not abort the others.
    failures: list[tuple[str, str, float]] = []
    entries = [e for e in REGISTRY if e.driver is not None]
    for entry in entries:
        t0 = time.time()
        try:
            result = entry.run(args.full, **runtime)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            elapsed = time.time() - t0
            failures.append((entry.id, f"{type(exc).__name__}: {exc}", elapsed))
            header = f"=== {entry.id}: FAILED ==="
            print(f"{header} ({elapsed:.1f}s)", file=sys.stderr)
            traceback.print_exc()
            combined.append(header + "\n" + traceback.format_exc() + "\n")
            continue
        header = f"=== {result.experiment_id}: {result.title} ==="
        print(f"{header} ({time.time() - t0:.1f}s)\n{result.text}\n")
        (args.outdir / f"{entry.id}.txt").write_text(result.text + "\n")
        combined.append(header + "\n" + result.text + "\n")
        data[entry.id] = result.data

    combined.append("=== calibration ===\n" + calibration_report() + "\n")
    (args.outdir / "REPORT.txt").write_text("\n".join(combined))
    print(f"wrote {len(entries) - len(failures) + 1} reports under "
          f"{args.outdir}/ in {time.time() - t_start:.1f}s (jobs={args.jobs})")
    if cache is not None:
        print(cache.summary())
    if failures:
        print(f"\n{len(failures)}/{len(entries)} experiments FAILED; "
              "EXPERIMENTS.md not written:", file=sys.stderr)
        width = max(len(label) for label, _, _ in failures)
        for label, summary, elapsed in failures:
            print(f"  {label:<{width}}  {summary}  ({elapsed:.1f}s)", file=sys.stderr)
        return 1
    md_path = Path("EXPERIMENTS.md") if args.outdir == OUTDIR else (
        args.outdir / "EXPERIMENTS.md"
    )
    md_path.write_text(render_experiments_md(data, full=args.full))
    print(f"wrote {md_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
