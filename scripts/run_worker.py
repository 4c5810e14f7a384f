#!/usr/bin/env python
"""Campaign-service worker: lease tasks from a shared database and run them.

Run:  PYTHONPATH=src python scripts/run_worker.py --db campaigns.sqlite [--drain]

Start as many of these as you like (any machine that can see the
database file); each leases task rows in batches of about 50 ms of work
(one row at a time when a task takes longer) under a heartbeat +
lease-expiry protocol, executes them through the resilient executor,
and commits their bitwise-deterministic payloads in one transaction.
Killing a worker — even with SIGKILL — loses nothing: its leases expire
and other workers pick the rows back up.  SIGTERM is a graceful stop:
the tasks already finished are committed, the rest of the batch is
released at once, and the worker exits with status 143.  See
docs/SERVICE.md.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.runtime import ResultCache
from repro.service import run_worker


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", required=True, metavar="PATH",
                        help="campaign database file")
    parser.add_argument("--worker-id", default=None,
                        help="stable worker name (default: host:pid)")
    parser.add_argument("--campaign", default=None,
                        help="only lease tasks of this campaign")
    parser.add_argument("--lease-seconds", type=float, default=60.0,
                        help="lease duration; a dead worker's tasks return "
                        "to the queue after this long (default 60)")
    parser.add_argument("--poll-seconds", type=float, default=0.5,
                        help="idle polling interval (default 0.5)")
    parser.add_argument("--max-tasks", type=int, default=None,
                        help="stop after executing this many tasks")
    parser.add_argument("--drain", action="store_true",
                        help="exit once every matching task row is settled "
                        "(instead of polling for new work forever)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="DB-level attempts before a task is parked as "
                        "failed (default 3)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-task soft timeout in seconds")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="shared ResultCache directory (content-addressed "
                        "task payload reuse across workers and campaigns)")
    return parser


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised in the main thread so it takes run_worker's
    KeyboardInterrupt path: finished tasks are committed, unfinished
    leases released and the worker's counters recorded."""


def _terminate(signum, frame) -> None:
    # A second SIGTERM must not cut the cleanup short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise Terminated


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cache = ResultCache(args.cache) if args.cache else None
    signal.signal(signal.SIGTERM, _terminate)
    try:
        report = run_worker(
            args.db,
            worker_id=args.worker_id,
            lease_seconds=args.lease_seconds,
            poll_seconds=args.poll_seconds,
            campaign=args.campaign,
            max_tasks=args.max_tasks,
            drain=args.drain,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
            cache=cache,
        )
    except Terminated:
        print("worker terminated: finished tasks committed, leases released",
              file=sys.stderr)
        return 128 + signal.SIGTERM
    print(
        f"worker {report.worker_id}: {report.tasks_done} done, "
        f"{report.tasks_failed} failed, {report.lost_races} lost race(s), "
        f"{report.cache_hits} cache hit(s)"
    )
    for line in report.failures:
        print(f"  failed {line}", file=sys.stderr)
    return 1 if report.tasks_failed else 0


if __name__ == "__main__":
    sys.exit(main())
