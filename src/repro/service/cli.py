"""The campaign-service command line: submit / status / results / retry.

``scripts/service.py`` is the thin entry point; the logic lives here so
tests can drive it in-process.  Subcommands:

* ``submit`` — validate a JSON config through its adapter, expand it to
  task rows, and create (or idempotently attach to) a campaign;
* ``status`` — per-campaign row counts, worker heartbeats (including
  each worker's ResultCache counters — ``put_errors`` surfaces failed
  cache writes fleet-wide), and optionally the on-disk stats of a
  shared cache directory;
* ``results`` — merge committed payloads into the in-process result
  object and print the adapter's summary (optionally the raw payloads
  as JSON);
* ``retry-failed`` — requeue every parked ``failed`` row of a campaign.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.fault.campaign import add_config_flags, config_flag, config_flag_values
from repro.runtime import ResultCache
from repro.service.adapters import ADAPTERS, get_adapter
from repro.service.db import CampaignDB


def _load_config(arg: str) -> dict:
    """``--config`` accepts a JSON file path, ``-`` (stdin), or an
    inline JSON object string."""
    if arg == "-":
        return json.load(sys.stdin)
    if arg.lstrip().startswith("{"):
        return json.loads(arg)
    return json.loads(Path(arg).read_text())


def _overlay_fault_flags(args: argparse.Namespace, config: dict) -> dict:
    """Fold topology/workload overlay flags into a fault campaign config.

    The flags are sugar over editing the JSON; they only make sense for
    campaign kinds whose config is a ``FaultCampaignConfig``, so any
    other kind rejects them loudly rather than silently dropping them.
    """
    overlay = config_flag_values(args)
    if not overlay:
        return config
    if args.kind != "fault":
        names = ", ".join(config_flag(name) for name in overlay)
        raise ReproError(
            f"{names}: topology/workload flags apply only to --kind fault "
            f"campaigns, not {args.kind!r}"
        )
    return {**config, **overlay}


def cmd_submit(args: argparse.Namespace) -> int:
    adapter = get_adapter(args.kind)
    config = adapter.canonical_config(
        _overlay_fault_flags(args, _load_config(args.config))
    )
    tasks = [(t.key, t.index, t.spec) for t in adapter.expand(config)]
    with CampaignDB(args.db) as db:
        receipt = db.submit(args.name, args.kind, config, tasks)
    verb = "created" if receipt.created else "attached to"
    print(
        f"{verb} campaign {receipt.name!r} [{receipt.kind}] "
        f"config {receipt.config_key[:16]}: "
        f"{receipt.n_tasks} tasks, {receipt.n_done} already done"
    )
    return 0


def _age(now: float, then: float) -> str:
    return f"{max(0.0, now - then):.0f}s ago"


def cmd_status(args: argparse.Namespace) -> int:
    with CampaignDB(args.db) as db:
        campaigns = db.status(args.name)
        workers = db.workers()
    print(f"{'campaign':<24} {'kind':<12} {'config':<10} "
          f"{'tasks':>5} {'open':>5} {'lease':>5} {'done':>5} {'fail':>5}")
    for c in campaigns:
        print(f"{c.name:<24} {c.kind:<12} {c.config_key[:8]:<10} "
              f"{c.n_tasks:>5} {c.n_open:>5} {c.n_leased:>5} "
              f"{c.n_done:>5} {c.n_failed:>5}"
              + ("  COMPLETE" if c.complete else ""))
    if workers:
        now = time.time()
        print()
        print(f"{'worker':<28} {'last seen':<12} {'done':>5} {'fail':>5} "
              f"{'c-hit':>6} {'c-miss':>6} {'c-puterr':>8}")
        for w in workers:
            print(f"{w.worker_id:<28} {_age(now, w.last_seen):<12} "
                  f"{w.tasks_done:>5} {w.tasks_failed:>5} "
                  f"{w.cache_hits:>6} {w.cache_misses:>6} "
                  f"{w.cache_put_errors:>8}")
        put_errors = sum(w.cache_put_errors for w in workers)
        if put_errors:
            print(f"warning: {put_errors} failed cache write(s) across the "
                  "fleet (results were still committed; the cache entries "
                  "were lost)")
    if args.cache:
        print()
        print(ResultCache(args.cache).stats().describe())
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    with CampaignDB(args.db) as db:
        _id, kind, config = db.campaign(args.name)
        status = db.status(args.name)[0]
        payloads = db.payloads(args.name)
        errors = db.task_errors(args.name)
    if args.json:
        Path(args.json).write_text(
            json.dumps(payloads, sort_keys=True, indent=1)
        )
        print(f"wrote {len(payloads)} payload(s) to {args.json}")
    if not status.complete:
        print(
            f"campaign {args.name!r} is incomplete: {status.n_done}/"
            f"{status.n_tasks} done ({status.n_open} open, "
            f"{status.n_leased} leased, {status.n_failed} failed)",
            file=sys.stderr,
        )
        for key, error in errors:
            print(f"  failed {key}: {error}", file=sys.stderr)
        return 1
    adapter = get_adapter(kind)
    result = adapter.merge(config, payloads)
    print(f"campaign {args.name!r} [{kind}]: {adapter.describe_result(result)}")
    return 0


def cmd_retry_failed(args: argparse.Namespace) -> int:
    with CampaignDB(args.db) as db:
        n = db.retry_failed(args.name)
    print(f"requeued {n} failed task(s) of campaign {args.name!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="service.py",
        description="Submit campaigns to, and inspect, the shared "
        "campaign database (docs/SERVICE.md).",
    )
    parser.add_argument("--db", required=True, metavar="PATH",
                        help="campaign database file (created on first use)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="create or attach to a campaign")
    p.add_argument("--name", required=True, help="campaign name (unique)")
    p.add_argument("--kind", required=True, choices=sorted(ADAPTERS),
                   help="campaign kind")
    p.add_argument("--config", required=True, metavar="JSON",
                   help="config: a JSON file path, '-' for stdin, or an "
                   "inline JSON object")
    topo = p.add_argument_group(
        "topology overlays (fault campaigns only)",
        "override the config's topology fields without editing the JSON",
    )
    add_config_flags(
        topo, ("topology", "concentration", "chiplets_x", "chiplets_y",
               "noi_scale"),
    )
    work = p.add_argument_group(
        "workload overlays (fault campaigns only)",
        "override the config's workload fields without editing the JSON",
    )
    add_config_flags(
        work, ("workload", "trace_path", "burst_on", "burst_off",
               "collective_fraction", "collective", "payload_mode",
               "coupling"),
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="row counts and worker heartbeats")
    p.add_argument("--name", default=None, help="restrict to one campaign")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="also show the on-disk stats of this shared "
                   "ResultCache directory")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("results", help="merge and summarize a campaign")
    p.add_argument("--name", required=True)
    p.add_argument("--json", default=None, metavar="OUT",
                   help="also dump the raw task payloads to this file")
    p.set_defaults(func=cmd_results)

    p = sub.add_parser("retry-failed", help="requeue parked failed tasks")
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_retry_failed)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


__all__ = ["build_parser", "main"]
