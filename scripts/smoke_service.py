#!/usr/bin/env python
"""Service-path smoke: a fault campaign submitted, drained and merged.

Run:  PYTHONPATH=src python scripts/smoke_service.py
          [--case kill-worker|topology|workload] [--lease-seconds S]
          [--topology KIND]

The end-to-end acceptance check for the campaign service
(docs/SERVICE.md).  Every case submits a small fault campaign through
the service CLI to a fresh database, drains it with worker processes,
and requires the merged result to be **bitwise identical** to an
uninterrupted single-process ``run_fault_campaign`` baseline built from
the stored config.  Exits nonzero on any mismatch.

* ``kill-worker`` (default): two workers drain a 16-task campaign and
  one is SIGKILLed while it provably holds a batch of two or more rows
  (the other starts once it does) — the hardest interrupt there is, no
  cleanup code runs.  The survivor waits out the dead worker's lease
  expiry, re-leases its rows, and finishes.
* ``topology``: a tiny non-mesh campaign (``--topology``, default
  torus) submitted with the ``--topology`` overlay flag; the stored
  config must keep the overlay (docs/TOPOLOGY.md).
* ``workload``: a payload-carrying bursty run is recorded into a trace
  file and replayed through the ``--workload``/``--trace-path`` overlay
  flags; the stored config must carry the trace's content hash
  (``trace_hash``), and the replayed payload bits price the links
  data-dependently on both sides (docs/WORKLOADS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.fault.campaign import run_fault_campaign
from repro.noc import MeshTopology, record_trace
from repro.service import CampaignDB, get_adapter
from repro.service.cli import main as service_main
from repro.workload import build_traffic

REPO = Path(__file__).resolve().parent.parent
NAME = "smoke"

#: Small but not instant: 16 task rows so the kill lands with work left.
KILL_CAMPAIGN = {
    "bers": [1e-4, 1e-3, 1e-2, 5e-2],
    "protocols": ["none", "crc", "e2e", "reroute"],
    "k": 2,
    "warmup": 20,
    "measure": 80,
    "seed": 7,
}

#: Tiny but multi-point: 4 task rows on a 3x3 topology.
OVERLAY_CAMPAIGN = {
    "bers": [1e-3, 1e-2],
    "protocols": ["none", "crc"],
    "k": 3,
    "warmup": 20,
    "measure": 80,
    "seed": 7,
}


class SmokeFailure(Exception):
    """One failed smoke assertion (printed as ``FAIL: ...``)."""


def spawn_worker(
    db: Path, worker_id: str, lease_seconds: float | None = None
) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    lease = [] if lease_seconds is None else ["--lease-seconds", str(lease_seconds)]
    return subprocess.Popen(
        [
            sys.executable,
            str(REPO / "scripts" / "run_worker.py"),
            "--db", str(db),
            "--worker-id", worker_id,
            "--drain",
            "--poll-seconds", "0.1",
            *lease,
        ],
        env=env,
    )


def wait_drained(worker: subprocess.Popen, name: str, deadline: float) -> None:
    while worker.poll() is None:
        if time.monotonic() > deadline:
            worker.kill()
            raise SmokeFailure(f"{name} did not drain in time")
        time.sleep(0.2)
    if worker.returncode != 0:
        raise SmokeFailure(f"{name} exited {worker.returncode}")


def leased_by(db_path: Path, worker_id: str) -> int:
    with CampaignDB(db_path) as db:
        return len(db.leased_keys(worker_id))


def drain_killing_victim(db_path: Path, lease_seconds: float, deadline: float) -> None:
    """Two workers; SIGKILL the victim once it provably holds a batch of
    at least two rows, so the expiry-recovery path is genuinely
    exercised for a multi-row lease (the first lease is always one row).
    The survivor starts only then: started together, it can drain the
    whole campaign before the victim's first lease."""
    victim = spawn_worker(db_path, "victim", lease_seconds)
    survivor = None
    try:
        while leased_by(db_path, "victim") < 2:
            if victim.poll() is not None:
                raise SmokeFailure("victim exited before holding a 2-row batch")
            if time.monotonic() > deadline:
                raise SmokeFailure("victim never leased a 2-row batch")
            time.sleep(0.005)
        survivor = spawn_worker(db_path, "survivor", lease_seconds)
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        print(f"SIGKILLed victim holding {leased_by(db_path, 'victim')} lease(s)")
        wait_drained(survivor, "survivor", deadline)
    finally:
        for proc in (victim, survivor):
            if proc is not None and proc.poll() is None:
                proc.kill()


def drain_one(db_path: Path, deadline: float) -> None:
    worker = spawn_worker(db_path, "worker")
    try:
        wait_drained(worker, "worker", deadline)
    finally:
        if worker.poll() is None:
            worker.kill()


def run_case(args: argparse.Namespace, tmp: Path) -> str:
    """Submit, drain, check and compare; returns the OK detail line."""
    db_path = tmp / "campaigns.sqlite"
    campaign, overlay, expected = OVERLAY_CAMPAIGN, [], {}
    if args.case == "kill-worker":
        campaign = KILL_CAMPAIGN
    elif args.case == "topology":
        overlay = ["--topology", args.topology]
        expected = {"topology": args.topology}
    else:
        # Record a payload-carrying bursty run into a trace file: the
        # campaign replays real per-flit bits, so link pricing runs the
        # data-dependent model end to end.
        source = build_traffic(
            MeshTopology(campaign["k"]), "bursty",
            injection_rate=0.08, seed=campaign["seed"], payload_mode="random",
        )
        trace = record_trace(source, 60)
        trace_path = tmp / "workload.trace.json"
        trace.save(trace_path)
        overlay = ["--workload", "trace", "--trace-path", str(trace_path)]
        expected = {"workload": "trace", "trace_hash": trace.content_hash()}

    # Submit through the real CLI so the overlay flags are on the tested
    # path, not just FaultCampaignConfig(...).
    rc = service_main([
        "--db", str(db_path), "submit", "--name", NAME, "--kind", "fault",
        "--config", json.dumps(campaign), *overlay,
    ])
    if rc != 0:
        raise SmokeFailure(f"submit exited {rc}")

    deadline = time.monotonic() + args.timeout
    if args.case == "kill-worker":
        drain_killing_victim(db_path, args.lease_seconds, deadline)
    else:
        drain_one(db_path, deadline)

    adapter = get_adapter("fault")
    with CampaignDB(db_path) as db:
        _id, _kind, config = db.campaign(NAME)
        status = db.status(NAME)[0]
        payloads = db.payloads(NAME)
    if not status.complete:
        raise SmokeFailure(f"campaign incomplete: {status}")
    for field, value in expected.items():
        if config.get(field) != value:
            raise SmokeFailure(
                f"stored config lost the {field} overlay: {config.get(field)!r}"
                f" != {value!r}"
            )
    merged = adapter.merge(config, payloads)

    baseline_cfg = adapter._config(config)
    print(f"campaign: {baseline_cfg.describe()}, "
          f"engine {baseline_cfg.effective_engine(warn=False)}")
    baseline = run_fault_campaign(baseline_cfg)

    got = json.dumps([asdict(p) for p in merged.points], sort_keys=True)
    want = json.dumps([asdict(p) for p in baseline.points], sort_keys=True)
    if got != want:
        raise SmokeFailure(
            "merged service result differs from the single-process baseline"
        )
    return f"{status.n_done}/{status.n_tasks} {args.case} tasks"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=("kill-worker", "topology", "workload"),
                        default="kill-worker",
                        help="which service path to smoke (default kill-worker)")
    parser.add_argument("--lease-seconds", type=float, default=3.0,
                        help="kill-worker: victim lease duration — the "
                        "recovery latency this smoke pays once (default 3)")
    parser.add_argument("--topology", default="torus",
                        help="topology: non-mesh topology to smoke "
                        "(default: torus)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="overall smoke budget in seconds")
    args = parser.parse_args()

    try:
        with tempfile.TemporaryDirectory(prefix="service_smoke_") as tmp:
            detail = run_case(args, Path(tmp))
    except SmokeFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {detail}; merged result bitwise-identical to the "
          "single-process baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
