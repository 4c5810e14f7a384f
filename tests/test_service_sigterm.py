"""SIGTERM stops a worker process gracefully.

``scripts/run_worker.py`` routes SIGTERM into run_worker's
KeyboardInterrupt path: the tasks it finished are committed, the rest of
its batch is released at once (no lease expiry to wait out), its
counters are recorded, and it exits with status 143.  A second worker
then drains the campaign to the bitwise result of the single-process
driver.
"""

from __future__ import annotations

import importlib.util
import json
import signal
import time
from dataclasses import asdict
from pathlib import Path

from repro.fault.campaign import run_fault_campaign
from repro.service import CampaignDB, get_adapter, run_worker

REPO = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


smoke = _load_script("smoke_service")


def test_sigterm_commits_finished_tasks_and_releases_leases(tmp_path):
    db_path = tmp_path / "svc.sqlite"
    adapter = get_adapter("fault")
    config = adapter.canonical_config(dict(smoke.KILL_CAMPAIGN))
    tasks = [(t.key, t.index, t.spec) for t in adapter.expand(config)]
    assert len(tasks) == 16
    with CampaignDB(db_path) as db:
        db.submit("c", "fault", config, tasks)

    # An hour-long lease: only an explicit release frees the rows soon.
    victim = smoke.spawn_worker(db_path, "victim", lease_seconds=3600.0)
    try:
        deadline = time.monotonic() + 120.0
        while True:
            with CampaignDB(db_path) as db:
                done = db.status("c")[0].n_done
                held = db.leased_keys("victim")
            if done and held:
                break
            assert victim.poll() is None, "victim exited before the signal"
            assert time.monotonic() < deadline, "victim never leased a task"
            time.sleep(0.01)
        victim.send_signal(signal.SIGTERM)
        assert victim.wait(timeout=60) == 143
    finally:
        if victim.poll() is None:
            victim.kill()

    with CampaignDB(db_path) as db:
        assert db.leased_keys("victim") == []
        status = db.status("c")[0]
        (record,) = [w for w in db.workers() if w.worker_id == "victim"]
    assert status.n_leased == 0 and status.n_failed == 0
    # Every task the victim finished is committed, and so are its counters.
    assert status.n_done == record.tasks_done >= 1

    report = run_worker(db_path, worker_id="second", drain=True,
                        lease_seconds=30.0)
    assert report.tasks_done == 16 - status.n_done
    with CampaignDB(db_path) as db:
        merged = adapter.merge(config, db.payloads("c"))
    baseline = run_fault_campaign(adapter._config(config))
    assert json.dumps([asdict(p) for p in merged.points], sort_keys=True) == (
        json.dumps([asdict(p) for p in baseline.points], sort_keys=True)
    )
