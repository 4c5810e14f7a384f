"""Worker integration: drain loops, failures, the shared cache, SIGKILL.

The capstone test here is the acceptance criterion of docs/SERVICE.md:
``scripts/smoke_service.py`` runs two real worker processes against one
database, SIGKILLs one *while it provably holds a lease*, and asserts
the survivor-merged campaign is bitwise identical to the uninterrupted
single-process baseline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.sweep import sweep_grid
from repro.runtime import ResultCache
from repro.service import CampaignDB, GRID_EVALUATORS, get_adapter, run_worker
from repro.service import worker as service_worker

REPO = Path(__file__).resolve().parent.parent

GRID = {"parameters": {"x": [0.0, 1.0, 2.0], "y": [1.0, 4.0]}, "evaluator": "poly"}


def submit(db_path, name, kind, raw_config):
    adapter = get_adapter(kind)
    config = adapter.canonical_config(raw_config)
    tasks = [(t.key, t.index, t.spec) for t in adapter.expand(config)]
    with CampaignDB(db_path) as db:
        db.submit(name, kind, config, tasks)
    return adapter, config


def test_worker_drains_campaign_to_parity(tmp_path):
    db_path = tmp_path / "svc.sqlite"
    adapter, config = submit(db_path, "g", "sweep_grid", GRID)
    report = run_worker(db_path, worker_id="w0", drain=True, lease_seconds=30.0)
    assert (report.tasks_done, report.tasks_failed) == (6, 0)
    with CampaignDB(db_path) as db:
        assert db.status("g")[0].complete
        merged = adapter.merge(config, db.payloads("g"))
    reference = sweep_grid(GRID["parameters"], GRID_EVALUATORS["poly"])
    assert json.dumps(merged.metrics, sort_keys=True) == json.dumps(
        reference.metrics, sort_keys=True
    )


def test_workers_split_work_without_overlap(tmp_path):
    db_path = tmp_path / "svc.sqlite"
    submit(db_path, "g", "sweep_grid", GRID)
    first = run_worker(db_path, worker_id="w0", max_tasks=2,
                       drain=True, lease_seconds=30.0)
    second = run_worker(db_path, worker_id="w1", drain=True, lease_seconds=30.0)
    assert first.tasks_done == 2
    assert second.tasks_done == 4
    with CampaignDB(db_path) as db:
        assert db.status("g")[0].complete
        by_worker = {w.worker_id: w.tasks_done for w in db.workers()}
    assert by_worker == {"w0": 2, "w1": 4}


def test_worker_parks_deterministic_failures(tmp_path):
    # dimension-2 zdt1 over 1-D candidates: every attempt raises KeyError.
    db_path = tmp_path / "svc.sqlite"
    submit(db_path, "bad", "dse_batch", {
        "evaluator": "zdt1",
        "evaluator_kwargs": {"dimension": 2},
        "candidates": [{"x0": 0.5}],
    })
    report = run_worker(db_path, worker_id="w0", drain=True,
                        lease_seconds=30.0, max_attempts=2)
    assert report.tasks_done == 0
    assert report.tasks_failed == 2  # requeued once, then parked
    assert all("KeyError" in line for line in report.failures)
    with CampaignDB(db_path) as db:
        status = db.status("bad")[0]
        assert (status.n_failed, status.n_open) == (1, 0)
        [(key, error)] = db.task_errors("bad")
        assert "KeyError" in error
        # retry-failed hands the row a fresh budget.
        assert db.retry_failed("bad") == 1
        assert db.status("bad")[0].n_open == 1


def test_failing_task_runs_exactly_max_attempts_times(tmp_path, monkeypatch):
    """The queue's attempt count is the only retry budget: a default
    drain executes an always-failing task once per lease."""
    db_path = tmp_path / "svc.sqlite"
    submit(db_path, "bad", "dse_batch", {
        "evaluator": "zdt1",
        "evaluator_kwargs": {"dimension": 2},
        "candidates": [{"x0": 0.5}],
    })
    executions = []
    real = service_worker.execute_task

    def counted(item):
        executions.append(item)
        return real(item)

    monkeypatch.setattr(service_worker, "execute_task", counted)
    report = run_worker(db_path, worker_id="w0", drain=True, lease_seconds=30.0)
    assert report.tasks_failed == 3
    assert len(executions) == 3  # max_attempts, its default


def test_shared_cache_short_circuits_identical_tasks(tmp_path):
    """Task payload identity is content-addressed: a second campaign
    with the same config (fresh DB, fresh worker) is served entirely
    from a shared ResultCache — and the hit/miss counters land in the
    workers table for ``service.py status`` to surface."""
    cache_dir = tmp_path / "cache"
    first_db = tmp_path / "a.sqlite"
    submit(first_db, "g", "sweep_grid", GRID)
    run_worker(first_db, worker_id="w0", drain=True, lease_seconds=30.0,
               cache=ResultCache(cache_dir))
    assert ResultCache(cache_dir).stats().entries == 6

    second_db = tmp_path / "b.sqlite"
    adapter, config = submit(second_db, "g", "sweep_grid", GRID)
    cache = ResultCache(cache_dir)
    report = run_worker(second_db, worker_id="w1", drain=True,
                        lease_seconds=30.0, cache=cache)
    assert report.tasks_done == 6
    assert report.cache_hits == 6
    with CampaignDB(second_db) as db:
        assert db.status("g")[0].complete
        [worker] = db.workers()
        assert (worker.cache_hits, worker.cache_put_errors) == (6, 0)
        # Cached payloads merge identically to computed ones.
        merged = adapter.merge(config, db.payloads("g"))
    reference = sweep_grid(GRID["parameters"], GRID_EVALUATORS["poly"])
    assert json.dumps(merged.metrics, sort_keys=True) == json.dumps(
        reference.metrics, sort_keys=True
    )


def test_graceful_exit_releases_leases(tmp_path):
    """max_tasks stops a worker mid-queue; its shutdown releases any
    lease it still holds so peers need not wait out the expiry."""
    db_path = tmp_path / "svc.sqlite"
    submit(db_path, "g", "sweep_grid", GRID)
    run_worker(db_path, worker_id="w0", max_tasks=1, drain=True,
               lease_seconds=3600.0)
    with CampaignDB(db_path) as db:
        assert db.leased_keys("w0") == []
        assert db.status("g")[0].n_open == 5


@pytest.mark.integration
def test_sigkilled_worker_bitwise_parity():
    """The acceptance criterion, end to end with real processes: two
    workers, one SIGKILLed mid-lease, merged result bitwise-identical
    to the single-process baseline (scripts/smoke_service.py)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "smoke_service.py"),
         "--lease-seconds", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bitwise-identical to the single-process baseline" in proc.stdout
