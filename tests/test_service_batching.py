"""The queue's cost per task: index-ordered claims, batched leases, one
commit per batch.

* **claim** — the open-row claim reads the ``(status, campaign_id,
  task_index)`` index in order (no sort of every open row per lease),
  and merging it with the expired leases claims rows in exactly the
  order of a single ``ORDER BY campaign_id, task_index`` query over both;
* **transactions** — writes made inside :meth:`CampaignDB.transaction`
  commit together or not at all;
* **batches** — a worker leases one row first, then as many as its
  measured task time fits into ``BATCH_BUDGET_S``; each row of a batch
  keeps its own lease-owner guard, an interrupt commits what finished
  and releases the rest, and slow tasks are still leased one at a time.
"""

from __future__ import annotations

import random
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.sweep import sweep_grid
from repro.service import CampaignDB, GRID_EVALUATORS, get_adapter, run_worker
from repro.service import worker as service_worker

GRID = {"parameters": {"x": [0.0, 1.0, 2.0], "y": [1.0, 4.0]}, "evaluator": "poly"}

#: The claim of the single-query lease: open rows and expired leases
#: sorted together.
REFERENCE_CLAIM = """
    SELECT t.campaign_id, t.task_key
    FROM tasks t JOIN campaigns c ON c.id = t.campaign_id
    WHERE (t.status='open' OR (t.status='leased' AND t.lease_expires < ?))
    {campaign}
    ORDER BY t.campaign_id, t.task_index
    LIMIT ?
"""


def submit(db_path, name, kind, raw_config):
    adapter = get_adapter(kind)
    config = adapter.canonical_config(raw_config)
    tasks = [(t.key, t.index, t.spec) for t in adapter.expand(config)]
    with CampaignDB(db_path) as db:
        db.submit(name, kind, config, tasks)
    return adapter, config


def mixed_fixture(path) -> None:
    """Two campaigns whose claimable rows interleave open rows, expired
    leases and a live lease, inserted out of index order."""
    with CampaignDB(path) as db:
        for name in ("a", "b"):
            tasks = [(f"{name}/{i}", i, {"i": i}) for i in range(10)]
            random.Random(name).shuffle(tasks)  # rowid order != index order
            db.submit(name, "demo", {"name": name}, tasks, now=0.0)
        # a: rows 0-3 leased until 105; 1 done, 2 requeued -> rows 0 and
        # 3 expired around the open row 2.
        stale = db.lease("w0", n=4, lease_seconds=5.0, campaign="a", now=100.0)
        db.complete("w0", stale[1].campaign_id, stale[1].task_key, {}, now=101.0)
        db.fail("w0", stale[2].campaign_id, stale[2].task_key, "boom", now=101.0)
        # b: rows 0-2 leased until 105, row 1 kept alive until 1100.
        stale = db.lease("w1", n=3, lease_seconds=5.0, campaign="b", now=100.0)
        db.heartbeat("w1", [(stale[1].campaign_id, stale[1].task_key)],
                     lease_seconds=1000.0, now=100.0)


@pytest.mark.parametrize("campaign", [None, "a", "b"])
@pytest.mark.parametrize("n", [1, 3, 7, 30])
def test_lease_claims_in_reference_order(tmp_path, campaign, n):
    path = tmp_path / "mixed.sqlite"
    mixed_fixture(path)
    now = 200.0
    conn = sqlite3.connect(path)
    try:
        if campaign is None:
            sql, args = REFERENCE_CLAIM.format(campaign=""), (now, n)
        else:
            sql = REFERENCE_CLAIM.format(campaign="AND c.name=?")
            args = (now, campaign, n)
        expected = [tuple(row) for row in conn.execute(sql, args)]
    finally:
        conn.close()
    assert expected  # the fixture leaves claimable rows everywhere
    with CampaignDB(path) as db:
        leased = db.lease("w2", n=n, campaign=campaign, now=now)
    assert [(t.campaign_id, t.task_key) for t in leased] == expected


def test_open_row_claim_reads_the_index_in_order(tmp_path):
    """EXPLAIN QUERY PLAN of the open-row claim, with and without a
    campaign filter: no temporary B-tree, i.e. no sort of every open row."""
    with CampaignDB(tmp_path / "svc.sqlite") as db:
        for name in ("a", "b"):
            db.submit(name, "demo", {"name": name},
                      [(f"{name}/{i}", i, {}) for i in range(50)])
        statements: list[str] = []
        db._conn.set_trace_callback(statements.append)
        try:
            db.lease("w0", n=3)
            db.lease("w0", n=3, campaign="b")
        finally:
            db._conn.set_trace_callback(None)
        claims = [
            sql for sql in statements
            if sql.lstrip().upper().startswith("SELECT")
            and "status='open'" in sql
        ]
        assert len(claims) == 2
        for sql in claims:
            plan = " | ".join(
                row[3] for row in db._conn.execute("EXPLAIN QUERY PLAN " + sql)
            )
            assert "TEMP B-TREE" not in plan, plan


def test_existing_file_gains_the_claim_order_index(tmp_path):
    path = tmp_path / "svc.sqlite"
    with CampaignDB(path):
        pass
    conn = sqlite3.connect(path)
    conn.execute("DROP INDEX idx_tasks_claim_order")
    conn.commit()
    conn.close()
    with CampaignDB(path):
        pass
    conn = sqlite3.connect(path)
    try:
        indexes = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='index'"
        )}
    finally:
        conn.close()
    assert "idx_tasks_claim_order" in indexes


# --- re-entrant transactions ----------------------------------------------------------


def test_nested_writes_commit_together_or_not_at_all(tmp_path):
    path = tmp_path / "svc.sqlite"
    with CampaignDB(path) as db, CampaignDB(path) as other:
        db.submit("c0", "demo", {}, [(f"t/{i}", i, {}) for i in range(4)])
        first, second = db.lease("w0", n=2, now=100.0)
        with pytest.raises(RuntimeError):
            with db.transaction():
                assert db.complete("w0", first.campaign_id, first.task_key, {})
                db.record_worker("w0", tasks_done=1)
                raise RuntimeError("abort the batch")
        assert db.status("c0")[0].n_done == 0
        assert db.workers() == []

        with db.transaction():
            for task in (first, second):
                assert db.complete("w0", task.campaign_id, task.task_key, {})
            db.record_worker("w0", tasks_done=2)
            # Nothing is visible to another connection before the commit.
            assert other.status("c0")[0].n_done == 0
        assert other.status("c0")[0].n_done == 2
        assert [w.tasks_done for w in other.workers()] == [2]


# --- batched leases -------------------------------------------------------------------


def test_batch_size_follows_the_budget():
    budget, cap = service_worker.BATCH_BUDGET_S, service_worker.MAX_BATCH
    assert service_worker.batch_size(budget * 2) == 1
    assert service_worker.batch_size(budget / 3) == min(3, cap)
    assert service_worker.batch_size(budget / (cap * 10)) == cap
    assert service_worker.batch_size(0.0) == cap


def _record_leases(monkeypatch) -> list[tuple[int, int]]:
    """(requested, leased) of every ``CampaignDB.lease`` call."""
    calls: list[tuple[int, int]] = []
    real = CampaignDB.lease

    def recording(self, worker_id, n=1, **kwargs):
        leased = real(self, worker_id, n=n, **kwargs)
        calls.append((n, len(leased)))
        return leased

    monkeypatch.setattr(CampaignDB, "lease", recording)
    return calls


def test_fast_tasks_are_leased_and_committed_in_batches(tmp_path, monkeypatch):
    db_path = tmp_path / "svc.sqlite"
    adapter, config = submit(db_path, "g", "sweep_grid", GRID)
    monkeypatch.setattr(service_worker, "BATCH_BUDGET_S", 3600.0)
    leases = _record_leases(monkeypatch)
    records = []
    real_record = CampaignDB.record_worker

    def counting(self, worker_id, **kwargs):
        records.append(kwargs)
        return real_record(self, worker_id, **kwargs)

    monkeypatch.setattr(CampaignDB, "record_worker", counting)
    report = run_worker(db_path, worker_id="w0", drain=True, lease_seconds=30.0)
    assert report.tasks_done == 6
    # One row first, then the rest in one batch; the last lease is empty.
    assert [got for _n, got in leases] == [1, 5, 0]
    # Announce, one summed update per batch, cache counters at exit.
    assert [r.get("tasks_done", 0) for r in records] == [0, 1, 5, 0]
    with CampaignDB(db_path) as db:
        merged = adapter.merge(config, db.payloads("g"))
        assert [w.tasks_done for w in db.workers()] == [6]
    assert merged == sweep_grid(GRID["parameters"], GRID_EVALUATORS["poly"])


def test_row_lost_to_a_peer_leaves_the_rest_of_the_batch_committed(
    tmp_path, monkeypatch
):
    """A peer re-leases (and completes) one row of the worker's batch
    after its lease expired: that row is one lost race, the others
    still commit, and the workers row counts only the committed ones."""
    db_path = tmp_path / "svc.sqlite"
    adapter, config = submit(db_path, "g", "sweep_grid", GRID)
    monkeypatch.setattr(service_worker, "BATCH_BUDGET_S", 3600.0)
    real = service_worker.execute_task
    calls = []
    stolen = []

    def peer_steals(item):
        calls.append(item)
        if len(calls) == 3:  # second task of the batch of rows 1-5
            with CampaignDB(db_path) as peer:
                # A day on, every lease of the batch has expired.
                [row] = peer.lease("peer", now=time.time() + 86400.0)
                payload = real((row.kind, row.config, row.spec))
                assert peer.complete("peer", row.campaign_id, row.task_key, payload)
                stolen.append(row.task_index)
        return real(item)

    monkeypatch.setattr(service_worker, "execute_task", peer_steals)
    report = run_worker(db_path, worker_id="w0", drain=True, lease_seconds=30.0)
    assert stolen == [1]  # the batch's first row, finished but uncommitted
    assert (report.tasks_done, report.lost_races, report.tasks_failed) == (5, 1, 0)
    with CampaignDB(db_path) as db:
        assert db.status("g")[0].complete
        assert {w.worker_id: w.tasks_done for w in db.workers()} == {"w0": 5}
        merged = adapter.merge(config, db.payloads("g"))
    assert merged == sweep_grid(GRID["parameters"], GRID_EVALUATORS["poly"])


def test_interrupt_commits_finished_tasks_and_releases_the_rest(
    tmp_path, monkeypatch
):
    """KeyboardInterrupt from the 3rd of 5 batched tasks: the two that
    finished are committed with the first batch's row, the rest are open."""
    db_path = tmp_path / "svc.sqlite"
    submit(db_path, "g", "sweep_grid", GRID)
    monkeypatch.setattr(service_worker, "BATCH_BUDGET_S", 3600.0)
    leases = _record_leases(monkeypatch)
    real = service_worker.execute_task
    calls = []

    def interrupted(item):
        calls.append(item)
        if len(calls) == 4:  # 1 (first batch) + the 3rd of the batch of 5
            raise KeyboardInterrupt
        return real(item)

    monkeypatch.setattr(service_worker, "execute_task", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_worker(db_path, worker_id="w0", drain=True, lease_seconds=3600.0)
    assert [got for _n, got in leases] == [1, 5]
    with CampaignDB(db_path) as db:
        status = db.status("g")[0]
        assert (status.n_done, status.n_open, status.n_leased) == (3, 3, 0)
        assert db.leased_keys("w0") == []
        assert list(db.payloads("g")) == ["0", "1", "2"]
        assert [w.tasks_done for w in db.workers()] == [3]


def test_slow_tasks_are_leased_one_at_a_time(tmp_path, monkeypatch):
    """Tasks slower than the budget: every lease asks for one row, so two
    workers draining together both get work."""
    db_path = tmp_path / "svc.sqlite"
    grid = {"parameters": {"x": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 4.0]},
            "evaluator": "poly"}
    submit(db_path, "g", "sweep_grid", grid)
    leases = _record_leases(monkeypatch)
    real = service_worker.execute_task

    def slow(item):
        time.sleep(service_worker.BATCH_BUDGET_S * 1.5)
        return real(item)

    monkeypatch.setattr(service_worker, "execute_task", slow)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(run_worker, db_path, worker_id=worker_id, drain=True,
                        lease_seconds=30.0, poll_seconds=0.01)
            for worker_id in ("w0", "w1")
        ]
        reports = [future.result(timeout=120) for future in futures]
    assert {n for n, _got in leases} == {1}
    assert sum(got for _n, got in leases) == 8
    assert all(report.tasks_done > 0 for report in reports)
    assert sum(report.tasks_done for report in reports) == 8
    with CampaignDB(db_path) as db:
        assert db.status("g")[0].complete
