"""The campaign database: SQLite-backed task queue with worker leasing.

One database file holds any number of **campaigns** (a Monte Carlo run,
a parameter-grid sweep, a DSE candidate batch, a fault campaign — see
:mod:`repro.service.adapters`), each decomposed into **task rows** at
submission time.  N worker processes — on this machine or any machine
sharing the file — pull open rows, execute them, and write results
back.  This is the multi-user, multi-machine generalization of the
single-process JSONL checkpoint store
(:class:`repro.runtime.checkpoint.CheckpointStore`): same content-
hash configuration identity, same exact-float JSON payloads, same
bitwise-deterministic replay semantics.

Identity
--------
A campaign is identified by a user-facing *name* and a content hash of
its canonical configuration (``config_key``, the same
``content_key(namespace, canonical-json)`` construction as
``CheckpointStore.config_key``).  Resubmitting a byte-identical
configuration under the same name attaches to the existing rows (a pure
no-op once all tasks are done); submitting a *changed* configuration
under an existing name raises :class:`repro.errors.CampaignMismatchError`
instead of silently mixing task rows — exactly the checkpoint refusal
semantics.

Leasing protocol
----------------
Workers never mark rows in-progress optimistically; they **lease** them:

* :meth:`CampaignDB.lease` atomically (``BEGIN IMMEDIATE``) claims up to
  ``n`` rows that are ``open`` *or* ``leased`` with an expired lease,
  in ``(campaign, task_index)`` order, setting
  ``lease_owner``/``lease_expires`` and bumping ``attempts``;
* workers extend their leases with :meth:`heartbeat` while computing —
  a SIGKILLed worker simply stops heartbeating and its rows return to
  the queue when the lease expires, with nothing to clean up;
* :meth:`complete` commits a result only while the caller still owns a
  live lease on the row (or the row expired un-released): the guarded
  ``UPDATE ... WHERE status='leased' AND lease_owner=?`` makes
  double completion impossible — when a slow worker's lease expired and
  the row was re-leased or completed by someone else, its late commit
  is rejected and reported as lost.  Several completions can share one
  commit (:meth:`CampaignDB.transaction`); each row keeps its own guard.

Because every task payload is a pure function of (campaign config, task
spec) with content-addressed RNG seeds, a lost race loses no
information: the committed payload is byte-identical to the rejected
one, which is what makes a campaign completed by 1 worker or 8 crashing
workers merge to identical results.

All timestamps are wall-clock (`time.time()`); they sequence leases and
diagnostics only and never influence computed results.
"""

from __future__ import annotations

import heapq
import json
import os
import sqlite3
import time
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path

from repro.errors import CampaignMismatchError, ServiceError
from repro.runtime.cache import content_key

#: Bumped when the schema changes incompatibly.
SCHEMA_VERSION = 1

#: Namespace of campaign configuration content hashes (the service-side
#: analogue of the ``campaign-checkpoint/v1`` namespace of
#: ``CheckpointStore.config_key``).
CONFIG_NAMESPACE = "campaign-service/v1"

#: Task row lifecycle.
TASK_STATUSES = ("open", "leased", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    name       TEXT UNIQUE NOT NULL,
    kind       TEXT NOT NULL,
    config_key TEXT NOT NULL,
    config     TEXT NOT NULL,
    created    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    campaign_id   INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    task_key      TEXT NOT NULL,
    task_index    INTEGER NOT NULL,
    spec          TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'open'
                  CHECK (status IN ('open', 'leased', 'done', 'failed')),
    attempts      INTEGER NOT NULL DEFAULT 0,
    lease_owner   TEXT,
    lease_expires REAL,
    result        TEXT,
    error         TEXT,
    completed_by  TEXT,
    completed_at  REAL,
    PRIMARY KEY (campaign_id, task_key)
);
CREATE INDEX IF NOT EXISTS idx_tasks_claimable
    ON tasks (status, lease_expires);
CREATE INDEX IF NOT EXISTS idx_tasks_claim_order
    ON tasks (status, campaign_id, task_index);
CREATE TABLE IF NOT EXISTS workers (
    worker_id        TEXT PRIMARY KEY,
    started          REAL NOT NULL,
    last_seen        REAL NOT NULL,
    tasks_done       INTEGER NOT NULL DEFAULT 0,
    tasks_failed     INTEGER NOT NULL DEFAULT 0,
    cache_hits       INTEGER NOT NULL DEFAULT 0,
    cache_misses     INTEGER NOT NULL DEFAULT 0,
    cache_put_errors INTEGER NOT NULL DEFAULT 0
);
"""


#: What a lease reads of each claimable task row.
_CLAIM_COLUMNS = "rowid AS rid, campaign_id, task_key, task_index, spec, attempts"

#: The order rows are claimed in (``ORDER BY campaign_id, task_index``).
_claim_order = itemgetter("campaign_id", "task_index")


def canonical_config_json(config: dict) -> str:
    """The canonical byte form of a configuration (sorted-key JSON)."""
    return json.dumps(config, sort_keys=True)


def campaign_config_key(kind: str, config: dict) -> str:
    """Content-hash identity of a campaign (kind + canonical config)."""
    return content_key(CONFIG_NAMESPACE, kind, canonical_config_json(config))


@dataclass(frozen=True)
class SubmitReceipt:
    """What :meth:`CampaignDB.submit` did."""

    campaign_id: int
    name: str
    kind: str
    config_key: str
    created: bool  # False: attached to an existing identical campaign
    n_tasks: int
    n_done: int


@dataclass(frozen=True)
class LeasedTask:
    """One claimed task row, ready to execute."""

    campaign_id: int
    campaign_name: str
    kind: str
    config: dict
    config_key: str
    task_key: str
    task_index: int
    spec: dict
    attempts: int
    lease_expires: float


@dataclass(frozen=True)
class CampaignStatus:
    """Per-campaign row counts for the status report."""

    campaign_id: int
    name: str
    kind: str
    config_key: str
    n_tasks: int
    n_open: int
    n_leased: int
    n_done: int
    n_failed: int

    @property
    def complete(self) -> bool:
        return self.n_done == self.n_tasks


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's heartbeat row (incl. its ResultCache counters)."""

    worker_id: str
    started: float
    last_seen: float
    tasks_done: int
    tasks_failed: int
    cache_hits: int
    cache_misses: int
    cache_put_errors: int


class CampaignDB:
    """One handle on the campaign database (not thread-safe: one handle
    per thread — SQLite's WAL mode handles cross-process concurrency).
    """

    def __init__(self, path: str | Path, timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # isolation_level=None: autocommit, so BEGIN IMMEDIATE below
        # delimits write transactions explicitly.
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, isolation_level=None
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._init_schema()

    def _init_schema(self) -> None:
        # executescript manages its own transaction boundaries, so it
        # runs outside transaction(); the DDL is idempotent (IF NOT
        # EXISTS), so a file made before an index existed gains it here.
        self._conn.executescript(_SCHEMA)
        with self.transaction():
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value)"
                " VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        if int(row["value"]) != SCHEMA_VERSION:
            raise ServiceError(
                f"{self.path}: schema version {row['value']} != "
                f"{SCHEMA_VERSION}; migrate or use a fresh database"
            )

    def transaction(self):
        """An immediate write transaction (serializes against other writers).

        Re-entrant: every write method runs in one, and calls made inside
        an open transaction join it, so a caller can commit several of
        them (a worker's batch of ``complete``/``fail`` calls and its
        ``record_worker``) at once.
        """
        return _WriteTransaction(self._conn)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- submission -------------------------------------------------------------------

    def submit(
        self,
        name: str,
        kind: str,
        config: dict,
        tasks: list[tuple[str, int, dict]],
        now: float | None = None,
    ) -> SubmitReceipt:
        """Create a campaign (or attach to an identical existing one).

        ``tasks`` is the adapter's expansion: ``(task_key, task_index,
        spec)`` triples.  Attaching inserts any *missing* task rows
        (normally none) and never touches existing rows — completed work
        is never recomputed.  A changed config under an existing name
        raises :class:`CampaignMismatchError`.
        """
        now = time.time() if now is None else now
        config_key = campaign_config_key(kind, config)
        with self.transaction():
            row = self._conn.execute(
                "SELECT id, kind, config_key FROM campaigns WHERE name=?",
                (name,),
            ).fetchone()
            if row is not None:
                if row["config_key"] != config_key or row["kind"] != kind:
                    raise CampaignMismatchError(
                        f"campaign {name!r} already exists with config "
                        f"{row['config_key'][:16]} (kind {row['kind']}); "
                        f"refusing to attach config {config_key[:16]} "
                        f"(kind {kind}) — submit under a new name"
                    )
                campaign_id = row["id"]
                created = False
            else:
                cursor = self._conn.execute(
                    "INSERT INTO campaigns (name, kind, config_key, config,"
                    " created) VALUES (?, ?, ?, ?, ?)",
                    (name, kind, config_key, canonical_config_json(config), now),
                )
                campaign_id = cursor.lastrowid
                created = True
            self._conn.executemany(
                "INSERT OR IGNORE INTO tasks (campaign_id, task_key,"
                " task_index, spec) VALUES (?, ?, ?, ?)",
                [
                    (campaign_id, key, index, canonical_config_json(spec))
                    for key, index, spec in tasks
                ],
            )
            counts = self._conn.execute(
                "SELECT COUNT(*) AS n,"
                " SUM(CASE WHEN status='done' THEN 1 ELSE 0 END) AS done"
                " FROM tasks WHERE campaign_id=?",
                (campaign_id,),
            ).fetchone()
        return SubmitReceipt(
            campaign_id=campaign_id,
            name=name,
            kind=kind,
            config_key=config_key,
            created=created,
            n_tasks=counts["n"],
            n_done=counts["done"] or 0,
        )

    # --- leasing ----------------------------------------------------------------------

    def lease(
        self,
        worker_id: str,
        n: int = 1,
        lease_seconds: float = 60.0,
        campaign: str | None = None,
        now: float | None = None,
    ) -> list[LeasedTask]:
        """Atomically claim up to ``n`` executable task rows.

        Claimable rows are ``open`` ones plus ``leased`` ones whose lease
        expired (their worker died or stalled past its heartbeat) —
        re-leasing bumps ``attempts``.  Rows are claimed in (campaign,
        task_index) order so early tasks finish first.  The open rows
        are read in that order straight off the ``idx_tasks_claim_order``
        index and the expired leases by a query of their own; the two
        are merged, so a lease costs the same however many rows are open.
        """
        if n < 1:
            raise ServiceError(f"lease size must be >= 1, got {n}")
        now = time.time() if now is None else now
        with self.transaction():
            where, args = "", ()
            if campaign is not None:
                row = self._conn.execute(
                    "SELECT id FROM campaigns WHERE name=?", (campaign,)
                ).fetchone()
                if row is None:
                    return []
                where, args = " AND campaign_id=?", (row["id"],)
            open_rows = self._conn.execute(
                f"SELECT {_CLAIM_COLUMNS} FROM tasks WHERE status='open'"
                f"{where} ORDER BY campaign_id, task_index LIMIT ?",
                (*args, n),
            ).fetchall()
            expired_rows = self._conn.execute(
                f"SELECT {_CLAIM_COLUMNS} FROM tasks WHERE status='leased'"
                f" AND lease_expires < ?{where}"
                " ORDER BY campaign_id, task_index LIMIT ?",
                (now, *args, n),
            ).fetchall()
            rows = list(islice(
                heapq.merge(open_rows, expired_rows, key=_claim_order), n
            ))
            if not rows:
                return []
            ids = list({row["campaign_id"] for row in rows})
            campaigns = {
                c["id"]: (c, json.loads(c["config"]))
                for c in self._conn.execute(
                    "SELECT id, name, kind, config, config_key FROM campaigns"
                    f" WHERE id IN ({', '.join('?' * len(ids))})",
                    ids,
                )
            }
            expires = now + lease_seconds
            self._conn.executemany(
                "UPDATE tasks SET status='leased', lease_owner=?,"
                " lease_expires=?, attempts=attempts+1 WHERE rowid=?",
                [(worker_id, expires, row["rid"]) for row in rows],
            )
        leased = []
        for row in rows:
            # The tasks of one campaign share its decoded config.
            c, config = campaigns[row["campaign_id"]]
            leased.append(
                LeasedTask(
                    campaign_id=row["campaign_id"],
                    campaign_name=c["name"],
                    kind=c["kind"],
                    config=config,
                    config_key=c["config_key"],
                    task_key=row["task_key"],
                    task_index=row["task_index"],
                    spec=json.loads(row["spec"]),
                    attempts=row["attempts"] + 1,
                    lease_expires=expires,
                )
            )
        return leased

    def heartbeat(
        self,
        worker_id: str,
        held: list[tuple[int, str]],
        lease_seconds: float = 60.0,
        now: float | None = None,
    ) -> int:
        """Extend the caller's live leases on ``held`` (campaign_id,
        task_key) rows; returns how many were actually extended (a row
        re-leased by someone else after an expiry is *not* — the caller
        should treat it as lost).  Also refreshes the worker's
        ``last_seen``.
        """
        now = time.time() if now is None else now
        extended = 0
        with self.transaction():
            for campaign_id, task_key in held:
                cursor = self._conn.execute(
                    "UPDATE tasks SET lease_expires=? WHERE campaign_id=?"
                    " AND task_key=? AND status='leased' AND lease_owner=?",
                    (now + lease_seconds, campaign_id, task_key, worker_id),
                )
                extended += cursor.rowcount
            self._conn.execute(
                "INSERT INTO workers (worker_id, started, last_seen)"
                " VALUES (?, ?, ?) ON CONFLICT(worker_id)"
                " DO UPDATE SET last_seen=excluded.last_seen",
                (worker_id, now, now),
            )
        return extended

    def leased_keys(self, worker_id: str) -> list[tuple[int, str]]:
        """The ``(campaign_id, task_key)`` rows this worker currently
        holds leases on (expired or not — ownership lapses only when
        another worker re-leases the row)."""
        rows = self._conn.execute(
            "SELECT campaign_id, task_key FROM tasks"
            " WHERE status='leased' AND lease_owner=?"
            " ORDER BY campaign_id, task_index",
            (worker_id,),
        ).fetchall()
        return [(int(r["campaign_id"]), str(r["task_key"])) for r in rows]

    def release(self, worker_id: str) -> int:
        """Return all of the caller's live leases to the open queue
        (graceful shutdown; a SIGKILLed worker relies on expiry instead).
        """
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE tasks SET status='open', lease_owner=NULL,"
                " lease_expires=NULL WHERE status='leased' AND lease_owner=?",
                (worker_id,),
            )
        return cursor.rowcount

    # --- completion -------------------------------------------------------------------

    def complete(
        self,
        worker_id: str,
        campaign_id: int,
        task_key: str,
        payload: dict,
        now: float | None = None,
    ) -> bool:
        """Commit one task result; returns whether the commit won.

        The guarded UPDATE transitions ``leased -> done`` only while the
        caller is still the lease owner, so two workers that raced on an
        expired lease can never both commit: the loser gets ``False``
        (and, results being bitwise-deterministic, lost nothing).
        """
        now = time.time() if now is None else now
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE tasks SET status='done', result=?, error=NULL,"
                " lease_owner=NULL, lease_expires=NULL, completed_by=?,"
                " completed_at=? WHERE campaign_id=? AND task_key=?"
                " AND status='leased' AND lease_owner=?",
                (
                    canonical_config_json(payload),
                    worker_id,
                    now,
                    campaign_id,
                    task_key,
                    worker_id,
                ),
            )
        return cursor.rowcount == 1

    def fail(
        self,
        worker_id: str,
        campaign_id: int,
        task_key: str,
        error: str,
        max_attempts: int = 3,
        now: float | None = None,
    ) -> str:
        """Record a task failure: requeue it, or park it as ``failed``.

        Returns ``"requeued"`` (attempts budget left — the row goes back
        to ``open`` for any worker), ``"failed"`` (budget exhausted), or
        ``"lost"`` (the caller no longer owned the lease — someone else
        already claimed or completed the row).
        """
        with self.transaction():
            row = self._conn.execute(
                "SELECT attempts FROM tasks WHERE campaign_id=? AND"
                " task_key=? AND status='leased' AND lease_owner=?",
                (campaign_id, task_key, worker_id),
            ).fetchone()
            if row is None:
                return "lost"
            if row["attempts"] >= max_attempts:
                self._conn.execute(
                    "UPDATE tasks SET status='failed', error=?,"
                    " lease_owner=NULL, lease_expires=NULL"
                    " WHERE campaign_id=? AND task_key=?",
                    (error, campaign_id, task_key),
                )
                return "failed"
            self._conn.execute(
                "UPDATE tasks SET status='open', error=?, lease_owner=NULL,"
                " lease_expires=NULL WHERE campaign_id=? AND task_key=?",
                (error, campaign_id, task_key),
            )
            return "requeued"

    def retry_failed(self, name: str) -> int:
        """Requeue every ``failed`` row of a campaign; returns the count."""
        campaign_id = self._campaign_id(name)
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE tasks SET status='open', error=NULL, attempts=0"
                " WHERE campaign_id=? AND status='failed'",
                (campaign_id,),
            )
        return cursor.rowcount

    # --- worker accounting ------------------------------------------------------------

    def record_worker(
        self,
        worker_id: str,
        tasks_done: int = 0,
        tasks_failed: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        cache_put_errors: int = 0,
        now: float | None = None,
    ) -> None:
        """Accumulate a worker's progress counters (absolute deltas)."""
        now = time.time() if now is None else now
        with self.transaction():
            self._conn.execute(
                "INSERT INTO workers (worker_id, started, last_seen,"
                " tasks_done, tasks_failed, cache_hits, cache_misses,"
                " cache_put_errors) VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(worker_id) DO UPDATE SET"
                " last_seen=excluded.last_seen,"
                " tasks_done=tasks_done+excluded.tasks_done,"
                " tasks_failed=tasks_failed+excluded.tasks_failed,"
                " cache_hits=cache_hits+excluded.cache_hits,"
                " cache_misses=cache_misses+excluded.cache_misses,"
                " cache_put_errors=cache_put_errors+excluded.cache_put_errors",
                (
                    worker_id,
                    now,
                    now,
                    tasks_done,
                    tasks_failed,
                    cache_hits,
                    cache_misses,
                    cache_put_errors,
                ),
            )

    # --- inspection -------------------------------------------------------------------

    def _campaign_id(self, name: str) -> int:
        row = self._conn.execute(
            "SELECT id FROM campaigns WHERE name=?", (name,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"no campaign named {name!r} in {self.path}")
        return row["id"]

    def campaign(self, name: str) -> tuple[int, str, dict]:
        """``(campaign_id, kind, config)`` of a campaign by name."""
        row = self._conn.execute(
            "SELECT id, kind, config FROM campaigns WHERE name=?", (name,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"no campaign named {name!r} in {self.path}")
        return row["id"], row["kind"], json.loads(row["config"])

    def status(self, name: str | None = None) -> list[CampaignStatus]:
        where, args = ("WHERE c.name=?", (name,)) if name else ("", ())
        rows = self._conn.execute(
            f"""
            SELECT c.id, c.name, c.kind, c.config_key,
                   COUNT(t.task_key) AS n,
                   SUM(CASE WHEN t.status='open'   THEN 1 ELSE 0 END) AS n_open,
                   SUM(CASE WHEN t.status='leased' THEN 1 ELSE 0 END) AS n_leased,
                   SUM(CASE WHEN t.status='done'   THEN 1 ELSE 0 END) AS n_done,
                   SUM(CASE WHEN t.status='failed' THEN 1 ELSE 0 END) AS n_failed
            FROM campaigns c LEFT JOIN tasks t ON t.campaign_id = c.id
            {where} GROUP BY c.id ORDER BY c.id
            """,
            args,
        ).fetchall()
        if name is not None and not rows:
            raise ServiceError(f"no campaign named {name!r} in {self.path}")
        return [
            CampaignStatus(
                campaign_id=r["id"],
                name=r["name"],
                kind=r["kind"],
                config_key=r["config_key"],
                n_tasks=r["n"],
                n_open=r["n_open"] or 0,
                n_leased=r["n_leased"] or 0,
                n_done=r["n_done"] or 0,
                n_failed=r["n_failed"] or 0,
            )
            for r in rows
        ]

    def workers(self) -> list[WorkerStatus]:
        rows = self._conn.execute(
            "SELECT * FROM workers ORDER BY worker_id"
        ).fetchall()
        return [
            WorkerStatus(
                worker_id=r["worker_id"],
                started=r["started"],
                last_seen=r["last_seen"],
                tasks_done=r["tasks_done"],
                tasks_failed=r["tasks_failed"],
                cache_hits=r["cache_hits"],
                cache_misses=r["cache_misses"],
                cache_put_errors=r["cache_put_errors"],
            )
            for r in rows
        ]

    def payloads(self, name: str) -> dict[str, dict]:
        """All committed result payloads of a campaign, keyed by task key."""
        campaign_id = self._campaign_id(name)
        rows = self._conn.execute(
            "SELECT task_key, result FROM tasks WHERE campaign_id=?"
            " AND status='done' ORDER BY task_index",
            (campaign_id,),
        ).fetchall()
        return {r["task_key"]: json.loads(r["result"]) for r in rows}

    def incomplete_count(self, campaign: str | None = None) -> int:
        """Rows still runnable or running (``open``/``leased``), i.e. not
        yet settled as ``done`` or ``failed``."""
        if campaign is None:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM tasks"
                " WHERE status IN ('open', 'leased')"
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM tasks t"
                " JOIN campaigns c ON c.id = t.campaign_id"
                " WHERE t.status IN ('open', 'leased') AND c.name=?",
                (campaign,),
            ).fetchone()
        return row["n"]

    def task_errors(self, name: str) -> list[tuple[str, str]]:
        """``(task_key, error)`` of every ``failed`` row of a campaign."""
        campaign_id = self._campaign_id(name)
        rows = self._conn.execute(
            "SELECT task_key, error FROM tasks WHERE campaign_id=?"
            " AND status='failed' ORDER BY task_index",
            (campaign_id,),
        ).fetchall()
        return [(r["task_key"], r["error"] or "") for r in rows]


class _WriteTransaction:
    """``BEGIN IMMEDIATE`` .. ``COMMIT``/``ROLLBACK`` as a context manager;
    a no-op inside a transaction already open on the connection (the
    outermost one commits or rolls back everything)."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        self._outer = False

    def __enter__(self) -> sqlite3.Connection:
        self._outer = not self._conn.in_transaction
        if self._outer:
            self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type, *exc_info) -> None:
        if not self._outer:
            return
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")


def default_worker_id() -> str:
    """``host:pid`` — unique per live worker process."""
    return f"{os.uname().nodename}:{os.getpid()}"


__all__ = [
    "CONFIG_NAMESPACE",
    "CampaignDB",
    "CampaignStatus",
    "LeasedTask",
    "SCHEMA_VERSION",
    "SubmitReceipt",
    "TASK_STATUSES",
    "WorkerStatus",
    "campaign_config_key",
    "canonical_config_json",
    "default_worker_id",
]
