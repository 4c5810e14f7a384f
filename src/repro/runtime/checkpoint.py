"""The crash-safe JSONL checkpoint store every long-running campaign uses.

Monte Carlo, sweeps, fault campaigns and design-space searches all gain
``checkpoint=``/``resume=`` through :class:`CheckpointStore`, with one
set of crash semantics:

* one header line binds the file to a run configuration (via a content
  hash), then one line per completed unit of work, flushed and fsynced
  as it lands — a process killed at any instant (``SIGKILL``, OOM,
  Ctrl-C) leaves at most one truncated final line;
* :meth:`CheckpointStore.load` drops a torn or corrupt *final* line
  silently (the expected crash residue) and physically truncates it
  before the next append; corruption earlier in the file drops the
  untrustworthy tail with a warning;
* resuming against a file written by a *different* configuration is
  refused loudly (:class:`repro.errors.CheckpointError`) instead of
  silently mixing records;
* floats survive the JSON round-trip exactly (``repr`` round-trips IEEE
  doubles), so replayed results are bitwise identical to freshly
  computed ones — which, combined with content-addressed per-task seeds
  (:mod:`repro.runtime.seeds`), is what makes an interrupted-and-resumed
  campaign converge to the exact result of an uninterrupted one.

:func:`checkpoint_store` opens one run's store (or yields ``None``
without a path) and closes it on every exit path;
:func:`run_checkpointed` is the replay -> map -> persist loop over it
that ``run_monte_carlo``, ``sweep_grid``, ``run_fault_campaign`` and
the DSE search (:func:`repro.dse.engine.run_dse`, one loop per asked
batch) all run.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import warnings
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import CheckpointError
from repro.runtime.cache import content_key, stable_token
from repro.runtime.resilience import TaskFailure

if TYPE_CHECKING:
    from repro.runtime.executor import ParallelExecutor

#: Bumped when the line format changes incompatibly.
CHECKPOINT_VERSION = 1


def git_provenance(cwd: str | Path | None = None) -> dict:
    """Best-effort git description of the code that produced a run."""
    def _run(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = _run("rev-parse", "HEAD")
    status = _run("status", "--porcelain")
    return {
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
    }


def callable_token(fn: Any) -> str:
    """A best-effort stable identity string for an evaluator callable.

    Used in checkpoint *configurations* (the resume-compatibility check),
    not in per-record keys: two runs whose evaluators tokenize
    differently refuse to share a store.  Covers plain functions (module
    + qualname), ``functools.partial`` (recursing into bound arguments)
    and stateful evaluator objects (via :func:`stable_token`).
    """
    if isinstance(fn, functools.partial):
        bound = tuple(sorted(fn.keywords.items())) if fn.keywords else ()
        return (
            f"partial({callable_token(fn.func)},"
            f" args={stable_token(fn.args)}, kwargs={stable_token(bound)})"
        )
    name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    module = getattr(fn, "__module__", None) or "?"
    try:
        state = stable_token(fn)
    except TypeError:
        state = ""
    return f"{module}:{name}:{state}"


def _identity(value: Any) -> Any:
    return value


class CheckpointStore:
    """The campaign checkpoint: string key -> JSON payload dict.

    Usage::

        store = CheckpointStore(path)
        store.begin(config, resume=False)   # writes the header
        store.append(key, payload)          # durable immediately
        payload = store.get(key)            # replay lookup
        store.close()

    ``begin(config, resume=True)`` loads an existing file instead,
    verifies its header matches ``config``, truncates any torn final
    line, and positions for appending.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.header: dict | None = None
        self._records: dict[str, Any] = {}
        self._order: list[str] = []
        self._fh = None
        self._good_bytes = 0

    @staticmethod
    def config_key(config: dict) -> str:
        """The identity hash of a run configuration (what resume checks)."""
        return content_key(
            "campaign-checkpoint/v1", json.dumps(config, sort_keys=True)
        )

    # --- reading ----------------------------------------------------------------------

    def load(self, config_key: str | None = None) -> None:
        """Parse the file, keeping every intact record.

        A truncated or corrupt *final* line is the expected crash residue
        and is dropped silently (the byte offset of the last good line is
        remembered so :meth:`begin` can truncate it away).  Corruption
        *before* the end means the tail of the file cannot be trusted;
        everything after the bad line is dropped with a warning.

        With ``config_key``, a header bound to another configuration is
        refused as soon as it is read, before any record is parsed: a
        store of another run is not judged by its record format.
        """
        self.header = None
        self._records.clear()
        self._order.clear()
        self._good_bytes = 0
        data = self.path.read_bytes()
        offset = 0
        # A record is durable only once its terminating newline is on
        # disk, so anything after the last newline is crash residue —
        # even if it happens to parse — and is dropped.
        complete = data.split(b"\n")[:-1]
        for i, raw in enumerate(complete):
            end = offset + len(raw) + 1
            try:
                payload = json.loads(raw.decode())
                kind = payload["kind"]
                if kind == "header":
                    if self.header is not None:
                        raise ValueError("duplicate header")
                    if payload.get("version") != CHECKPOINT_VERSION:
                        raise CheckpointError(
                            f"store version {payload.get('version')}"
                            f" != {CHECKPOINT_VERSION}"
                        )
                    if config_key not in (None, payload.get("config_key")):
                        raise CheckpointError(
                            f"{self.path} was written by a different run"
                            " configuration; refusing to mix records"
                            " (use a fresh store path)"
                        )
                    self.header = payload
                elif kind == "record":
                    key = str(payload["key"])
                    if key not in self._records:
                        self._order.append(key)
                    self._records[key] = payload["payload"]
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except CheckpointError:
                raise
            except Exception as exc:
                dropped = len(complete) - i - 1
                warnings.warn(
                    f"{self.path}: corrupt record on line {i + 1} ({exc}); "
                    f"dropping it and the {dropped} lines after it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            offset = end
            self._good_bytes = offset
        if self.header is None and self._records:
            raise CheckpointError(f"{self.path}: has records but no header line")

    # --- writing ----------------------------------------------------------------------

    def begin(self, config: dict, resume: bool = False) -> None:
        """Open for appending: fresh header, or verified resume."""
        exists = self.path.exists() and self.path.stat().st_size > 0
        if exists and not resume:
            raise CheckpointError(
                f"{self.path} already holds a run; pass resume=True to continue"
                " it (or choose another path)"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if exists:
            self.load(self.config_key(config))
            if self.header is None:
                raise CheckpointError(
                    f"{self.path}: no intact header to resume from"
                )
            self._fh = open(self.path, "r+b")
            self._fh.truncate(self._good_bytes)
            self._fh.seek(self._good_bytes)
        else:
            self.header = {
                "kind": "header",
                "version": CHECKPOINT_VERSION,
                "config": config,
                "config_key": self.config_key(config),
                "git": git_provenance(),
            }
            self._fh = open(self.path, "wb")
            self._write_line(self.header)

    def append(self, key: str, payload: Any) -> None:
        """Durably persist one completed unit of work (idempotent per key).

        ``payload`` must be JSON-serializable; floats round-trip exactly.
        """
        if self._fh is None:
            raise CheckpointError("store is not open; call begin() first")
        if key in self._records:
            return
        self._records[key] = payload
        self._order.append(key)
        self._write_line({"kind": "record", "key": key, "payload": payload})

    def _write_line(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True).encode() + b"\n"
        self._fh.write(line)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._good_bytes += len(line)

    # --- lookup -----------------------------------------------------------------------

    def get(self, key: str) -> Any:
        return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> list[str]:
        """All record keys in first-seen order."""
        return list(self._order)

    def items(self) -> list[tuple[str, Any]]:
        """(key, payload) pairs in first-seen order."""
        return [(k, self._records[k]) for k in self._order]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def checkpoint_store(
    path: str | Path | None, config: dict, resume: bool
) -> Iterator[CheckpointStore | None]:
    """The open store of one campaign run, or ``None`` without a path.

    Begins the store at ``path`` bound to ``config`` (``resume=True``
    continues it) and closes it on every exit path; each record was
    fsynced as it landed, so an exception (even ``KeyboardInterrupt``)
    never loses completed work.
    """
    if path is None:
        yield None
        return
    store = CheckpointStore(path)
    try:
        store.begin(config, resume=resume)
        yield store
    finally:
        store.close()


def run_checkpointed(
    executor: ParallelExecutor,
    fn: Callable[..., Any],
    items: Sequence[Any],
    keys: Sequence[str],
    store: CheckpointStore | None,
    encode: Callable[[Any], Any] = _identity,
    decode: Callable[[Any], Any] = _identity,
    chunked: bool = False,
    on_value: Callable[[str, Any], None] | None = None,
) -> list[Any]:
    """The checkpointed task loop behind every in-process campaign driver.

    Maps ``fn`` over ``items`` through ``executor`` (``map_chunks`` when
    ``chunked``, else ``map``) and returns the results in campaign order,
    with a :class:`~repro.runtime.TaskFailure` — indexed by campaign
    position — in every quarantined slot.

    With an open ``store`` (see :func:`checkpoint_store`), item ``i`` is
    persisted under ``keys[i]`` as ``encode(result)`` the moment its
    chunk lands, and every key the store already holds is replayed as
    ``decode(payload)`` instead of mapped.  A failure is never
    persisted, so a resumed run retries it.  ``on_value(key, result)``,
    if given, is called for every fresh result that is not a failure as
    its chunk lands (after the store holds it).
    """
    results: list[Any] = [None] * len(items)
    if store is not None:
        for i, key in enumerate(keys):
            if key in store:
                results[i] = decode(store.get(key))

    def on_result(indices: list[int], values: list) -> None:
        for j, value in zip(indices, values):
            if not isinstance(value, TaskFailure):
                key = keys[pending[j]]
                if store is not None:
                    store.append(key, encode(value))
                if on_value is not None:
                    on_value(key, value)

    pending = [i for i, key in enumerate(keys) if store is None or key not in store]
    if pending:
        run = executor.map_chunks if chunked else executor.map
        values = run(fn, [items[i] for i in pending], on_result=on_result)
        for i, value in zip(pending, values):
            # The executor saw only the pending subset; re-point a
            # failure at its campaign position.
            if isinstance(value, TaskFailure):
                value = replace(value, index=i)
            results[i] = value
    return results


__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "callable_token",
    "checkpoint_store",
    "git_provenance",
    "run_checkpointed",
]
