"""Search resume equivalence through the campaign checkpoint store.

The central claim: kill a search mid-generation — i.e. drop an
arbitrary suffix of the store, possibly leaving a torn final line —
resume it, and the final front is *identical* to the uninterrupted run
with the same seed.  The store's crash mechanics are tested on generic
payloads in tests/test_checkpoint_resume.py; the store cases here use
``EvalRecord`` payloads.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict
from typing import ClassVar

import pytest

from repro.dse import (
    EvalRecord,
    LhsStrategy,
    Nsga2Strategy,
    ParamSpace,
    Zdt1Evaluator,
    continuous,
    run_dse,
)
from repro.errors import CheckpointError
from repro.runtime import CheckpointStore, ResultCache, content_key


def _space(d: int = 3) -> ParamSpace:
    return ParamSpace(tuple(continuous(f"x{i}", 0.0, 1.0) for i in range(d)))


def _front_key(result) -> list[tuple]:
    """The front as an exact, comparable value (params + objectives)."""
    return [
        (tuple(sorted(r.params.items())), tuple(sorted(r.objectives.items())))
        for r in result.front
    ]


def _store_lines(path) -> list[bytes]:
    return path.read_bytes().split(b"\n")[:-1]


# --- records in the store --------------------------------------------------------------


def test_eval_record_roundtrips_through_store_payload(tmp_path):
    path = tmp_path / "run.jsonl"
    record = EvalRecord(
        key="k1",
        generation=0,
        index=2,
        params={"x": 0.125, "y": 3.0},
        seed=42,
        feasible=True,
        objectives={"f1": 1.0 / 3.0, "f2": float("inf")},
        reason="",
        elapsed=0.5,
    )
    with CheckpointStore(path) as store:
        store.begin({"case": "roundtrip"})
        store.append(record.key, asdict(record))
    fresh = CheckpointStore(path)
    fresh.load()
    # Exact float round-trip, inf included.
    assert EvalRecord(**fresh.get("k1")) == record


def test_store_refuses_clobber_without_resume(tmp_path):
    path = tmp_path / "run.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"a": 1})
    with pytest.raises(CheckpointError, match="resume=True"):
        CheckpointStore(path).begin({"a": 1})


def test_store_refuses_config_mismatch_on_resume(tmp_path):
    path = tmp_path / "run.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"a": 1})
    with pytest.raises(CheckpointError, match="different run configuration"):
        CheckpointStore(path).begin({"a": 2}, resume=True)


def test_store_mid_file_corruption_drops_tail_with_warning(tmp_path):
    path = tmp_path / "run.jsonl"
    records = [
        EvalRecord(f"k{i}", 0, i, {"x": float(i)}, i, True, {"f": float(i)})
        for i in range(4)
    ]
    with CheckpointStore(path) as store:
        store.begin({"a": 1})
        for r in records:
            store.append(r.key, asdict(r))
    lines = _store_lines(path)
    lines[2] = b'{"key": "k1", garbage'
    path.write_bytes(b"\n".join(lines) + b"\n")

    fresh = CheckpointStore(path)
    with pytest.warns(RuntimeWarning, match="corrupt record"):
        fresh.load()
    # Only the record before the corrupt line survives, and it decodes intact.
    assert [EvalRecord(**payload) for _, payload in fresh.items()] == records[:1]


def test_store_written_before_the_shared_format_is_refused(tmp_path):
    """A DSE store in the retired ``"kind": "eval"`` line format, keyed
    in its own config namespace, does not resume: its header is refused
    before any record is read — no corruption warning, file untouched —
    rather than silently re-run or mixed."""
    path = tmp_path / "run.jsonl"
    _run(checkpoint=path)
    header, *records = [json.loads(line) for line in _store_lines(path)]
    header["config_key"] = content_key(
        "dse-run-config/v1", json.dumps(header["config"], sort_keys=True)
    )
    old = [header] + [{"kind": "eval", **r["payload"]} for r in records]
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in old))
    before = path.read_bytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CheckpointError, match="different run configuration"):
            _run(checkpoint=path, resume=True)
    assert [str(w.message) for w in caught] == []
    assert path.read_bytes() == before


# --- resume equivalence ----------------------------------------------------------------


def _run(checkpoint=None, resume=False, n_jobs=1, seed=99):
    return run_dse(
        _space(),
        Zdt1Evaluator(dimension=3),
        Nsga2Strategy(population=8, generations=4),
        base_seed=seed,
        n_jobs=n_jobs,
        checkpoint=checkpoint,
        resume=resume,
    )


def test_kill_mid_generation_then_resume_front_identical(tmp_path):
    """The ISSUE acceptance shape: truncate mid-generation, resume, compare."""
    baseline = _run()  # uninterrupted, no store

    full = tmp_path / "full.jsonl"
    full_result = _run(checkpoint=full)
    assert _front_key(full_result) == _front_key(baseline)

    lines = _store_lines(full)
    n_records = len(lines) - 1  # header + one line per record
    assert n_records == len(full_result.records)

    # "Kill" partway through generation 2: header + 60% of records, plus
    # a torn half-line of the next record (the in-flight write).
    keep = 1 + int(n_records * 0.6)
    interrupted = tmp_path / "interrupted.jsonl"
    interrupted.write_bytes(b"\n".join(lines[:keep]) + b"\n" + lines[keep][: len(lines[keep]) // 2])

    resumed = _run(checkpoint=interrupted, resume=True)

    assert _front_key(resumed) == _front_key(full_result)
    # The resumed run replayed what survived and computed only the rest.
    assert resumed.n_replayed == keep - 1
    assert resumed.n_evaluated == len(full_result.records) - (keep - 1)
    # And every record — not just the front — is bitwise identical.
    assert [
        (r.key, r.params, r.seed, r.feasible, r.objectives)
        for r in resumed.records
    ] == [
        (r.key, r.params, r.seed, r.feasible, r.objectives)
        for r in full_result.records
    ]


def test_resume_of_complete_run_recomputes_nothing(tmp_path):
    path = tmp_path / "run.jsonl"
    first = _run(checkpoint=path)
    second = _run(checkpoint=path, resume=True)
    assert second.n_evaluated == 0
    assert second.n_replayed == len(first.records)
    assert _front_key(second) == _front_key(first)


def test_resume_across_worker_counts_identical(tmp_path):
    """Interrupt a serial run, resume with 4 workers: same front."""
    full = tmp_path / "full.jsonl"
    full_result = _run(checkpoint=full, n_jobs=1)

    lines = _store_lines(full)
    interrupted = tmp_path / "interrupted.jsonl"
    interrupted.write_bytes(b"\n".join(lines[: 1 + len(full_result.records) // 3]) + b"\n")

    resumed = _run(checkpoint=interrupted, resume=True, n_jobs=4)
    assert _front_key(resumed) == _front_key(full_result)


def test_resume_refuses_different_search_config(tmp_path):
    path = tmp_path / "run.jsonl"
    _run(checkpoint=path)
    with pytest.raises(CheckpointError, match="different run configuration"):
        run_dse(
            _space(),
            Zdt1Evaluator(dimension=3),
            LhsStrategy(n_samples=8),  # different strategy => different run
            base_seed=99,
            checkpoint=path,
            resume=True,
        )


def test_engine_refuses_nonempty_store_without_resume(tmp_path):
    path = tmp_path / "run.jsonl"
    _run(checkpoint=path)
    with pytest.raises(CheckpointError, match="resume=True"):
        _run(checkpoint=path)


class _InterruptedZdt1(Zdt1Evaluator):
    """ZDT1 that raises ``KeyboardInterrupt`` on call ``interrupt_at``.

    The call counter is class state, not a dataclass field, so it stays
    out of the candidate keys and the store's run configuration: the
    interrupted and the resumed run are the same search.
    """

    calls: ClassVar[int] = 0
    interrupt_at: ClassVar[int] = 0  # 0: never

    def __call__(self, params, seed):
        type(self).calls += 1
        if type(self).calls == self.interrupt_at:
            raise KeyboardInterrupt
        return super().__call__(params, seed)


def _records(result) -> list[tuple]:
    return [
        (r.key, r.params, r.seed, r.feasible, r.objectives) for r in result.records
    ]


def test_interrupt_mid_batch_keeps_completed_evaluations(tmp_path, monkeypatch):
    """Ctrl-C on the 8th evaluation of a 10-candidate batch: the
    evaluations that completed before it are already in the store, and a
    resume computes only the rest."""

    def run(**kwargs):
        return run_dse(
            _space(), _InterruptedZdt1(dimension=3), LhsStrategy(n_samples=10),
            base_seed=5, **kwargs,
        )

    baseline = run()
    path = tmp_path / "run.jsonl"
    monkeypatch.setattr(_InterruptedZdt1, "calls", 0)
    monkeypatch.setattr(_InterruptedZdt1, "interrupt_at", 8)
    with pytest.raises(KeyboardInterrupt):
        run(checkpoint=path)
    stored = len(_store_lines(path)) - 1  # minus the header
    assert stored >= 1

    monkeypatch.setattr(_InterruptedZdt1, "interrupt_at", 0)
    resumed = run(checkpoint=path, resume=True)
    assert resumed.n_replayed == stored
    assert resumed.n_evaluated == 10 - stored
    assert _records(resumed) == _records(baseline)
    assert _front_key(resumed) == _front_key(baseline)


def test_interrupt_mid_batch_keeps_completed_evaluations_in_cache(
    tmp_path, monkeypatch
):
    """The cache, like the store, receives each evaluation as its
    executor chunk lands: Ctrl-C on the 8th of 10 candidates (chunks of
    three) leaves the six of the two finished chunks in both."""
    path = tmp_path / "run.jsonl"
    cache = ResultCache(tmp_path / "cache")
    monkeypatch.setattr(_InterruptedZdt1, "calls", 0)
    monkeypatch.setattr(_InterruptedZdt1, "interrupt_at", 8)
    with pytest.raises(KeyboardInterrupt):
        run_dse(
            _space(), _InterruptedZdt1(dimension=3), LhsStrategy(n_samples=10),
            base_seed=5, cache=cache, checkpoint=path,
        )
    assert len(_store_lines(path)) - 1 == 6
    assert cache.stats().entries == 6
