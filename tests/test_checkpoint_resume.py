"""Crash-safe checkpoint/resume across every campaign type.

The acceptance property from docs/RESILIENCE.md: a campaign killed at
any instant and resumed from its checkpoint produces results **bitwise
identical** to an uninterrupted run — for Monte Carlo, 1-D sweeps, grid
sweeps and fault campaigns — while recomputing only the missing work.
Plus the store-level guarantees: torn-tail truncation, config-mismatch
refusal, and exact float round-trips.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import warnings
from pathlib import Path

import pytest

from repro.analysis.sweep import grid_points, sweep_grid
from repro.circuit.srlr import robust_design
from repro.dse import Nsga2Strategy, ParamSpace, Zdt1Evaluator, continuous, run_dse
from repro.errors import CheckpointError
from repro.fault import FaultCampaignConfig, run_fault_campaign
from repro.fault import campaign as fault_campaign
from repro.mc import engine as mc_engine
from repro.mc.engine import run_monte_carlo
from repro.noc import MeshTopology, record_trace
from repro.runtime import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    ParallelExecutor,
    ResilienceConfig,
    callable_token,
)
from repro.workload import build_traffic

N_RUNS = 24


# --- CheckpointStore unit behavior -----------------------------------------------------


def test_roundtrip_preserves_floats_exactly(tmp_path):
    path = tmp_path / "store.jsonl"
    values = [0.1 + 0.2, 1e-308, -0.0, 123456789.123456789, float("inf")]
    with CheckpointStore(path) as store:
        store.begin({"kind": "t"})
        for i, v in enumerate(values):
            store.append(str(i), {"v": v})
    fresh = CheckpointStore(path)
    fresh.load()
    got = [fresh.get(str(i))["v"] for i in range(len(values))]
    assert all(a == b for a, b in zip(got, values))
    assert math.copysign(1.0, got[2]) == -1.0  # -0.0 survives


def test_torn_final_line_dropped_and_truncated(tmp_path):
    path = tmp_path / "store.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"kind": "t"})
        store.append("a", {"v": 1})
        store.append("b", {"v": 2})
    good_size = path.stat().st_size
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "record", "key": "c", "pay')  # no newline: torn

    resumed = CheckpointStore(path)
    resumed.begin({"kind": "t"}, resume=True)
    assert set(resumed.keys()) == {"a", "b"}
    resumed.append("c", {"v": 3})
    resumed.close()
    # The torn bytes are physically gone, replaced by the clean append.
    lines = path.read_bytes().decode().splitlines()
    assert len(lines) == 4  # header + a + b + c
    assert json.loads(lines[-1])["key"] == "c"
    assert path.stat().st_size > good_size


def test_mid_file_corruption_drops_untrusted_tail_with_warning(tmp_path):
    path = tmp_path / "store.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"kind": "t"})
        for key in "abcd":
            store.append(key, {"v": key})
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"NOT JSON AT ALL\n"  # corrupt record "b"
    path.write_bytes(b"".join(lines))
    fresh = CheckpointStore(path)
    with pytest.warns(RuntimeWarning, match="corrupt record on line 3"):
        fresh.load()
    assert set(fresh.keys()) == {"a"}  # b, c, d all dropped


def test_existing_store_requires_resume_flag(tmp_path):
    path = tmp_path / "store.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"kind": "t"})
    with pytest.raises(CheckpointError, match="pass resume=True"):
        CheckpointStore(path).begin({"kind": "t"})


def test_config_mismatch_refused(tmp_path):
    path = tmp_path / "store.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"kind": "t", "n": 1})
    with pytest.raises(CheckpointError, match="different run configuration"):
        CheckpointStore(path).begin({"kind": "t", "n": 2}, resume=True)


def test_append_is_idempotent_per_key(tmp_path):
    path = tmp_path / "store.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"kind": "t"})
        store.append("a", {"v": 1})
        store.append("a", {"v": 999})  # ignored: first write wins
        assert store.get("a") == {"v": 1}
        assert len(store) == 1


def test_header_binds_config_version_and_key(tmp_path):
    path = tmp_path / "store.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"case": "header"})
    fresh = CheckpointStore(path)
    fresh.load()
    assert fresh.header["config"] == {"case": "header"}
    assert fresh.header["config_key"] == CheckpointStore.config_key({"case": "header"})
    assert fresh.header["version"] == CHECKPOINT_VERSION


def test_unterminated_tail_dropped_even_if_parseable(tmp_path):
    """A line without its newline is not durable, valid JSON or not."""
    path = tmp_path / "store.jsonl"
    with CheckpointStore(path) as store:
        store.begin({"kind": "t"})
        store.append("a", {"v": 1})
    torn = {"kind": "record", "key": "b", "payload": {"v": 2}}
    with open(path, "ab") as fh:
        fh.write(json.dumps(torn).encode())  # complete JSON, no newline

    fresh = CheckpointStore(path)
    fresh.load()
    assert fresh.keys() == ["a"]

    # Resuming truncates the torn bytes so the next append can't splice.
    fresh.begin({"kind": "t"}, resume=True)
    fresh.append("c", {"v": 3})
    fresh.close()
    reread = CheckpointStore(path)
    reread.load()
    assert reread.items() == [("a", {"v": 1}), ("c", {"v": 3})]


def test_records_without_header_refused(tmp_path):
    path = tmp_path / "store.jsonl"
    line = {"kind": "record", "key": "a", "payload": {"v": 1}}
    path.write_bytes(json.dumps(line).encode() + b"\n")
    with pytest.raises(CheckpointError, match="no header"):
        CheckpointStore(path).load()


def test_callable_token_distinguishes_functions_and_partials():
    t_sweep = callable_token(sweep_grid)
    t_grid = callable_token(grid_points)
    assert t_sweep != t_grid
    p1 = callable_token(functools.partial(sweep_grid, n_jobs=1))
    p2 = callable_token(functools.partial(sweep_grid, n_jobs=2))
    assert p1 != p2
    assert callable_token(functools.partial(sweep_grid, n_jobs=1)) == p1


# --- Monte Carlo ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mc_reference():
    return run_monte_carlo(robust_design(), n_runs=N_RUNS)


def _truncate_to_records(path: Path, n_keep: int) -> None:
    """Keep the header plus the first ``n_keep`` records (simulated kill)."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[: 1 + n_keep]))


def test_mc_checkpointed_run_matches_plain(tmp_path, mc_reference):
    path = tmp_path / "mc.jsonl"
    result = run_monte_carlo(robust_design(), n_runs=N_RUNS, checkpoint=path)
    assert result.runs == mc_reference.runs


@pytest.mark.parametrize("resume_jobs", [1, 2])
def test_mc_interrupted_resume_is_bitwise_identical(
    tmp_path, mc_reference, resume_jobs
):
    path = tmp_path / f"mc-{resume_jobs}.jsonl"
    run_monte_carlo(robust_design(), n_runs=N_RUNS, checkpoint=path)
    _truncate_to_records(path, 7)  # "kill" with 7 of 24 dies durable

    resumed = run_monte_carlo(
        robust_design(),
        n_runs=N_RUNS,
        n_jobs=resume_jobs,
        checkpoint=path,
        resume=True,
    )
    assert resumed.runs == mc_reference.runs


def test_mc_keyboard_interrupt_then_resume(tmp_path, mc_reference):
    path = tmp_path / "mc-ki.jsonl"
    state = {"chunks": 0}

    def interrupt(metrics) -> None:
        state["chunks"] += 1
        if state["chunks"] >= 2:
            raise KeyboardInterrupt

    executor = ParallelExecutor(n_jobs=1, chunk_size=4, progress=interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_monte_carlo(
            robust_design(), n_runs=N_RUNS, executor=executor, checkpoint=path
        )

    survivors = CheckpointStore(path)
    survivors.load()
    assert 0 < len(survivors) < N_RUNS

    resumed = run_monte_carlo(
        robust_design(), n_runs=N_RUNS, checkpoint=path, resume=True
    )
    assert resumed.runs == mc_reference.runs


def test_mc_complete_checkpoint_recomputes_nothing(tmp_path, mc_reference):
    path = tmp_path / "mc-done.jsonl"
    run_monte_carlo(robust_design(), n_runs=N_RUNS, checkpoint=path)

    executor = ParallelExecutor(n_jobs=1)
    replayed = run_monte_carlo(
        robust_design(),
        n_runs=N_RUNS,
        executor=executor,
        checkpoint=path,
        resume=True,
    )
    assert replayed.runs == mc_reference.runs
    assert executor.last_metrics is None  # map() never ran


def test_mc_different_campaign_refuses_store(tmp_path):
    path = tmp_path / "mc.jsonl"
    run_monte_carlo(robust_design(), n_runs=8, checkpoint=path)
    with pytest.raises(CheckpointError, match="different run configuration"):
        run_monte_carlo(
            robust_design(), n_runs=8, base_seed=999, checkpoint=path, resume=True
        )


# --- sweeps -----------------------------------------------------------------------------

#: A one-axis sweep: the classic 1-D parameter sweep.
SWEEP_AXIS = {"swing": (0.26, 0.28, 0.30, 0.32)}


def _sweep_eval(point: dict) -> dict[str, float]:
    v = point["swing"]
    return {"square": v * v, "scaled": v * 3.7}


def _gated_eval(point: dict, gate_dir: str = "") -> dict[str, float]:
    """Poison point fails until the gate file exists (resume testing)."""
    poison = point["swing"] == SWEEP_AXIS["swing"][2]
    if poison and not (Path(gate_dir) / "open").exists():
        raise RuntimeError("gate closed")
    return _sweep_eval(point)


def _grid_eval(point: dict) -> dict[str, float]:
    return {"product": point["a"] * point["b"]}


def test_sweep_interrupted_resume_is_bitwise_identical(tmp_path):
    reference = sweep_grid(SWEEP_AXIS, _sweep_eval)
    path = tmp_path / "sweep.jsonl"
    sweep_grid(SWEEP_AXIS, _sweep_eval, checkpoint=path)
    _truncate_to_records(path, 2)

    # Resumed on another worker count: stored and fresh points mix freely.
    resumed = sweep_grid(
        SWEEP_AXIS, _sweep_eval, n_jobs=2, checkpoint=path, resume=True
    )
    assert resumed == reference


def test_sweep_different_evaluator_refuses_store(tmp_path):
    path = tmp_path / "sweep.jsonl"
    sweep_grid(SWEEP_AXIS, _sweep_eval, checkpoint=path)
    with pytest.raises(CheckpointError, match="different run configuration"):
        sweep_grid(SWEEP_AXIS, _grid_eval, checkpoint=path, resume=True)


def test_sweep_quarantined_point_not_checkpointed_and_retried_on_resume(tmp_path):
    gate = tmp_path / "gate"
    gate.mkdir()
    evaluate = functools.partial(_gated_eval, gate_dir=str(gate))
    path = tmp_path / "sweep.jsonl"

    config = ResilienceConfig(max_retries=0)
    broken = sweep_grid(
        SWEEP_AXIS,
        evaluate,
        executor=ParallelExecutor(resilience=config),
        checkpoint=path,
    )
    assert len(broken.failures) == 1
    assert broken.failures[0].index == 2
    assert math.isnan(broken.metrics["square"][2])

    store = CheckpointStore(path)
    store.load()
    # The failure was NOT persisted.
    assert len(store) == len(SWEEP_AXIS["swing"]) - 1

    (gate / "open").touch()  # "fix" the flaky point
    resumed = sweep_grid(SWEEP_AXIS, evaluate, checkpoint=path, resume=True)
    assert resumed.failures == ()
    assert resumed == sweep_grid(SWEEP_AXIS, _sweep_eval)


def test_sweep_grid_interrupted_resume_is_bitwise_identical(tmp_path):
    parameters = {"a": (1.0, 2.0, 3.0), "b": (0.5, 0.25)}
    reference = sweep_grid(parameters, _grid_eval)
    path = tmp_path / "grid.jsonl"
    sweep_grid(parameters, _grid_eval, checkpoint=path)
    _truncate_to_records(path, 3)

    resumed = sweep_grid(parameters, _grid_eval, checkpoint=path, resume=True)
    assert resumed == reference


# --- fault campaign ---------------------------------------------------------------------


def test_fault_campaign_interrupted_resume_is_bitwise_identical(tmp_path):
    config = FaultCampaignConfig(
        k=3,
        injection_rate=0.06,
        size_flits=2,
        warmup=20,
        measure=80,
        drain_limit=20_000,
        bers=(2e-3,),
        protocols=("none", "crc"),
        seed=11,
    )
    reference = run_fault_campaign(config)
    path = tmp_path / "fault.jsonl"
    run_fault_campaign(config, checkpoint=path)
    _truncate_to_records(path, 1)  # keep 1 of 2 points

    resumed = run_fault_campaign(config, checkpoint=path, resume=True)
    assert resumed.points == reference.points

    changed = FaultCampaignConfig(
        k=3,
        injection_rate=0.06,
        size_flits=2,
        warmup=20,
        measure=80,
        drain_limit=20_000,
        bers=(2e-3,),
        protocols=("none", "crc"),
        seed=12,  # different seed -> different campaign
    )
    with pytest.raises(CheckpointError, match="different run configuration"):
        run_fault_campaign(changed, checkpoint=path, resume=True)


def _record_trace(path: Path, seed: int) -> None:
    source = build_traffic(
        MeshTopology(3), "bursty", injection_rate=0.08, seed=seed,
        payload_mode="random",
    )
    record_trace(source, 40).save(path)


def test_fault_campaign_resume_refused_across_a_re_recorded_trace(tmp_path):
    """A trace campaign's checkpoint binds the trace's content, not just
    its path: re-recording the trace in place makes it another campaign."""
    trace = tmp_path / "t.trace.json"
    _record_trace(trace, seed=7)
    config = FaultCampaignConfig(
        k=3,
        workload="trace",
        trace_path=str(trace),
        warmup=20,
        measure=80,
        bers=(2e-3,),
        protocols=("none", "crc"),
        seed=11,
    )
    path = tmp_path / "fault.jsonl"
    run_fault_campaign(config, checkpoint=path)
    _truncate_to_records(path, 1)  # keep 1 of 2 points

    _record_trace(trace, seed=8)  # same path, other content
    with pytest.raises(CheckpointError, match="different run configuration"):
        run_fault_campaign(config, checkpoint=path, resume=True)


# --- every driver through the one checkpointed loop -----------------------------------

#: A fault campaign small enough to run several times per test.
SMALL_FAULT = FaultCampaignConfig(
    k=2,
    warmup=10,
    measure=20,
    bers=(1e-3, 1e-2),
    protocols=("none", "crc"),
    seed=5,
)


def _raise(*_args, **_kwargs):
    raise RuntimeError("evaluation failed")


def _raising_run(driver: str, path: Path) -> None:
    with pytest.raises(RuntimeError, match="evaluation failed"):
        if driver == "sweep":
            sweep_grid({"v": [0.0, 1.0, 2.0]}, _raise, checkpoint=path)
        else:
            run_fault_campaign(SMALL_FAULT, checkpoint=path)


@pytest.mark.parametrize("driver", ["sweep", "fault"])
def test_store_closed_when_evaluation_raises(tmp_path, monkeypatch, driver):
    monkeypatch.setattr(fault_campaign, "_evaluate_point", _raise)
    path = tmp_path / "s.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _raising_run(driver, path)
        gc.collect()
    leaked = [
        w
        for w in caught
        if issubclass(w.category, ResourceWarning) and str(path) in str(w.message)
    ]
    assert leaked == []
    assert path.exists()  # the header was written before evaluation raised


def _gate_open(gate: Path) -> bool:
    return (gate / "open").exists()


def _mc_case(gate: Path, monkeypatch):
    n_runs, poison = 8, 5
    real = mc_engine.simulate_dies
    poison_seed = 2013 + poison

    def gated(seeds, *args, **kwargs):
        if poison_seed in seeds and not _gate_open(gate):
            raise RuntimeError("gate closed")
        return real(seeds, *args, **kwargs)

    monkeypatch.setattr(mc_engine, "simulate_dies", gated)

    def run(**kwargs):
        return run_monte_carlo(robust_design(), n_runs=n_runs, **kwargs)

    return run, n_runs, poison, str(poison), lambda r: r.runs


def _sweep_case(gate: Path, monkeypatch):
    evaluate = functools.partial(_gated_eval, gate_dir=str(gate))

    def run(**kwargs):
        return sweep_grid(SWEEP_AXIS, evaluate, **kwargs)

    return run, len(SWEEP_AXIS["swing"]), 2, "2", lambda r: r


def _fault_case(gate: Path, monkeypatch):
    tasks = SMALL_FAULT.tasks()
    poison = 2
    real = fault_campaign._evaluate_point

    def gated(task):
        if task == tasks[poison] and not _gate_open(gate):
            raise RuntimeError("gate closed")
        return real(task)

    monkeypatch.setattr(fault_campaign, "_evaluate_point", gated)

    def run(**kwargs):
        return run_fault_campaign(SMALL_FAULT, **kwargs)

    key = fault_campaign.point_key(*tasks[poison][1:])
    return run, len(tasks), poison, key, lambda r: r.points


@pytest.mark.parametrize(
    "make_case", [_mc_case, _sweep_case, _fault_case], ids=["mc", "sweep", "fault"]
)
def test_quarantined_item_on_resume_reindexed_to_campaign_position(
    tmp_path, monkeypatch, make_case
):
    gate = tmp_path / "gate"
    gate.mkdir()
    (gate / "open").touch()
    run, n_items, poison, poison_key, outcome = make_case(gate, monkeypatch)
    reference = run()
    path = tmp_path / "store.jsonl"

    # First run: only the first record survives the "kill".
    run(checkpoint=path)
    _truncate_to_records(path, 1)

    # Resume with the poison item failing: the executor sees the
    # pending subset, where the poison item sits at poison - 1.
    (gate / "open").unlink()
    resilient = ParallelExecutor(
        resilience=ResilienceConfig(max_retries=0)
    )
    broken = run(executor=resilient, checkpoint=path, resume=True)
    assert [f.index for f in broken.failures] == [poison]

    store = CheckpointStore(path)
    store.load()
    assert poison_key not in store  # the failure was NOT persisted
    assert len(store) == n_items - 1

    # Third run with the fault gone converges to the uninterrupted run.
    (gate / "open").touch()
    resumed = run(checkpoint=path, resume=True)
    assert resumed.failures in ((), [])
    assert outcome(resumed) == outcome(reference)


#: Header ``config_key`` each driver wrote before the drivers shared one
#: checkpointed loop.  A store written then must still resume, so these
#: must never change without a new config ``kind``.
PINNED_CONFIG_KEYS = {
    "mc": "9506c12350dfd9afdcebe6b2c6e1d90006db13016a57fec15d275a10aaa0ae35",
    "sweep_grid": "99a7a4e4f270217d2ad3dfc6749b133c87f0420a1606bb89d4534f24a1324bd6",
    "fault": "b0453207cac19ceb3481d5ed915394de6ad2f355ad28b403a9a1fe27b345b8f5",
    "dse": "bed875a65b1ac581dee6ad71886fceb5ccd9245b927e09635a23d53994a1727c",
}


def _pinned_run(driver: str, path: Path) -> None:
    if driver == "mc":
        run_monte_carlo(robust_design(), n_runs=4, checkpoint=path)
    elif driver == "sweep_grid":
        parameters = {"a": (1.0, 2.0, 3.0), "b": (0.5, 0.25)}
        sweep_grid(parameters, _grid_eval, checkpoint=path)
    elif driver == "dse":
        space = ParamSpace(tuple(continuous(f"x{i}", 0.0, 1.0) for i in range(3)))
        strategy = Nsga2Strategy(population=8, generations=1)
        run_dse(space, Zdt1Evaluator(dimension=3), strategy, checkpoint=path)
    else:
        config = FaultCampaignConfig(
            k=2, warmup=10, measure=20, bers=(1e-3,), protocols=("none",), seed=5
        )
        run_fault_campaign(config, checkpoint=path)


@pytest.mark.parametrize("driver", sorted(PINNED_CONFIG_KEYS))
def test_store_header_config_key_is_pinned(tmp_path, driver):
    path = tmp_path / f"{driver}.jsonl"
    _pinned_run(driver, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["config_key"] == PINNED_CONFIG_KEYS[driver]
