"""Adapter parity and the service CLI.

The adapter contract under test: for every campaign kind, submitting
the expansion, executing every task through ``run_task``, and merging
the payloads yields a result **bitwise identical** (via the canonical
JSON serialization the checkpoint layer also relies on) to the
in-process driver run with the same configuration.  Plus: config
validation fails early, expansions are deterministic, and the CLI
round-trips submit -> status -> results.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.analysis.sweep import sweep_grid
from repro.dse import GridStrategy, SizingEvaluator, run_dse, sizing_space
from repro.errors import ConfigurationError, ServiceError
from repro.fault.campaign import FaultCampaignConfig, run_fault_campaign
from repro.mc.engine import run_monte_carlo
from repro.service import CampaignDB, DESIGNS, GRID_EVALUATORS, get_adapter
from repro.service.cli import main as cli_main

FAULT_CONFIG = {
    "bers": [1e-3, 1e-2],
    "protocols": ["none", "crc"],
    "k": 2,
    "warmup": 20,
    "measure": 60,
    "seed": 7,
}


def run_campaign(adapter, config):
    """Execute every expanded task in-process and merge — the adapter
    round-trip without the queue (worker integration is tested in
    test_service_workers.py)."""
    payloads = {
        t.key: json.loads(json.dumps(adapter.run_task(config, t.spec)))
        for t in adapter.expand(config)
    }
    return adapter.merge(config, payloads)


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# --- parity against the in-process drivers --------------------------------------------


def test_monte_carlo_parity():
    adapter = get_adapter("monte_carlo")
    config = adapter.canonical_config(
        {"design": "robust", "n_runs": 8, "base_seed": 99, "block_size": 3}
    )
    merged = run_campaign(adapter, config)
    reference = run_monte_carlo(DESIGNS["robust"](), n_runs=8, base_seed=99)
    assert canon([asdict(r) for r in merged.runs]) == canon(
        [asdict(r) for r in reference.runs]
    )


def test_sweep_grid_parity():
    adapter = get_adapter("sweep_grid")
    parameters = {"x": [0.0, 1.0, 2.0], "y": [1.5, 2.5]}
    config = adapter.canonical_config(
        {"parameters": parameters, "evaluator": "poly"}
    )
    merged = run_campaign(adapter, config)
    reference = sweep_grid(parameters, GRID_EVALUATORS["poly"])
    assert merged.parameters == reference.parameters
    assert canon(merged.points) == canon(reference.points)
    assert canon(merged.metrics) == canon(reference.metrics)


def test_fault_campaign_parity():
    adapter = get_adapter("fault")
    config = adapter.canonical_config(FAULT_CONFIG)
    merged = run_campaign(adapter, config)
    reference = run_fault_campaign(adapter._config(config))
    assert canon([asdict(p) for p in merged.points]) == canon(
        [asdict(p) for p in reference.points]
    )


def test_dse_batch_merges_in_submission_order():
    adapter = get_adapter("dse_batch")
    config = adapter.canonical_config(
        {
            "evaluator": "zdt1",
            "evaluator_kwargs": {"dimension": 2},
            "candidates": [{"x0": 0.1, "x1": 0.2}, {"x0": 0.9, "x1": 0.4}],
            "base_seed": 5,
        }
    )
    records = run_campaign(adapter, config)
    assert [r.params for r in records] == config["candidates"]
    assert [r.index for r in records] == [0, 1]
    assert all(r.feasible for r in records)
    assert records[0].objectives["f1"] == pytest.approx(0.1)


def test_dse_batch_records_equal_run_dse_records():
    """Service-evaluated candidates are the engine's own records: same
    key, params, seed, feasibility, objectives and rejection reason."""
    reference = run_dse(
        sizing_space(), SizingEvaluator(mc_runs=0), GridStrategy(levels=2),
        base_seed=5,
    )
    assert any(not r.feasible for r in reference.records)
    adapter = get_adapter("dse_batch")
    config = adapter.canonical_config(
        {
            "evaluator": "sizing",
            "evaluator_kwargs": {"mc_runs": 0},
            "candidates": [r.params for r in reference.records],
            "base_seed": 5,
        }
    )
    fields = ("key", "params", "seed", "feasible", "objectives", "reason")
    assert [
        {f: getattr(r, f) for f in fields} for r in run_campaign(adapter, config)
    ] == [{f: getattr(r, f) for f in fields} for r in reference.records]


def test_merge_refuses_partial_payloads():
    adapter = get_adapter("sweep_grid")
    config = adapter.canonical_config(
        {"parameters": {"x": [0.0, 1.0]}, "evaluator": "poly"}
    )
    tasks = adapter.expand(config)
    payloads = {tasks[0].key: adapter.run_task(config, tasks[0].spec)}
    with pytest.raises(ServiceError, match="incomplete"):
        adapter.merge(config, payloads)


# --- canonicalization and validation --------------------------------------------------


def test_canonical_config_fills_defaults_deterministically():
    adapter = get_adapter("monte_carlo")
    a = adapter.canonical_config({"n_runs": 4})
    b = adapter.canonical_config({"n_runs": 4, "design": "robust"})
    assert canon(a) == canon(b)  # defaults == spelled-out defaults
    assert a["pattern"]  # the paper's stress pattern, made explicit


def test_expansion_is_deterministic():
    adapter = get_adapter("fault")
    config = adapter.canonical_config(FAULT_CONFIG)
    assert adapter.expand(config) == adapter.expand(config)


#: (kind, config, the field its refusal names).  These configs once
#: raised ValueError, TypeError or AttributeError, or were accepted.
NAMED_REFUSALS = [
    ("monte_carlo", {"n_runs": "abc"}, "n_runs"),
    ("monte_carlo", {"n_runs": 4.7}, "n_runs"),
    ("monte_carlo", {"base_seed": 1.5}, "base_seed"),
    ("monte_carlo", {"bit_period": "x"}, "bit_period"),
    ("monte_carlo", {"bit_period": float("nan")}, "bit_period"),
    ("monte_carlo", {"pattern": []}, "pattern"),
    ("monte_carlo", {"local_enabled": "no"}, "local_enabled"),
    ("monte_carlo", {"design_kwargs": [1]}, "design_kwargs"),
    ("monte_carlo", {"design_kwargs": {"bogus": 1}}, "design_kwargs"),
    ("monte_carlo", {"block_size": "x"}, "block_size"),
    ("sweep_grid", {"parameters": {"x": 1.0}, "evaluator": "poly"},
     "parameters"),
    ("sweep_grid", {"parameters": {"x": ["a"]}, "evaluator": "poly"},
     "parameters"),
    ("sweep_grid", {"parameters": {"x": [float("nan")]}, "evaluator": "poly"},
     "parameters"),
    ("dse_batch", {"evaluator": "zdt1", "candidates": [1]}, "candidates"),
    ("dse_batch", {"evaluator": "zdt1", "candidates": [{"a": "x"}]},
     "candidates"),
    ("dse_batch", {"evaluator": "zdt1", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"zzz": 1}}, "evaluator_kwargs"),
    ("dse_batch", {"evaluator": "zdt1", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": [1]}, "evaluator_kwargs"),
    ("dse_batch", {"evaluator": "zdt1", "candidates": [{"x0": 0.1}],
                   "base_seed": 1.5}, "base_seed"),
    ("fault", {"k": "4"}, "k must"),
    ("fault", {"bers": 0.001}, "bers"),
    ("fault", {"bers": ["x"]}, "bers"),
    ("fault", {"k": 4.5}, "k must"),
    ("fault", {"seed": 1.5}, "seed"),
    ("fault", {"coupling": "no"}, "coupling"),
    ("dse_batch", {"evaluator": "sizing", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"mc_runs": "x"}}, "mc_runs"),
    ("dse_batch", {"evaluator": "sizing", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"mc_runs": -3}}, "mc_runs"),
    ("dse_batch", {"evaluator": "sizing", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"bit_period": 0.0}}, "bit_period"),
    ("dse_batch", {"evaluator": "zdt1", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"dimension": 0}}, "dimension"),
    ("dse_batch", {"evaluator": "fig8", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"max_error_probability": 7.0}},
     "max_error_probability"),
    ("dse_batch", {"evaluator": "fig8", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"activity": 0.0}}, "activity"),
    ("dse_batch", {"evaluator": "fig8", "candidates": [{"x0": 0.1}],
                   "evaluator_kwargs": {"data_rate": -1.0}}, "data_rate"),
]


@pytest.mark.parametrize(
    "kind, bad",
    [
        ("monte_carlo", {"design": "nope"}),
        ("monte_carlo", {"n_runs": 0}),
        ("monte_carlo", {"block_size": 0}),
        ("sweep_grid", {"parameters": {"x": [1.0]}, "evaluator": "nope"}),
        ("sweep_grid", {"parameters": {}, "evaluator": "poly"}),
        ("dse_batch", {"evaluator": "nope", "candidates": [{"x0": 0.1}]}),
        ("dse_batch", {"evaluator": "zdt1", "candidates": []}),
        ("monte_carlo", {"bit_period": 0.0}),
        ("monte_carlo", {"pattern": [0, 1, 2]}),
        ("sweep_grid", {"parameters": {"x": [1.0]}, "evaluator": "poly",
                        "evaluater_kwargs": {"a": 1}}),
        ("dse_batch", {"evaluator": "zdt1", "candidates": [{"x0": 0.1}],
                       "base_sed": 1}),
        ("fault", {"berz": [0.001]}),
        *((kind, bad) for kind, bad, _field in NAMED_REFUSALS),
    ],
)
def test_invalid_configs_fail_at_submit_time(kind, bad):
    with pytest.raises(ConfigurationError):
        get_adapter(kind).canonical_config(bad)


@pytest.mark.parametrize("kind, bad, field", NAMED_REFUSALS)
def test_refusal_names_the_field(kind, bad, field):
    with pytest.raises(ConfigurationError, match=field):
        get_adapter(kind).canonical_config(bad)


def test_fault_datapath_is_checked_at_submit_time():
    adapter = get_adapter("fault")
    with pytest.raises(ConfigurationError, match="datapath must be one of"):
        adapter.canonical_config({"datapath": "bogus"})
    assert adapter.canonical_config({"datapath": "full_swing"})["datapath"] == (
        "full_swing"
    )


def test_unknown_kind_raises():
    with pytest.raises(ServiceError, match="unknown campaign kind"):
        get_adapter("nope")


# --- the CLI --------------------------------------------------------------------------


@pytest.fixture()
def cli_db(tmp_path):
    return str(tmp_path / "svc.sqlite")


def cli(db, *argv):
    return cli_main(["--db", db, *argv])


def test_cli_submit_status_results(cli_db, tmp_path, capsys):
    grid = {"parameters": {"x": [0.0, 3.0]}, "evaluator": "poly"}
    assert cli(cli_db, "submit", "--name", "g", "--kind", "sweep_grid",
               "--config", json.dumps(grid)) == 0
    out = capsys.readouterr().out
    assert "created campaign 'g'" in out and "2 tasks" in out

    # Resubmit: idempotent attach, not an error.
    assert cli(cli_db, "submit", "--name", "g", "--kind", "sweep_grid",
               "--config", json.dumps(grid)) == 0
    assert "attached to campaign 'g'" in capsys.readouterr().out

    # Incomplete: results exits 1 and says what's missing.
    assert cli(cli_db, "results", "--name", "g") == 1
    assert "incomplete: 0/2" in capsys.readouterr().err

    # Drain it in-process, then results merges and summarizes.
    from repro.service import run_worker

    run_worker(cli_db, worker_id="w0", drain=True, lease_seconds=30.0)
    assert cli(cli_db, "results", "--name", "g") == 0
    assert "2 grid cells over x" in capsys.readouterr().out

    assert cli(cli_db, "status") == 0
    out = capsys.readouterr().out
    assert "COMPLETE" in out
    assert "w0" in out  # worker heartbeat row

    # A config file (not inline JSON) also works.
    cfg_file = tmp_path / "grid.json"
    cfg_file.write_text(json.dumps({"parameters": {"x": [5.0]},
                                    "evaluator": "poly"}))
    assert cli(cli_db, "submit", "--name", "g2", "--kind", "sweep_grid",
               "--config", str(cfg_file)) == 0


def test_cli_mismatched_resubmit_is_an_error_not_a_traceback(cli_db, capsys):
    grid = {"parameters": {"x": [0.0]}, "evaluator": "poly"}
    assert cli(cli_db, "submit", "--name", "g", "--kind", "sweep_grid",
               "--config", json.dumps(grid)) == 0
    capsys.readouterr()
    changed = {"parameters": {"x": [1.0]}, "evaluator": "poly"}
    assert cli(cli_db, "submit", "--name", "g", "--kind", "sweep_grid",
               "--config", json.dumps(changed)) == 2
    assert "refusing to attach" in capsys.readouterr().err


def test_cli_retry_failed_and_status_cache(cli_db, tmp_path, capsys):
    grid = {"parameters": {"x": [0.0]}, "evaluator": "poly"}
    assert cli(cli_db, "submit", "--name", "g", "--kind", "sweep_grid",
               "--config", json.dumps(grid)) == 0
    # Park the row as failed directly, then requeue it via the CLI.
    with CampaignDB(cli_db) as db:
        [task] = db.lease("w0", now=100.0)
        db.fail("w0", task.campaign_id, task.task_key, "boom", max_attempts=1)
    capsys.readouterr()
    assert cli(cli_db, "retry-failed", "--name", "g") == 0
    assert "requeued 1 failed task" in capsys.readouterr().out

    # status --cache shows on-disk ResultCache stats.
    cache_dir = tmp_path / "cache"
    assert cli(cli_db, "status", "--cache", str(cache_dir)) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cli_status_surfaces_put_errors(cli_db, capsys):
    with CampaignDB(cli_db) as db:
        db.record_worker("w0", cache_put_errors=3)
    assert cli(cli_db, "status") == 0
    out = capsys.readouterr().out
    assert "3 failed cache write(s)" in out
