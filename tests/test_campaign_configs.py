"""Every campaign kind's stored config, pinned.

A service campaign is identified by the content hash (``config_key``)
of the canonical config its adapter stores at submit; the in-process
Monte Carlo driver is identified by its campaign key and checkpoint
header.  A stored campaign or checkpoint must keep attaching and
resuming, so these tests pin, for representative submit configs of
each kind, the stored canonical config and its ``config_key``; the
``run_monte_carlo`` campaign key and header for default arguments; and
``scripts/run_dse.py``'s option table (help wording is free to change).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from repro.circuit.srlr import robust_design
from repro.mc import engine
from repro.noc import MeshTopology, record_trace
from repro.service import CampaignDB
from repro.service.cli import main as service_main
from repro.workload import build_traffic

REPO = Path(__file__).resolve().parent.parent

#: The paper's stress pattern: PRBS7 traffic plus the '11110' stressors.
STRESS_PATTERN = [
    0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0,
    1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1,
    1, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0,
    1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1,
    0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0,
    1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0,
]

#: Relative to the test's working directory, so the stored path (and
#: with it the config_key) does not depend on where the test runs.
TRACE_PATH = "pinned.trace.json"

#: (kind, submitted JSON config): defaults only, every key given, a
#: float field given as a JSON int, and one more per kind.
SUBMIT_CONFIGS = [
    ("monte_carlo", {}),
    ("monte_carlo", {
        "design": "straightforward", "design_kwargs": {"nominal_swing": 0.3},
        "n_runs": 12, "base_seed": 5, "bit_period": 2.5e-10,
        "local_enabled": False, "pattern": [1, 0, 1, 1, 0], "block_size": 4,
    }),
    ("monte_carlo", {"n_runs": 8, "bit_period": 1}),
    ("monte_carlo", {"n_runs": 3, "pattern": None, "block_size": 1}),
    ("sweep_grid", {"parameters": {"x": [0.5]}, "evaluator": "poly"}),
    ("sweep_grid", {
        "parameters": {"x": [0.0, 1.5], "y": [2.5]}, "evaluator": "poly",
    }),
    ("sweep_grid", {"parameters": {"x": [1, 2]}, "evaluator": "poly"}),
    ("sweep_grid", {
        "parameters": {"nominal_swing": [0.26, 0.3]}, "evaluator": "srlr_energy",
    }),
    ("dse_batch", {
        "evaluator": "zdt1",
        "candidates": [{"x0": 0.1, "x1": 0.2, "x2": 0.3, "x3": 0.4}],
    }),
    ("dse_batch", {
        "evaluator": "zdt1", "evaluator_kwargs": {"dimension": 2},
        "candidates": [{"x0": 0.1, "x1": 0.2}, {"x0": 0.9, "x1": 0.4}],
        "base_seed": 5,
    }),
    ("dse_batch", {
        "evaluator": "zdt1", "evaluator_kwargs": {"dimension": 2},
        "candidates": [{"x0": 0, "x1": 1}],
    }),
    ("dse_batch", {
        "evaluator": "sizing", "evaluator_kwargs": {"mc_runs": 0},
        "candidates": [{"m1_width_um": 4.0, "m2_width_um": 0.2,
                        "nominal_swing": 0.3, "driver_scale": 1.0}],
        "base_seed": 0,
    }),
    ("fault", {}),
    ("fault", {
        "topology": "torus", "k": 3, "concentration": 1, "chiplets_x": 1,
        "chiplets_y": 1, "noi_scale": 2.0, "injection_rate": 0.08,
        "pattern": "transpose", "size_flits": 3, "warmup": 50, "measure": 200,
        "drain_limit": 5000, "stall_window": 300, "bers": [1e-5, 1e-3],
        "protocols": ["crc", "none"], "flit_bits": 32, "datapath": "full_swing",
        "seed": 11, "engine": "reference", "multicast_fraction": 0.0,
        "multicast_degree": 4, "workload": "bursty", "trace_path": None,
        "burst_on": 0.1, "burst_off": 0.3, "collective_fraction": 0.25,
        "collective": "row", "payload_mode": "random", "coupling": False,
    }),
    ("fault", {
        "topology": "chiplet", "k": 2, "chiplets_x": 2, "chiplets_y": 1,
        "noi_scale": 3, "bers": [0, 1], "protocols": ["none"],
    }),
    ("fault", {
        "k": 3, "bers": [1e-3], "protocols": ["none"], "workload": "trace",
        "trace_path": TRACE_PATH,
    }),
]

#: What the monte_carlo and fault adapters store for an empty config.
MC_DEFAULTS = {
    "base_seed": 2013, "bit_period": 2.439024390243902e-10, "block_size": 16,
    "design": "robust", "design_kwargs": {}, "local_enabled": True,
    "n_runs": 1000, "pattern": STRESS_PATTERN,
}
FAULT_DEFAULTS = {
    "bers": [1e-06, 0.0001, 0.001, 0.01], "burst_off": 0.15, "burst_on": 0.05,
    "chiplets_x": 1, "chiplets_y": 1, "collective": "row",
    "collective_fraction": 0.25, "concentration": 1, "coupling": True,
    "datapath": "srlr", "drain_limit": 20000, "engine": "fast", "flit_bits": 64,
    "injection_rate": 0.05, "k": 4, "measure": 400, "multicast_degree": 4,
    "multicast_fraction": 0.0, "noi_scale": 2.0, "pattern": "uniform",
    "payload_mode": "constant", "protocols": ["none", "crc", "e2e", "reroute"],
    "seed": 7, "size_flits": 2, "stall_window": 500, "topology": "mesh",
    "trace_path": None, "warmup": 100, "workload": "synthetic",
}

#: The stored canonical config and config_key of each SUBMIT_CONFIGS
#: entry, recorded before the configs became dataclasses.
PINNED = [
    (
        MC_DEFAULTS,
        "5d40c97bc1490a9a1585a5f217e0cacdfb5e1dd022c25b459e649c410b11a4af",
    ),
    (
        {"base_seed": 5, "bit_period": 2.5e-10, "block_size": 4,
         "design": "straightforward", "design_kwargs": {"nominal_swing": 0.3},
         "local_enabled": False, "n_runs": 12, "pattern": [1, 0, 1, 1, 0]},
        "f6d7d36dff2a587598b23f4e060431072f422ec4cd3e652f0b966aec9b15f184",
    ),
    (
        {**MC_DEFAULTS, "bit_period": 1, "n_runs": 8},
        "536b05edb9c989c8015c0d70fa13d296de799dabf4ff7b19b5011d18c4376b9a",
    ),
    (
        {**MC_DEFAULTS, "block_size": 1, "n_runs": 3},
        "44d525bbf5352ea4a6380d012da6bfcffb885d17408e987180ef6289dbe137d1",
    ),
    (
        {"evaluator": "poly", "parameters": {"x": [0.5]}},
        "3a650886ea6c4938cfacb7ff00889c7a38f6dc72c6366e7bd0d0d42be35094e2",
    ),
    (
        {"evaluator": "poly", "parameters": {"x": [0.0, 1.5], "y": [2.5]}},
        "38a0462c4c0d2ecd33c1887b097c24022adbe5087274f06af8e224bf2cb81380",
    ),
    (
        {"evaluator": "poly", "parameters": {"x": [1.0, 2.0]}},
        "1352fa173f4db542c374a304085191b43e7ad8b1e492153a1df8de4e4dc03bb2",
    ),
    (
        {"evaluator": "srlr_energy", "parameters": {"nominal_swing": [0.26, 0.3]}},
        "c0118bc96c1676f5dae08656f0c62b3faff5e1878c0649299b6a1a6f9680add6",
    ),
    (
        {"base_seed": 2013, "evaluator": "zdt1", "evaluator_kwargs": {},
         "candidates": [{"x0": 0.1, "x1": 0.2, "x2": 0.3, "x3": 0.4}]},
        "7f75825892df70f7e2980beefddf984b3b2cb095b6445a2ee28ac0a24b24d358",
    ),
    (
        {"base_seed": 5, "evaluator": "zdt1", "evaluator_kwargs": {"dimension": 2},
         "candidates": [{"x0": 0.1, "x1": 0.2}, {"x0": 0.9, "x1": 0.4}]},
        "cdd8384f2d8ec29dddbedf38d6d8bf404cecc20cfeeea27ac173145d00bce075",
    ),
    (
        {"base_seed": 2013, "evaluator": "zdt1",
         "evaluator_kwargs": {"dimension": 2},
         "candidates": [{"x0": 0.0, "x1": 1.0}]},
        "08dadb3b393b774762344cc8f27acbcc0d06530c2aa054a3fc47579d9b670a88",
    ),
    (
        {"base_seed": 0, "evaluator": "sizing", "evaluator_kwargs": {"mc_runs": 0},
         "candidates": [{"driver_scale": 1.0, "m1_width_um": 4.0,
                         "m2_width_um": 0.2, "nominal_swing": 0.3}]},
        "157ab96b52b88b2e9734d0d0ec5851bae291ecfb9bd82a5546e3e8c0883f6e97",
    ),
    (
        FAULT_DEFAULTS,
        "e8b1abc3ec43009490048dace53996c1c9311ec14a72cb0a1e2aa5a1e205686c",
    ),
    (
        {**SUBMIT_CONFIGS[13][1], "bers": [1e-05, 0.001]},
        "f9e52b3ff0654a0610b20a8c8007a06f2eddf2b17b1388138446a04d2d084259",
    ),
    (
        {**FAULT_DEFAULTS, "bers": [0, 1], "chiplets_x": 2, "k": 2,
         "noi_scale": 3, "protocols": ["none"], "topology": "chiplet"},
        "c47bcf745adbc7eaf73a8bfe5091666ef94da11a5ef17cfa72d927c2f078e4cd",
    ),
    (
        {**FAULT_DEFAULTS, "bers": [0.001], "k": 3, "protocols": ["none"],
         "trace_hash":
             "120cc925abd9264c5639838ed1e013045a4a1e29e4f3dddc0cd938ae50c273e4",
         "trace_path": TRACE_PATH, "workload": "trace"},
        "cd03e1a72fb55f7a5b6850478dba70e96448cd1ef60923029935fcf7b6d57927",
    ),
]


def submit(db_path: Path, kind: str, config: dict) -> tuple[dict, str]:
    """Submit ``config`` through the service CLI; the stored config and
    its ``config_key``."""
    rc = service_main([
        "--db", str(db_path), "submit", "--name", "c", "--kind", kind,
        "--config", json.dumps(config),
    ])
    assert rc == 0
    with CampaignDB(db_path) as db:
        _id, _kind, stored = db.campaign("c")
        key = db.status("c")[0].config_key
    return stored, key


@pytest.fixture()
def pinned_trace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    source = build_traffic(
        MeshTopology(3), "bursty", injection_rate=0.08, seed=7,
        payload_mode="random",
    )
    record_trace(source, 40).save(Path(TRACE_PATH))


@pytest.mark.parametrize(
    "case", range(len(SUBMIT_CONFIGS)),
    ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(SUBMIT_CONFIGS)],
)
def test_submit_stores_pinned_config(tmp_path, pinned_trace, case):
    kind, config = SUBMIT_CONFIGS[case]
    stored, key = submit(tmp_path / "svc.sqlite", kind, config)
    assert (stored, key) == PINNED[case]


def test_run_monte_carlo_campaign_key_and_header(tmp_path, monkeypatch):
    """Default arguments, stopped once the key is known and the store's
    header is written (no die runs)."""

    class Stop(Exception):
        pass

    keys = []

    class KeyCache:
        def get(self, key):
            keys.append(key)
            raise Stop

    with pytest.raises(Stop):
        engine.run_monte_carlo(robust_design(), cache=KeyCache())
    assert keys == [MC_CAMPAIGN_KEY]

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(engine, "run_checkpointed", stop)
    path = tmp_path / "mc.jsonl"
    with pytest.raises(Stop):
        engine.run_monte_carlo(robust_design(), checkpoint=path)
    header = json.loads(path.read_text().splitlines()[0])
    del header["git"]  # provenance of the checkout, not the campaign
    assert header == MC_HEADER


MC_CAMPAIGN_KEY = (
    "1edd18e4c071cc44ec6454329cdcd480f4de1b34d3552a993b009b4c0bc4fd66"
)
MC_HEADER = {
    "config": {"campaign": MC_CAMPAIGN_KEY, "kind": "run_monte_carlo/v1"},
    "config_key":
        "f647e155402682c8f696eeed452dce74cf1558df92f4f21e6de4b344a844df8e",
    "kind": "header",
    "version": 1,
}


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: option (the dest for the positional) -> (dest, type, default, choices).
RUN_DSE_TABLE = {
    "study": ("study", None, "fig8", ["fig8", "sizing"]),
    "--strategy": ("strategy", None, "nsga2", ["grid", "lhs", "nsga2"]),
    "--jobs": ("jobs", "int", 1, None),
    "--seed": ("seed", "int", 2013, None),
    "--population": ("population", "int", 16, None),
    "--generations": ("generations", "int", 6, None),
    "--levels": ("levels", "int", 4, None),
    "--samples": ("samples", "int", 48, None),
    "--mc-runs": ("mc_runs", "int", None, None),
    "--store": ("store", "Path", None, None),
    "--no-store": ("no_store", None, False, None),
    "--resume": ("resume", None, False, None),
    "--fresh": ("fresh", None, False, None),
    "--cache": ("cache", "Path", None, None),
}


def test_run_dse_options(monkeypatch):
    captured = []
    real_parse = argparse.ArgumentParser.parse_args

    def capture(self, *args, **kwargs):
        captured.append(self)
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    _load_script("run_dse").parse_args([])
    monkeypatch.undo()
    table = {
        (action.option_strings or [action.dest])[0]: (
            action.dest,
            getattr(action.type, "__name__", None),
            action.default,
            None if action.choices is None else list(action.choices),
        )
        for action in captured[0]._actions
        if not isinstance(action, argparse._HelpAction)
    }
    assert table == RUN_DSE_TABLE
