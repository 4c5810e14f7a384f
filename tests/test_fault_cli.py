"""Both fault-campaign command lines, pinned.

``scripts/run_fault_campaign.py`` takes every campaign parameter as a
flag; ``service.py submit`` takes the topology and workload fields as
overlays on a JSON config.  These tests pin what a user of either sees:
each option's dest, type, nargs, choices and effective default, the
config hash of representative argument sets, the config (and
``config_key``) a submit stores, and the refusal of overlay flags on a
campaign kind that is not ``fault``.  Help wording is free to change.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.fault import FaultCampaignConfig
from repro.noc import MeshTopology, record_trace
from repro.runtime import ResilienceConfig
from repro.service import ADAPTERS, CampaignDB, get_adapter
from repro.service.cli import _overlay_fault_flags, build_parser
from repro.service.cli import main as service_main
from repro.workload import build_traffic

REPO = Path(__file__).resolve().parent.parent

CONFIG_FIELDS = {f.name for f in fields(FaultCampaignConfig)}

#: The two flags not named ``--<field>``.
RENAMED = {"--rate": "injection_rate", "--no-coupling": "coupling"}


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rfc = _load_script("run_fault_campaign")


def _field(option: str) -> str:
    return RENAMED.get(option, option[2:].replace("-", "_"))


def option_table(parser: argparse.ArgumentParser, effective_default) -> dict:
    """option string -> (dest, type, nargs, choices, effective default)."""
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        option = action.option_strings[0]
        table[option] = (
            action.dest,
            getattr(action.type, "__name__", None),
            action.nargs,
            None if action.choices is None else list(action.choices),
            effective_default(option, action),
        )
    return table


def campaign_default(option: str, action: argparse.Action):
    """A config flag's effective default is the value its field takes
    when the flag is left off; any other flag's is its parser default."""
    if _field(option) in CONFIG_FIELDS:
        return getattr(rfc.build_config(rfc.parse_args([])), _field(option))
    return action.default


SUBMIT_ARGS = ["--name", "n", "--kind", "fault", "--config", "{}"]


def submit_parser() -> argparse.ArgumentParser:
    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices["submit"]


def submit_default(option: str, action: argparse.Action):
    """An overlay flag left off overlays nothing: the JSON's value (or
    the dataclass default filled in by the adapter) stands."""
    if _field(option) in CONFIG_FIELDS:
        args = submit_parser().parse_args(SUBMIT_ARGS)
        return _overlay_fault_flags(args, {}).get(_field(option), "<unset>")
    return action.default


CAMPAIGN_TABLE = {
    "--k": ("k", "int", None, None, 4),
    "--topology": (
        "topology", None, None, ["chiplet", "cmesh", "mesh", "torus"], "mesh"
    ),
    "--concentration": ("concentration", "int", None, None, 1),
    "--chiplets-x": ("chiplets_x", "int", None, None, 1),
    "--chiplets-y": ("chiplets_y", "int", None, None, 1),
    "--noi-scale": ("noi_scale", "float", None, None, 2.0),
    "--rate": ("rate", "float", None, None, 0.05),
    "--pattern": ("pattern", None, None, None, "uniform"),
    "--size-flits": ("size_flits", "int", None, None, 2),
    "--warmup": ("warmup", "int", None, None, 100),
    "--measure": ("measure", "int", None, None, 400),
    "--drain-limit": ("drain_limit", "int", None, None, 20000),
    "--bers": ("bers", "float", "+", None, (1e-06, 0.0001, 0.001, 0.01)),
    "--protocols": (
        "protocols", None, "+", ["none", "crc", "e2e", "reroute"],
        ("none", "crc", "e2e", "reroute"),
    ),
    "--datapath": ("datapath", None, None, ["srlr", "full_swing"], "srlr"),
    "--engine": ("engine", None, None, ["fast", "reference"], "fast"),
    "--multicast-fraction": ("multicast_fraction", "float", None, None, 0.0),
    "--multicast-degree": ("multicast_degree", "int", None, None, 4),
    "--workload": (
        "workload", None, None, ["bursty", "collective", "synthetic", "trace"],
        "synthetic",
    ),
    "--trace-path": ("trace_path", None, None, None, None),
    "--burst-on": ("burst_on", "float", None, None, 0.05),
    "--burst-off": ("burst_off", "float", None, None, 0.15),
    "--collective-fraction": ("collective_fraction", "float", None, None, 0.25),
    "--collective": ("collective", None, None, ["col", "random", "row"], "row"),
    "--payload-mode": (
        "payload_mode", None, None, ["constant", "random", "worst_case"],
        "constant",
    ),
    "--no-coupling": ("no_coupling", None, 0, None, True),
    "--jobs": ("jobs", "int", None, None, 1),
    "--seed": ("seed", "int", None, None, 7),
    "--smoke": ("smoke", None, 0, None, False),
    "--checkpoint": ("checkpoint", None, None, None, None),
    "--resume": ("resume", None, 0, None, False),
    "--task-timeout": ("task_timeout", "float", None, None, None),
    "--retries": ("retries", "int", None, None, None),
}

SUBMIT_TABLE = {
    "--name": ("name", None, None, None, None),
    "--kind": ("kind", None, None, sorted(ADAPTERS), None),
    "--config": ("config", None, None, None, None),
    "--topology": (
        "topology", None, None, ["chiplet", "cmesh", "mesh", "torus"],
        "<unset>",
    ),
    "--concentration": ("concentration", "int", None, None, "<unset>"),
    "--chiplets-x": ("chiplets_x", "int", None, None, "<unset>"),
    "--chiplets-y": ("chiplets_y", "int", None, None, "<unset>"),
    "--noi-scale": ("noi_scale", "float", None, None, "<unset>"),
    "--workload": (
        "workload", None, None, ["bursty", "collective", "synthetic", "trace"],
        "<unset>",
    ),
    "--trace-path": ("trace_path", None, None, None, "<unset>"),
    "--burst-on": ("burst_on", "float", None, None, "<unset>"),
    "--burst-off": ("burst_off", "float", None, None, "<unset>"),
    "--collective-fraction": (
        "collective_fraction", "float", None, None, "<unset>"
    ),
    "--collective": (
        "collective", None, None, ["col", "random", "row"], "<unset>"
    ),
    "--payload-mode": (
        "payload_mode", None, None, ["constant", "random", "worst_case"],
        "<unset>",
    ),
    "--no-coupling": ("no_coupling", None, 0, None, "<unset>"),
}


def test_run_fault_campaign_options(monkeypatch):
    # parse_args builds its parser inline; catch it on the way through.
    captured = []
    real_parse = argparse.ArgumentParser.parse_args

    def capture(self, *args, **kwargs):
        captured.append(self)
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    rfc.parse_args([])
    monkeypatch.undo()
    assert option_table(captured[0], campaign_default) == CAMPAIGN_TABLE


def test_submit_options():
    table = option_table(submit_parser(), submit_default)
    assert table == SUBMIT_TABLE
    # The overlay refusal names flags in this declaration order.
    assert list(table) == list(SUBMIT_TABLE)


#: argv -> content_hash() of build_config(parse_args(argv)), recorded
#: before the flags were generated from FaultCampaignConfig.
CAMPAIGN_HASHES = {
    (): "83f27c7497ba76bd324944dc3181fb0a3aa54af0e68e5fbabfefd090e8d7b49e",
    ("--smoke",):
        "820b2f306e132c03d696f79fdf17c631557e95bd6218bad5aad7965ba9f06f76",
    ("--smoke", "--jobs", "2"):
        "820b2f306e132c03d696f79fdf17c631557e95bd6218bad5aad7965ba9f06f76",
    ("--k", "3", "--rate", "0.08", "--pattern", "transpose",
     "--size-flits", "3", "--warmup", "50", "--measure", "200",
     "--drain-limit", "5000", "--seed", "11"):
        "e77cd6f03565a35249c323d892e7bc0fd5108845e5221e9caacaf5bf37ebdac0",
    ("--bers", "1e-5", "1e-3", "--protocols", "crc", "none",
     "--datapath", "full_swing", "--engine", "reference"):
        "6af69cd0d77cfbad06e78eb372415b50727dc8c3bfdae1abd854c3ae8e47603b",
    ("--smoke", "--topology", "torus", "--k", "3"):
        "108c56a823dd238681e19604658132ec3fd8fd25d5644cc74ff65a2e73f788d6",
    ("--topology", "cmesh", "--concentration", "4"):
        "c462a1fc7c83974497a332a2ef99b160a7376886c360aaa689092b150a8fe32b",
    ("--topology", "chiplet", "--k", "2", "--chiplets-x", "2",
     "--chiplets-y", "3", "--noi-scale", "3.0"):
        "2931939c2256a1bec3a3223b63246486d8d2cd796597568a439886cfea2475f9",
    # The CI chiplet smoke.
    ("--smoke", "--topology", "chiplet", "--chiplets-x", "2",
     "--chiplets-y", "2", "--protocols", "none", "crc"):
        "7c32bee723120358601479297c570b945ddfc8c04ac38885b8d9fcc9a8ebd375",
    ("--multicast-fraction", "0.2", "--multicast-degree", "3",
     "--engine", "reference"):
        "1320bfb0f67bce267f5842e5cb6ffc60ed63ccc33e253ddc20e6f43ef69b40ab",
    ("--workload", "bursty", "--burst-on", "0.1", "--burst-off", "0.3",
     "--payload-mode", "random", "--no-coupling"):
        "20f3408c5b8d8f2568526cdeedeea2f08433577540c10aab49d10193ddac85ba",
    # The CI data-dependent smoke.
    ("--smoke", "--workload", "bursty", "--payload-mode", "random",
     "--protocols", "none", "crc"):
        "2015bc5a64da80eaa7b7b74771547e25b7bfcea8be2bf9d004f7754ef2e57f52",
    ("--workload", "collective", "--collective-fraction", "0.5",
     "--collective", "col"):
        "ad9388a7097fe896a620d9e7637dc0da01fe9d3c895f44eedfcd3e8619d18bfa",
    # --smoke overrides the traffic shape, the windows and the BER grid.
    ("--smoke", "--pattern", "transpose", "--size-flits", "4",
     "--drain-limit", "100", "--k", "5", "--rate", "0.2", "--bers", "0.5"):
        "820b2f306e132c03d696f79fdf17c631557e95bd6218bad5aad7965ba9f06f76",
    ("--payload-mode", "worst_case", "--no-coupling", "--jobs", "2",
     "--checkpoint", "c.jsonl", "--resume", "--task-timeout", "30",
     "--retries", "1"):
        "c00e7fe2fc72809f6bf098c6724bc8c3934d6048a17cc67b9efd0ace4ffdd302",
}


@pytest.mark.parametrize("argv", list(CAMPAIGN_HASHES), ids=str)
def test_run_fault_campaign_config_hash(argv):
    config = rfc.build_config(rfc.parse_args(list(argv)))
    assert config.content_hash() == CAMPAIGN_HASHES[argv]


def test_run_fault_campaign_non_config_flags():
    args = rfc.parse_args([
        "--jobs", "2", "--checkpoint", "c.jsonl", "--resume",
        "--task-timeout", "30", "--retries", "1",
    ])
    assert (args.jobs, args.checkpoint, args.resume) == (2, "c.jsonl", True)
    assert rfc.build_resilience(args) == ResilienceConfig(
        timeout=30.0, max_retries=1
    )
    assert rfc.build_resilience(rfc.parse_args([])) is None
    with pytest.raises(SystemExit):
        rfc.parse_args(["--resume"])
    with pytest.raises(SystemExit):
        rfc.parse_args(["--topology", "ring"])


def _record_trace(path: Path, k: int) -> str:
    source = build_traffic(
        MeshTopology(k), "bursty", injection_rate=0.08, seed=7,
        payload_mode="random",
    )
    trace = record_trace(source, 40)
    trace.save(path)
    return trace.content_hash()


def test_run_fault_campaign_trace_flag(tmp_path):
    path = tmp_path / "t.trace.json"
    _record_trace(path, 3)
    argv = ["--k", "3", "--workload", "trace", "--trace-path", str(path)]
    config = rfc.build_config(rfc.parse_args(argv))
    assert config == FaultCampaignConfig(
        k=3, workload="trace", trace_path=str(path)
    )


#: submit overlay argv, the base JSON config, and the fields the
#: overlay must set -> the stored config_key, recorded before the flags
#: were generated from FaultCampaignConfig.
SUBMIT_CASES = [
    (
        {"k": 3, "bers": [0.001], "protocols": ["none"]},
        ["--topology", "torus"],
        {"topology": "torus"},
        "17064afeb170eb239f3ff78a326c6cff6daf63d5d90a639d788ac9dd73567b51",
    ),
    (
        {"k": 3, "bers": [0.001], "protocols": ["none"]},
        ["--concentration", "2", "--topology", "cmesh"],
        {"topology": "cmesh", "concentration": 2},
        "97e897a5f39af2312cbdb859b68b7f35c5a9794af74b4b89c9e0265b6f5c4c19",
    ),
    (
        {"k": 2, "bers": [0.001, 0.01], "protocols": ["crc"],
         "topology": "chiplet"},
        ["--chiplets-x", "2", "--chiplets-y", "2", "--noi-scale", "1.5"],
        {"chiplets_x": 2, "chiplets_y": 2, "noi_scale": 1.5},
        "54708cda257aa349b541f92a7abde6042639377e5887fd794cc5c48bb82c3812",
    ),
    (
        {"k": 3, "bers": [0.001], "protocols": ["none"],
         "workload": "synthetic"},
        ["--workload", "bursty", "--burst-on", "0.1", "--burst-off", "0.2",
         "--payload-mode", "random", "--no-coupling"],
        {"workload": "bursty", "burst_on": 0.1, "burst_off": 0.2,
         "payload_mode": "random", "coupling": False},
        "0d0830f38496d203ffe36a57b24ed3abecade3249356b00f73ada62aa6591626",
    ),
    (
        {"k": 3, "bers": [0.001], "protocols": ["none"]},
        ["--workload", "collective", "--collective-fraction", "0.5",
         "--collective", "random"],
        {"workload": "collective", "collective_fraction": 0.5,
         "collective": "random"},
        "6cc34434528ec87eabb402b20f93b6f3b2a5df12b8635702055894f69aef8dbf",
    ),
    # No overlay: the JSON stands (same identity as the first case).
    (
        {"k": 3, "bers": [0.001], "protocols": ["none"], "topology": "torus"},
        [],
        {},
        "17064afeb170eb239f3ff78a326c6cff6daf63d5d90a639d788ac9dd73567b51",
    ),
]


def _submit(db_path: Path, name: str, config: dict, argv: list[str]):
    rc = service_main([
        "--db", str(db_path), "submit", "--name", name, "--kind", "fault",
        "--config", json.dumps(config), *argv,
    ])
    assert rc == 0
    with CampaignDB(db_path) as db:
        _id, _kind, stored = db.campaign(name)
        key = db.status(name)[0].config_key
    return stored, key


@pytest.mark.parametrize("base,argv,fields_set,config_key", SUBMIT_CASES)
def test_submit_overlay_stores_pinned_config(
    tmp_path, base, argv, fields_set, config_key
):
    stored, key = _submit(tmp_path / "svc.sqlite", "c", base, argv)
    # An overlay is exactly an edit of the JSON config.
    edited = get_adapter("fault").canonical_config({**base, **fields_set})
    assert stored == json.loads(json.dumps(edited))
    assert key == config_key


def test_submit_trace_overlay_equals_json_edit(tmp_path):
    path = tmp_path / "t.trace.json"
    trace_hash = _record_trace(path, 3)
    base = {"k": 3, "bers": [1e-3], "protocols": ["none"]}
    stored, key = _submit(
        tmp_path / "a.sqlite", "c", base,
        ["--workload", "trace", "--trace-path", str(path)],
    )
    edited, edited_key = _submit(
        tmp_path / "b.sqlite", "c",
        {**base, "workload": "trace", "trace_path": str(path)}, [],
    )
    assert stored == edited and key == edited_key
    assert stored["trace_hash"] == trace_hash


def test_submit_refuses_overlays_on_other_kinds(tmp_path, capsys):
    grid = {"parameters": {"x": [0.0, 1.0]}, "evaluator": "poly"}
    rc = service_main([
        "--db", str(tmp_path / "svc.sqlite"), "submit", "--name", "g",
        "--kind", "sweep_grid", "--config", json.dumps(grid),
        "--no-coupling", "--payload-mode", "random", "--workload", "bursty",
        "--noi-scale", "3", "--topology", "torus",
    ])
    assert rc == 2
    assert capsys.readouterr().err == REFUSAL


REFUSAL = (
    "error: --topology, --noi-scale, --workload, --payload-mode, "
    "--no-coupling: topology/workload flags apply only to --kind fault "
    "campaigns, not 'sweep_grid'\n"
)
