"""The experiment registry and the script that runs it, checked cheaply.

No experiment runs here: these tests pin that the registry, the two
EXPERIMENTS.md tables, the ``experiments.py`` docstring table and the
benchmarks name the same experiments, that every E-row benchmark takes
its kwargs from its registry entry, that every tracked E-row bench report
equals its ``results/`` file, and the command line of
``scripts/run_all_experiments.py``.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import repro.analysis.experiments as experiments_module
from repro.analysis import REGISTRY, experiment
from repro.errors import ConfigurationError

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row_id(experiment_id: str) -> str:
    """The EXPERIMENTS.md row an id belongs to (E11b is part of E11)."""
    return re.match(r"E\d+", experiment_id).group(0)


def test_registry_ids_match_experiments_md_tables():
    text = (REPO / "EXPERIMENTS.md").read_text()
    md_ids = re.findall(r"^\| (E\d+\w*) \|", text, flags=re.MULTILINE)
    assert len(md_ids) == len(set(md_ids))
    row_ids = [e.id for e in REGISTRY if e.measures is not None]
    assert md_ids == row_ids
    all_ids = [e.id for e in REGISTRY]
    assert sorted(set(map(_row_id, all_ids)), key=row_ids.index) == row_ids


def test_registry_ids_match_the_driver_docstring_table():
    doc = experiments_module.__doc__
    doc_ids = re.findall(r"^(E\d+\w*)\s{2,}", doc, flags=re.MULTILINE)
    assert doc_ids == [e.id for e in REGISTRY]


def test_every_run_entry_has_a_bench_file_and_valid_kwargs():
    for entry in REGISTRY:
        if entry.driver is None:
            assert isinstance(entry.measures, str), entry.id
            continue
        assert (BENCHMARKS / entry.bench).is_file(), entry.id
        signature = inspect.signature(entry.driver)
        for full in (False, True):
            signature.bind(**entry.kwargs(full))  # a typo'd kwarg raises


def _run_row_calls(path: Path) -> list[tuple[str, str]]:
    """``(id, name)`` of every ``run_row("<id>", "<name>")`` call in a
    bench file."""
    tree = ast.parse(path.read_text())
    return [
        (node.args[0].value, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "run_row"
    ]


def _run_row_ids(path: Path) -> list[str]:
    """Ids of every ``run_row("<id>", ...)`` call in a bench file."""
    return [experiment_id for experiment_id, _ in _run_row_calls(path)]


def test_every_e_row_bench_takes_its_kwargs_from_the_registry():
    expected: dict[str, list[str]] = {}
    for entry in REGISTRY:
        if entry.driver is not None:
            expected.setdefault(entry.bench, []).append(entry.id)
    drivers = {e.driver.__name__ for e in REGISTRY if e.driver is not None}
    for path in sorted(BENCHMARKS.glob("test_bench_*.py")):
        assert sorted(_run_row_ids(path)) == sorted(expected.get(path.name, [])), (
            path.name
        )
        # A bench that imported a driver could call it at its own size.
        source = path.read_text()
        assert not [d for d in drivers if re.search(rf"\b{d}\b", source)], path.name


def test_every_e_row_bench_report_equals_its_results_file():
    calls = [
        call
        for path in sorted(BENCHMARKS.glob("test_bench_*.py"))
        for call in _run_row_calls(path)
    ]
    assert sorted(i for i, _ in calls) == sorted(
        e.id for e in REGISTRY if e.driver is not None
    )
    for experiment_id, name in calls:
        bench = (BENCHMARKS / "output" / f"{name}.txt").read_text()
        assert bench == (REPO / "results" / f"{experiment_id}.txt").read_text(), (
            f"benchmarks/output/{name}.txt differs from results/{experiment_id}.txt"
        )


def test_experiment_lookup_names_unknown_ids():
    assert experiment("E4").driver.__name__ == "e4_fig6_montecarlo"
    with pytest.raises(ConfigurationError, match="no experiment 'E99'"):
        experiment("E99")
    with pytest.raises(ConfigurationError, match="text row"):
        experiment("E25").run()


def test_fig6_rows_share_one_monte_carlo_size():
    for full in (False, True):
        assert (
            experiment("E4").kwargs(full)["n_runs"]
            == experiment("E12").kwargs(full)["n_runs"]
        )


@pytest.fixture(scope="module")
def run_all():
    return _load_script("run_all_experiments")


@pytest.mark.parametrize(
    "argv, jobs, outdir",
    [
        ([], 1, "results"),
        (["--jobs", "4"], 4, "results"),
        (["--jobs=3", "out"], 3, "out"),
        (["out", "--jobs"], 0, "out"),
    ],
)
def test_run_all_jobs_and_outdir(run_all, argv, jobs, outdir):
    args = run_all.parse_args(argv)
    assert (args.jobs, args.outdir, args.full, args.cache) == (
        jobs, Path(outdir), False, None,
    )


def test_run_all_full_and_cache(run_all):
    args = run_all.parse_args(["--full", "--cache"])
    assert args.full and args.cache == Path("results/.mc-cache")
    assert run_all.parse_args(["--cache=/tmp/mc"]).cache == Path("/tmp/mc")


@pytest.mark.parametrize("argv", [["--check"], ["--jobs=abc"], ["a", "b"]])
def test_run_all_refuses_bad_arguments(run_all, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_all.parse_args(argv)
    assert excinfo.value.code == 2
