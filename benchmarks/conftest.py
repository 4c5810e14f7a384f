"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures (see the
per-experiment index in DESIGN.md), prints the reproduced rows/series,
and saves them under ``benchmarks/output/``.  ``pytest-benchmark`` wraps
the computation so the harness also reports how long each reproduction
takes.

An E-row benchmark runs its entry of the experiment registry
(:mod:`repro.analysis.registry`) through ``run_row``, at the same size
``scripts/run_all_experiments.py`` uses for EXPERIMENTS.md and
``results/``, so its saved report equals ``results/<id>.txt``.  Set
``REPRO_FULL=1`` for the registry's publication-fidelity sizes (the
script's ``--full``; e.g. the paper's 1000-run Monte Carlo).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import experiment

OUTPUT_DIR = Path(__file__).parent / "output"

FULL = os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def save_report():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture
def run_row(benchmark, save_report):
    """Run registry entry ``experiment_id`` at its row's size under the
    benchmark timer and save its report as ``output/<name>.txt``."""

    def _run(experiment_id: str, name: str):
        result = benchmark.pedantic(
            experiment(experiment_id).run, args=(FULL,), rounds=1, iterations=1
        )
        save_report(name, result.text)
        return result

    return _run
