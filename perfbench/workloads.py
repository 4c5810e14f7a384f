"""The four benchmark workloads.

Each workload owns a pool of ``POOL`` fixed pass inputs whose outputs
are fingerprinted in ``fingerprints.json``.  A pass is a fixed amount of
work (<= ~1 s on the reference host): one pool entry, run through the
program's public campaign function exactly as a user would call it, with
``n_jobs=1``.  The run seed only chooses the order in which the pool is
visited (:func:`pass_order`), so every pass of every seed is checked
against a recorded fingerprint.

The program is imported inside :meth:`setup`, never at module import,
because the import is part of the measured set-up time.  Calls into the
program go through module attributes (``engine.run_monte_carlo``, not a
bound name) so that the traced run's instrumentation sees them.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import warnings
from functools import partial
from pathlib import Path
from typing import Callable

from perfbench import fingerprint

#: Pass inputs per workload; a run visits them in a seed-chosen order.
POOL = 32

#: Output directory (scratch databases, host records, spans).
OUT = Path(__file__).resolve().parent / "out"


def pass_order(seed: int) -> list[int]:
    """Pool entries in the order a run with ``seed`` visits them."""
    return random.Random(seed).sample(range(POOL), POOL)


class Workload:
    """One benchmark workload (see the subclasses)."""

    name: str
    #: What one counted item is ("die", "point", "task").
    item: str
    #: Slope of log pass time on log kernel time across runs on the
    #: reference host (see :mod:`perfbench.calib`).
    sensitivity: float

    def setup(self) -> None:
        """Import the program and build every pool entry's inputs."""
        raise NotImplementedError

    def items(self, entry: int) -> int:
        """Items of work in one pass over pool ``entry``."""
        raise NotImplementedError

    def run(self, entry: int):
        """The timed pass.  Returns the program's raw output."""
        raise NotImplementedError

    def summarize(self, entry: int, output) -> dict:
        """Untimed: the output's fingerprint and per-pass counters."""
        raise NotImplementedError

    def counts(self, summary: dict) -> dict[str, float]:
        """Per-pass layer counters derived from a summary."""
        return {}

    def check(self, summary: dict, recorded: dict) -> bool:
        """Does a pass summary match its recorded fingerprint?"""
        return summary["digest"] == recorded["digest"]

    def cleanup(self) -> None:
        """Untimed: remove what a pass left on disk."""

    def close(self) -> None:
        """Remove everything the workload created."""


class McFig6(Workload):
    """Fig. 6 Monte Carlo: robust and straightforward designs at the
    selected swing, over overlapping windows of the paper's die seeds."""

    name = "mc_fig6"
    item = "die"
    sensitivity = 0.87
    #: Dies per design per pass; pool entry j starts at die
    #: ``BASE_SEED + STRIDE * j``.
    BLOCK = 25
    STRIDE = 5
    BASE_SEED = 2013

    def setup(self) -> None:
        from repro.circuit.prbs import worst_case_patterns
        from repro.circuit.srlr import robust_design, straightforward_design
        from repro.mc import engine

        self._engine = engine
        self.designs = (robust_design(), straightforward_design())
        # Each die needs attenuation tables for its own driver strengths;
        # the program caches them, so a campaign pays each build once.
        # Draw every pool die once with the short stress pattern so the
        # passes measure the steady state, not the first-seen dies.
        for design in self.designs:
            engine.run_monte_carlo(
                design,
                n_runs=self.STRIDE * (POOL - 1) + self.BLOCK,
                base_seed=self.BASE_SEED,
                pattern=worst_case_patterns(),
                n_jobs=1,
            )

    def items(self, entry: int) -> int:
        return self.BLOCK * len(self.designs)

    def run(self, entry: int):
        return [
            self._engine.run_monte_carlo(
                design,
                n_runs=self.BLOCK,
                base_seed=self.BASE_SEED + self.STRIDE * entry,
                n_jobs=1,
            )
            for design in self.designs
        ]

    def summarize(self, entry: int, output) -> dict:
        return {
            "digest": fingerprint.mc_digest(output),
            "failing": [result.n_failures for result in output],
        }

    def counts(self, summary: dict) -> dict[str, float]:
        return {"mc.failing_dies": sum(summary["failing"])}


class FaultCampaign(Workload):
    """``run_fault_campaign`` over a fixed (BER x protocol) grid; the pool
    varies the campaign seed."""

    item = "point"
    SEED = 7

    def __init__(self, name: str, sensitivity: float, **config) -> None:
        self.name = name
        self.sensitivity = sensitivity
        self.config = config

    def setup(self) -> None:
        from repro.fault import campaign
        from repro.noc.simulator import EngineFallbackWarning

        self._campaign = campaign
        self._fallback = EngineFallbackWarning
        base = campaign.FaultCampaignConfig(**self.config)
        self.configs = [
            dataclasses.replace(base, seed=self.SEED + j) for j in range(POOL)
        ]

    def items(self, entry: int) -> int:
        return len(self.configs[entry].tasks())

    def run(self, entry: int):
        # The chiplet topology falls back to the reference engine with a
        # warning per campaign; count it instead of printing it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self._campaign.run_fault_campaign(
                self.configs[entry], n_jobs=1
            )
        fallbacks = 0
        for w in caught:
            if issubclass(w.category, self._fallback):
                fallbacks += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result, fallbacks

    def summarize(self, entry: int, output) -> dict:
        result, fallbacks = output
        return {
            "digest": fingerprint.fault_digest(result),
            "points": len(result.points),
            "retransmissions": sum(p.retransmissions for p in result.points),
            "livelocked": sum(p.livelocked for p in result.points),
            "fallbacks": fallbacks,
        }

    def counts(self, summary: dict) -> dict[str, float]:
        return {
            "fault.retransmissions": summary["retransmissions"],
            "fault.livelocked_points": summary["livelocked"],
            "noc.fallback_warnings": summary["fallbacks"],
        }


class ServiceSweep(Workload):
    """A ``sweep_grid`` campaign with the ``srlr_energy`` evaluator,
    submitted to a fresh SQLite ``CampaignDB`` and drained by one
    in-process ``run_worker``."""

    name = "service_sweep"
    item = "task"
    sensitivity = 0.90
    CELLS = 200
    CAMPAIGN = "perfbench-sweep"
    _dir: Path | None = None

    @classmethod
    def swings(cls, entry: int) -> list[float]:
        """Pool entry ``entry``'s grid: 200 swings in 0.26-0.34 V."""
        return [
            round(0.26 + 0.08 * i / (cls.CELLS - 1) + 1e-4 * entry, 7)
            for i in range(cls.CELLS)
        ]

    def setup(self) -> None:
        from repro.analysis.sweep import sweep_grid
        from repro.service import adapters, db, worker

        self._sweep_grid = sweep_grid
        self._adapters = adapters
        self._db = db
        self._worker = worker
        self.adapter = adapters.get_adapter("sweep_grid")
        self.configs = [
            self.adapter.canonical_config(
                {
                    "parameters": {"nominal_swing": self.swings(j)},
                    "evaluator": "srlr_energy",
                }
            )
            for j in range(POOL)
        ]
        self._expected: dict[int, object] = {}
        # Per process, so no segment ever opens another one's database.
        self._dir = OUT / f"service-{os.getpid()}"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._path = self._dir / "campaign.db"

    def items(self, entry: int) -> int:
        return self.CELLS

    def expected(self, entry: int):
        """The in-process ``sweep_grid`` result the service must match."""
        if entry not in self._expected:
            config = self.configs[entry]
            self._expected[entry] = self._sweep_grid(
                config["parameters"],
                self._adapters.GRID_EVALUATORS[config["evaluator"]],
                n_jobs=1,
            )
        return self._expected[entry]

    def run(self, entry: int):
        config = self.configs[entry]
        tasks = [(t.key, t.index, t.spec) for t in self.adapter.expand(config)]
        with self._db.CampaignDB(self._path) as db:
            db.submit(self.CAMPAIGN, "sweep_grid", config, tasks)
        report = self._worker.run_worker(
            self._path, worker_id="perfbench", drain=True, poll_seconds=0.01
        )
        with self._db.CampaignDB(self._path) as db:
            payloads = db.payloads(self.CAMPAIGN)
        return self.adapter.merge(config, payloads), report

    def summarize(self, entry: int, output) -> dict:
        result, report = output
        return {
            "digest": fingerprint.grid_digest(result),
            "inprocess_equal": result == self.expected(entry),
            "tasks_done": report.tasks_done,
            "lost_races": report.lost_races,
        }

    def counts(self, summary: dict) -> dict[str, float]:
        return {"service.lost_races": summary["lost_races"]}

    def check(self, summary: dict, recorded: dict) -> bool:
        return (
            super().check(summary, recorded)
            and summary["inprocess_equal"]
            and summary["tasks_done"] == self.CELLS
        )

    def cleanup(self) -> None:
        for path in self._dir.glob("campaign.db*"):
            path.unlink()

    def close(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)


#: Workload name -> factory (each run builds a fresh instance).
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "mc_fig6": McFig6,
    "fault_mesh": partial(
        FaultCampaign,
        "fault_mesh",
        0.81,
        topology="mesh",
        k=4,
        bers=(1e-6, 1e-4, 1e-3),
        payload_mode="random",
        engine="fast",
    ),
    "fault_chiplet": partial(
        FaultCampaign,
        "fault_chiplet",
        0.85,
        topology="chiplet",
        k=2,
        chiplets_x=2,
        chiplets_y=2,
        bers=(1e-4,),
        payload_mode="random",
        engine="fast",
    ),
    "service_sweep": ServiceSweep,
}
