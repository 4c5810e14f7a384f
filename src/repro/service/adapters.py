"""Campaign adapters: existing workloads re-expressed as task rows.

Each adapter turns one campaign *kind* — a JSON-serializable
configuration a client can submit over the wire — into the three
operations the service needs:

* :meth:`CampaignAdapter.expand` — decompose the config into task rows
  ``(task_key, task_index, spec)``.  Keys reuse the same identities the
  single-process checkpoint stores write (die-block indices for Monte
  Carlo, grid-cell indices for sweeps, ``point_key(ber, protocol)`` for
  fault campaigns, ``candidate_key`` for DSE batches), so the service is
  a drop-in multi-process generalization of ``checkpoint=``/``resume=``.
* :meth:`CampaignAdapter.run_task` — execute one task row to a JSON
  payload.  Every payload is a pure function of (config, spec): RNG
  streams are content-addressed exactly as in the in-process drivers,
  which is what makes a campaign completed by 1 worker or 8 crashing
  workers merge to bitwise-identical results.
* :meth:`CampaignAdapter.merge` — reassemble the committed payloads into
  the same result object the in-process driver returns
  (:class:`~repro.mc.engine.McResult`,
  :class:`~repro.analysis.sweep.GridResult`,
  :class:`~repro.fault.campaign.FaultCampaignResult`, ...), bitwise
  equal to a single-process run of the same configuration.  Floats
  survive the JSON round-trip exactly (``repr`` round-trips IEEE
  doubles) — the same guarantee :mod:`repro.runtime.checkpoint` relies
  on.

Because configs must be JSON, evaluators and designs are referenced *by
name* through registries (:data:`DESIGNS`, :data:`GRID_EVALUATORS`,
:data:`repro.dse.objectives.EVALUATORS`) rather than shipped as
pickled callables — a submission is data, never code.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.analysis.sweep import GridResult, collect_metrics, grid_points
from repro.circuit.srlr import robust_design, straightforward_design
from repro.dse.engine import candidate_key, candidate_seed
from repro.dse.objectives import InfeasibleDesign, make_evaluator
from repro.energy.link_energy import srlr_link_energy
from repro.errors import ConfigurationError, ServiceError
from repro.fault.campaign import (
    FaultCampaignConfig,
    FaultCampaignResult,
    _evaluate_point,
    point_from_payload,
    point_key,
    point_payload,
)
from repro.noc.trace import trace_file_hash
from repro.mc.engine import (
    McResult,
    default_stress_pattern,
    run_from_payload,
    run_payload,
    simulate_dies,
)
from repro.runtime.seeds import make_seeds

#: Named link designs submittable by JSON configs.
DESIGNS: dict[str, Callable] = {
    "robust": robust_design,
    "straightforward": straightforward_design,
}


@dataclass(frozen=True)
class TaskSpec:
    """One expanded task row: identity, order, and its JSON spec."""

    key: str
    index: int
    spec: dict


class CampaignAdapter:
    """Interface of one campaign kind (see module docstring)."""

    kind: str = ""

    def canonical_config(self, config: dict) -> dict:
        """Validate ``config`` and return its canonical (default-filled)
        form — the form whose content hash is the campaign identity."""
        raise NotImplementedError

    def expand(self, config: dict) -> list[TaskSpec]:
        raise NotImplementedError

    def run_task(self, config: dict, spec: dict) -> dict:
        raise NotImplementedError

    def merge(self, config: dict, payloads: dict[str, dict]) -> Any:
        raise NotImplementedError

    def describe_result(self, result: Any) -> str:
        """A short human-readable summary for the results CLI."""
        raise NotImplementedError


# --- Monte Carlo ----------------------------------------------------------------------


class MonteCarloAdapter(CampaignAdapter):
    """``run_monte_carlo`` as a campaign: dies in fixed seed blocks.

    Config keys: ``design`` (a :data:`DESIGNS` name), ``design_kwargs``,
    ``n_runs``, ``base_seed``, ``seed_scheme``, ``bit_period``,
    ``local_enabled``, ``pattern`` (explicit bit list; default is the
    paper's stress pattern) and ``block_size`` (dies per task row).
    """

    kind = "monte_carlo"

    def canonical_config(self, config: dict) -> dict:
        config = dict(config)
        design = config.setdefault("design", "robust")
        if design not in DESIGNS:
            raise ConfigurationError(
                f"unknown design {design!r}; choose from {sorted(DESIGNS)}"
            )
        config.setdefault("design_kwargs", {})
        n_runs = int(config.setdefault("n_runs", 1000))
        if n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
        config["n_runs"] = n_runs
        config.setdefault("base_seed", 2013)
        config.setdefault("seed_scheme", "sequential")
        config.setdefault("bit_period", 1.0 / 4.1e9)
        config.setdefault("local_enabled", True)
        pattern = config.setdefault("pattern", None)
        if pattern is None:
            config["pattern"] = default_stress_pattern()
        config["pattern"] = [int(b) for b in config["pattern"]]
        block = int(config.setdefault("block_size", 16))
        if block < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block}")
        config["block_size"] = block
        # Fail early on an invalid design, not at first task execution.
        self._design(config)
        return config

    @staticmethod
    def _design(config: dict):
        return DESIGNS[config["design"]](**config["design_kwargs"])

    @staticmethod
    def _seeds(config: dict) -> list[int]:
        return make_seeds(
            config["base_seed"], config["n_runs"], config["seed_scheme"]
        )

    def expand(self, config: dict) -> list[TaskSpec]:
        seeds = self._seeds(config)
        block = config["block_size"]
        tasks = []
        for index, start in enumerate(range(0, len(seeds), block)):
            chunk = seeds[start : start + block]
            tasks.append(
                TaskSpec(
                    key=f"dies/{start}-{start + len(chunk)}",
                    index=index,
                    spec={"start": start, "seeds": chunk},
                )
            )
        return tasks

    def run_task(self, config: dict, spec: dict) -> dict:
        design = self._design(config)
        pattern = tuple(config["pattern"])
        runs = simulate_dies(
            [int(seed) for seed in spec["seeds"]],
            design,
            pattern,
            config["bit_period"],
            config["local_enabled"],
        )
        return {"runs": [run_payload(r) for r in runs]}

    def merge(self, config: dict, payloads: dict[str, dict]) -> McResult:
        runs = []
        for task in self.expand(config):
            payload = payloads.get(task.key)
            if payload is None:
                raise ServiceError(
                    f"campaign incomplete: task {task.key} has no result"
                )
            runs.extend(run_from_payload(p) for p in payload["runs"])
        return McResult(design=self._design(config), runs=runs)

    def describe_result(self, result: McResult) -> str:
        return (
            f"{result.n_runs} dies, {result.n_failures} failing, "
            f"error probability {result.error_probability:.4f}"
        )


# --- parameter-grid sweeps ------------------------------------------------------------


def _poly_objective(point: dict[str, float]) -> dict[str, float]:
    """A cheap analytic grid evaluator (tests, smokes, demos)."""
    values = [point[k] for k in sorted(point)]
    return {
        "sum_sq": float(sum(v * v for v in values)),
        "geom": float(math.prod(1.0 + abs(v) for v in values)),
    }


def _srlr_energy_objective(point: dict[str, float]) -> dict[str, float]:
    """Link energy/rate of a robust SRLR design at a (swing) grid point."""
    design = robust_design(nominal_swing=point["nominal_swing"])
    report = srlr_link_energy(design)
    return {
        "fj_per_bit_mm": float(report.fj_per_bit_per_mm),
        "mw": float(report.power * 1e3),
    }


#: Named grid evaluators submittable by JSON configs.  Values are
#: module-level callables ``point -> metrics`` (picklable, so workers
#: can also fan them through a ParallelExecutor).
GRID_EVALUATORS: dict[str, Callable[[dict], dict]] = {
    "poly": _poly_objective,
    "srlr_energy": _srlr_energy_objective,
}


class SweepGridAdapter(CampaignAdapter):
    """``analysis.sweep_grid`` as a campaign: one task per grid cell.

    Config keys: ``parameters`` (axis name -> values) and ``evaluator``
    (a :data:`GRID_EVALUATORS` name).  The merged result is the same
    :class:`GridResult` ``sweep_grid(parameters, evaluator)`` returns.
    """

    kind = "sweep_grid"

    def canonical_config(self, config: dict) -> dict:
        config = dict(config)
        name = config.get("evaluator")
        if name not in GRID_EVALUATORS:
            raise ConfigurationError(
                f"unknown grid evaluator {name!r}; "
                f"choose from {sorted(GRID_EVALUATORS)}"
            )
        parameters = config.get("parameters")
        if not isinstance(parameters, dict) or not parameters:
            raise ConfigurationError("parameters must be a non-empty mapping")
        config["parameters"] = {
            str(k): [float(v) for v in vs] for k, vs in parameters.items()
        }
        grid_points(config["parameters"])  # validates the axes
        return config

    def expand(self, config: dict) -> list[TaskSpec]:
        points = grid_points(config["parameters"])
        return [
            TaskSpec(key=str(i), index=i, spec={"point": point})
            for i, point in enumerate(points)
        ]

    def run_task(self, config: dict, spec: dict) -> dict:
        evaluate = GRID_EVALUATORS[config["evaluator"]]
        point = {k: float(v) for k, v in spec["point"].items()}
        return {"metrics": evaluate(point)}

    def merge(self, config: dict, payloads: dict[str, dict]) -> GridResult:
        points = grid_points(config["parameters"])
        evaluated = []
        for i, _point in enumerate(points):
            payload = payloads.get(str(i))
            if payload is None:
                raise ServiceError(
                    f"campaign incomplete: grid cell {i} has no result"
                )
            evaluated.append(payload["metrics"])
        return GridResult(
            parameters=tuple(config["parameters"]),
            points=tuple(points),
            metrics=collect_metrics(points, evaluated),
        )

    def describe_result(self, result: GridResult) -> str:
        return (
            f"{len(result.points)} grid cells over "
            f"{', '.join(result.parameters)}; "
            f"metrics: {', '.join(sorted(result.metrics))}"
        )


# --- fault campaigns ------------------------------------------------------------------


class FaultCampaignAdapter(CampaignAdapter):
    """``run_fault_campaign`` as a campaign: one task per (BER, protocol).

    The config is ``asdict(FaultCampaignConfig)``; task keys are the
    exact :func:`repro.fault.campaign.point_key` identities the JSONL
    checkpoint path writes, and payloads use the same codec — the merged
    :class:`FaultCampaignResult` is bitwise equal to the single-process
    driver's.
    """

    kind = "fault"

    def canonical_config(self, config: dict) -> dict:
        cfg = self._config(config)
        canonical = asdict(cfg)
        if cfg.workload == "trace":
            # Campaign identity follows the trace's *content*: an edited
            # trace file under the same path is a different campaign and
            # refuses to attach, exactly like any other config change.
            canonical["trace_hash"] = trace_file_hash(cfg.trace_path)
        return canonical

    @staticmethod
    def _config(config: dict) -> FaultCampaignConfig:
        fields = dict(config)
        fields.pop("trace_hash", None)
        for name in ("bers", "protocols"):
            if name in fields:
                fields[name] = tuple(fields[name])
        return FaultCampaignConfig(**fields)

    def expand(self, config: dict) -> list[TaskSpec]:
        cfg = self._config(config)
        return [
            TaskSpec(
                key=point_key(ber, protocol),
                index=i,
                spec={"ber": ber, "protocol": protocol},
            )
            for i, (_cfg, ber, protocol) in enumerate(cfg.tasks())
        ]

    def run_task(self, config: dict, spec: dict) -> dict:
        cfg = self._config(config)
        point = _evaluate_point((cfg, float(spec["ber"]), str(spec["protocol"])))
        return point_payload(point)

    def merge(self, config: dict, payloads: dict[str, dict]) -> FaultCampaignResult:
        cfg = self._config(config)
        points = []
        for _cfg, ber, protocol in cfg.tasks():
            payload = payloads.get(point_key(ber, protocol))
            if payload is None:
                raise ServiceError(
                    f"campaign incomplete: point ({ber}, {protocol!r}) "
                    "has no result"
                )
            points.append(point_from_payload(payload))
        return FaultCampaignResult(config=cfg, points=tuple(points))

    def describe_result(self, result: FaultCampaignResult) -> str:
        best = {
            ber: result.best_protocol(ber) for ber in sorted(result.config.bers)
        }
        return (
            f"{len(result.points)} points; best protection per BER: "
            + ", ".join(f"{ber:.1e}->{p}" for ber, p in best.items())
        )


# --- DSE candidate batches ------------------------------------------------------------


@dataclass(frozen=True)
class DseBatchRecord:
    """One evaluated candidate of a DSE batch campaign."""

    key: str
    params: dict
    seed: int
    metrics: dict
    reason: str  # "" when feasible, else the InfeasibleDesign message

    @property
    def feasible(self) -> bool:
        return not self.reason


@dataclass(frozen=True)
class DseBatchResult:
    """All candidates of one batch, in submission order."""

    evaluator: str
    records: tuple[DseBatchRecord, ...]

    @property
    def n_feasible(self) -> int:
        return sum(1 for r in self.records if r.feasible)


class DseBatchAdapter(CampaignAdapter):
    """A fixed batch of DSE candidate evaluations as a campaign.

    Config keys: ``evaluator`` (a :data:`repro.dse.objectives.EVALUATORS`
    name), ``evaluator_kwargs``, ``candidates`` (a list of param dicts —
    e.g. one NSGA-II generation) and ``base_seed``.  Task keys and seeds
    are the engine's own ``candidate_key``/``candidate_seed`` content
    identities, so service-evaluated candidates are interchangeable with
    engine-evaluated ones.
    """

    kind = "dse_batch"

    def canonical_config(self, config: dict) -> dict:
        config = dict(config)
        config.setdefault("evaluator_kwargs", {})
        config.setdefault("base_seed", 2013)
        self._evaluator(config)  # fail early on an unknown evaluator
        candidates = config.get("candidates")
        if not isinstance(candidates, list) or not candidates:
            raise ConfigurationError("candidates must be a non-empty list")
        config["candidates"] = [
            {str(k): float(v) for k, v in params.items()} for params in candidates
        ]
        return config

    @staticmethod
    def _evaluator(config: dict):
        return make_evaluator(
            config.get("evaluator", ""), **config["evaluator_kwargs"]
        )

    def expand(self, config: dict) -> list[TaskSpec]:
        evaluator = self._evaluator(config)
        tasks = []
        for i, params in enumerate(config["candidates"]):
            seed = candidate_seed(config["base_seed"], params)
            tasks.append(
                TaskSpec(
                    key=candidate_key(evaluator, params, seed),
                    index=i,
                    spec={"params": params, "seed": seed},
                )
            )
        return tasks

    def run_task(self, config: dict, spec: dict) -> dict:
        evaluator = self._evaluator(config)
        params = {str(k): float(v) for k, v in spec["params"].items()}
        try:
            metrics = evaluator(params, int(spec["seed"]))
            return {"metrics": {k: float(v) for k, v in metrics.items()},
                    "reason": ""}
        except InfeasibleDesign as exc:
            return {"metrics": {}, "reason": str(exc)}

    def merge(self, config: dict, payloads: dict[str, dict]) -> DseBatchResult:
        records = []
        for task in self.expand(config):
            payload = payloads.get(task.key)
            if payload is None:
                raise ServiceError(
                    f"campaign incomplete: candidate {task.index} "
                    f"({task.key[:16]}) has no result"
                )
            records.append(
                DseBatchRecord(
                    key=task.key,
                    params=task.spec["params"],
                    seed=task.spec["seed"],
                    metrics=payload["metrics"],
                    reason=payload["reason"],
                )
            )
        return DseBatchResult(
            evaluator=config["evaluator"], records=tuple(records)
        )

    def describe_result(self, result: DseBatchResult) -> str:
        return (
            f"{len(result.records)} candidates through {result.evaluator!r}, "
            f"{result.n_feasible} feasible"
        )


#: The campaign-kind registry.
ADAPTERS: dict[str, CampaignAdapter] = {
    adapter.kind: adapter
    for adapter in (
        MonteCarloAdapter(),
        SweepGridAdapter(),
        FaultCampaignAdapter(),
        DseBatchAdapter(),
    )
}


def get_adapter(kind: str) -> CampaignAdapter:
    if kind not in ADAPTERS:
        raise ServiceError(
            f"unknown campaign kind {kind!r}; choose from {sorted(ADAPTERS)}"
        )
    return ADAPTERS[kind]


__all__ = [
    "ADAPTERS",
    "CampaignAdapter",
    "DESIGNS",
    "DseBatchAdapter",
    "DseBatchRecord",
    "DseBatchResult",
    "FaultCampaignAdapter",
    "GRID_EVALUATORS",
    "MonteCarloAdapter",
    "SweepGridAdapter",
    "TaskSpec",
    "get_adapter",
]
