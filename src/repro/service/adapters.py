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
  the result the in-process driver returns, with the driver's own
  builder (``McResult.from_values``, ``GridResult.from_values``,
  ``FaultCampaignResult.from_values``, the DSE engine's
  ``eval_record``), bitwise equal to a single-process run of the same
  configuration.  Floats survive the JSON round-trip exactly (``repr``
  round-trips IEEE doubles) — the same guarantee
  :mod:`repro.runtime.checkpoint` relies on.

Because configs must be JSON, evaluators and designs are referenced *by
name* through registries (:data:`DESIGNS`, :data:`GRID_EVALUATORS`,
:data:`repro.dse.objectives.EVALUATORS`) rather than shipped as
pickled callables — a submission is data, never code.

Each kind's keys, defaults and checks are one frozen dataclass, its
adapter's ``config_type``; ``canonical_config`` is that dataclass's
``asdict``, and ``expand``/``run_task``/``merge`` read the canonical
dict as stored, so no task re-validates its campaign.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable

from repro.analysis.sweep import GridResult, grid_points
from repro.circuit.srlr import robust_design
from repro.config import check_fields, checked
from repro.dse.engine import (
    EvalRecord,
    _evaluate_task,
    candidate_key,
    candidate_seed,
    eval_record,
)
from repro.dse.objectives import DseBatchConfig, make_evaluator
from repro.energy.link_energy import srlr_link_energy
from repro.errors import ConfigurationError, ServiceError
from repro.fault.campaign import (
    FaultCampaignConfig,
    FaultCampaignResult,
    _evaluate_point,
    config_identity,
    point_from_payload,
    point_key,
    point_payload,
)
from repro.mc.engine import (
    DESIGNS,
    McResult,
    MonteCarloConfig,
    run_from_payload,
    run_payload,
    simulate_dies,
)
from repro.runtime.seeds import sequential_seeds


@dataclass(frozen=True)
class TaskSpec:
    """One expanded task row: identity, order, and its JSON spec."""

    key: str
    index: int
    spec: dict


class CampaignAdapter:
    """Interface of one campaign kind (see module docstring)."""

    kind: str = ""
    #: The frozen dataclass whose fields are this kind's config keys.
    config_type: type

    def canonical_config(self, config: dict) -> dict:
        """Validate ``config`` and return its canonical (default-filled)
        form — the form whose content hash is the campaign identity.

        A key that is no :attr:`config_type` field is refused: a misspelt
        key would otherwise change the campaign hash, or be ignored,
        instead of failing where it is given.
        """
        keys = sorted(f.name for f in fields(self.config_type))
        unknown = sorted(set(config) - set(keys))
        if unknown:
            raise ConfigurationError(
                f"unknown {self.kind} config keys {unknown}; choose from {keys}"
            )
        return asdict(self.config_type(**config))

    def expand(self, config: dict) -> list[TaskSpec]:
        raise NotImplementedError

    def run_task(self, config: dict, spec: dict) -> dict:
        raise NotImplementedError

    def merge(self, config: dict, payloads: dict[str, dict]) -> Any:
        raise NotImplementedError

    def describe_result(self, result: Any) -> str:
        """A short human-readable summary for the results CLI."""
        raise NotImplementedError


def _committed(payloads: dict[str, dict], tasks: list[TaskSpec]) -> list[dict]:
    """The payload of every task, in task order — the one completeness
    check behind every :meth:`CampaignAdapter.merge`."""
    missing = [task.key for task in tasks if task.key not in payloads]
    if missing:
        raise ServiceError(
            f"campaign incomplete: {len(missing)} of {len(tasks)} tasks "
            f"have no result (first: {missing[0]})"
        )
    return [payloads[task.key] for task in tasks]


# --- Monte Carlo ----------------------------------------------------------------------


class MonteCarloAdapter(CampaignAdapter):
    """``run_monte_carlo`` as a campaign: dies in fixed seed blocks of
    ``block_size``.  Die ``i`` draws seed ``base_seed + i``, as in
    ``run_monte_carlo``.
    """

    kind = "monte_carlo"
    config_type = MonteCarloConfig

    def canonical_config(self, config: dict) -> dict:
        canonical = super().canonical_config(config)
        self._design(canonical)  # bad design_kwargs fail here, not per task
        return canonical

    @staticmethod
    def _design(config: dict):
        try:
            return DESIGNS[config["design"]](**config["design_kwargs"])
        except TypeError as exc:
            raise ConfigurationError(
                f"design_kwargs {config['design_kwargs']!r} do not fit "
                f"design {config['design']!r}: {exc}"
            ) from None

    def expand(self, config: dict) -> list[TaskSpec]:
        seeds = sequential_seeds(config["base_seed"], config["n_runs"])
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
        runs = simulate_dies(
            spec["seeds"],
            design,
            tuple(config["pattern"]),
            config["bit_period"],
            config["local_enabled"],
        )
        return {"runs": [run_payload(r) for r in runs]}

    def merge(self, config: dict, payloads: dict[str, dict]) -> McResult:
        blocks = _committed(payloads, self.expand(config))
        return McResult.from_values(
            self._design(config),
            [run_from_payload(run) for block in blocks for run in block["runs"]],
        )

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


@dataclass(frozen=True)
class SweepGridConfig:
    """A parameter-grid sweep: the service's ``sweep_grid`` config.

    ``parameters`` maps each axis name to its values (held as floats);
    ``evaluator`` names a :data:`GRID_EVALUATORS` callable.  Both are
    required: their defaults are refused.
    """

    parameters: dict[str, list[float]] = field(default_factory=dict)
    evaluator: str = checked("", choices=sorted(GRID_EVALUATORS))

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.parameters:
            raise ConfigurationError("parameters must not be empty")
        object.__setattr__(
            self,
            "parameters",
            {k: [float(v) for v in vs] for k, vs in self.parameters.items()},
        )


class SweepGridAdapter(CampaignAdapter):
    """``analysis.sweep_grid`` as a campaign: one task per grid cell.
    The merged result is the same :class:`GridResult`
    ``sweep_grid(parameters, evaluator)`` returns.
    """

    kind = "sweep_grid"
    config_type = SweepGridConfig

    def expand(self, config: dict) -> list[TaskSpec]:
        points = grid_points(config["parameters"])
        return [
            TaskSpec(key=str(i), index=i, spec={"point": point})
            for i, point in enumerate(points)
        ]

    def run_task(self, config: dict, spec: dict) -> dict:
        return {"metrics": GRID_EVALUATORS[config["evaluator"]](spec["point"])}

    def merge(self, config: dict, payloads: dict[str, dict]) -> GridResult:
        tasks = self.expand(config)
        return GridResult.from_values(
            config["parameters"],
            [task.spec["point"] for task in tasks],
            [payload["metrics"] for payload in _committed(payloads, tasks)],
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
    config_type = FaultCampaignConfig

    def canonical_config(self, config: dict) -> dict:
        return config_identity(
            super().canonical_config(
                {k: v for k, v in config.items() if k != "trace_hash"}
            )
        )

    @staticmethod
    def _config(config: dict) -> FaultCampaignConfig:
        kwargs = dict(config)
        kwargs.pop("trace_hash", None)
        return FaultCampaignConfig(**kwargs)

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
        point = _evaluate_point((cfg, spec["ber"], spec["protocol"]))
        return point_payload(point)

    def merge(self, config: dict, payloads: dict[str, dict]) -> FaultCampaignResult:
        points = _committed(payloads, self.expand(config))
        return FaultCampaignResult.from_values(
            self._config(config), [point_from_payload(p) for p in points]
        )

    def describe_result(self, result: FaultCampaignResult) -> str:
        best = {
            ber: result.best_protocol(ber) for ber in sorted(result.config.bers)
        }
        return (
            f"{len(result.points)} points; best protection per BER: "
            + ", ".join(f"{ber:.1e}->{p}" for ber, p in best.items())
        )


# --- DSE candidate batches ------------------------------------------------------------


class DseBatchAdapter(CampaignAdapter):
    """A fixed batch of DSE candidate evaluations as a campaign.

    Task keys and seeds are the engine's own
    ``candidate_key``/``candidate_seed`` content identities, and the
    merged result is the list of :class:`~repro.dse.engine.EvalRecord`
    the engine's own :func:`~repro.dse.engine.eval_record` builds
    (``generation`` 0, ``index`` the submission position), so
    service-evaluated candidates are interchangeable with
    engine-evaluated ones.
    """

    kind = "dse_batch"
    config_type = DseBatchConfig

    @staticmethod
    def _evaluator(config: dict):
        return make_evaluator(config["evaluator"], **config["evaluator_kwargs"])

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
        metrics, reason = _evaluate_task(
            (self._evaluator(config), spec["params"], spec["seed"])
        )
        return {"metrics": {k: float(v) for k, v in metrics.items()},
                "reason": reason}

    def merge(self, config: dict, payloads: dict[str, dict]) -> list[EvalRecord]:
        tasks = self.expand(config)
        return [
            eval_record(
                task.key,
                0,
                task.index,
                task.spec["params"],
                task.spec["seed"],
                payload["metrics"],
                payload["reason"],
            )
            for task, payload in zip(tasks, _committed(payloads, tasks))
        ]

    def describe_result(self, result: list[EvalRecord]) -> str:
        feasible = sum(record.feasible for record in result)
        return f"{len(result)} candidates, {feasible} feasible"


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
    "FaultCampaignAdapter",
    "GRID_EVALUATORS",
    "MonteCarloAdapter",
    "SweepGridAdapter",
    "SweepGridConfig",
    "TaskSpec",
    "get_adapter",
]
