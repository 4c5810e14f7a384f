"""Generic parameter-sweep helpers used by benches, examples and the DSE.

:func:`sweep` is the classic 1-D sweep; :func:`sweep_grid` is its
N-dimensional generalization over a full cartesian product.  Both fan
their evaluations through :class:`repro.runtime.ParallelExecutor`, and
:func:`grid_points` — the one grid enumeration in the repo — is shared
with :class:`repro.dse.strategies.GridStrategy` so grid semantics cannot
drift between sweeps and design-space searches.

Both sweeps run through the checkpointed task loop
(:func:`repro.runtime.run_checkpointed`): ``checkpoint=``/``resume=``
persist each completed point durably, so an interrupted sweep resumes
to the bitwise result of an uninterrupted one.  Pass
``executor=ParallelExecutor(resilience=...)`` to opt points into
timeouts/retries/quarantine — a quarantined point fills its metric
slots with ``nan`` and lands in ``result.failures`` (see
docs/RESILIENCE.md).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, ExecutionError
from repro.runtime import (
    ParallelExecutor,
    TaskFailure,
    callable_token,
    run_checkpointed,
)


@dataclass(frozen=True)
class SweepResult:
    """A 1-D sweep: parameter values and the metric(s) at each."""

    parameter: str
    values: tuple[float, ...]
    metrics: dict[str, tuple[float, ...]]
    #: Points whose evaluation exhausted its retry budget (non-strict
    #: resilience); their slots in every series hold ``nan``.
    failures: tuple[TaskFailure, ...] = ()

    def series(self, metric: str) -> list[tuple[float, float]]:
        if metric not in self.metrics:
            raise ConfigurationError(
                f"unknown metric {metric!r}; have {sorted(self.metrics)}"
            )
        return list(zip(self.values, self.metrics[metric]))

    def rows(self) -> list[list[float]]:
        """Table rows: one per parameter value, metrics in sorted key order."""
        keys = sorted(self.metrics)
        return [
            [v, *(self.metrics[k][i] for k in keys)]
            for i, v in enumerate(self.values)
        ]

    def headers(self) -> list[str]:
        return [self.parameter, *sorted(self.metrics)]


def sweep(
    parameter: str,
    values: Sequence[float],
    evaluate: Callable[[float], dict[str, float]],
    n_jobs: int | None = 1,
    executor: ParallelExecutor | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> SweepResult:
    """Evaluate ``evaluate`` at each value; collect named metrics.

    Every call must return the same metric keys; a missing or extra key
    indicates a bug in the evaluator and raises.

    ``n_jobs`` (or a pre-built ``executor``, which also carries any
    ``progress`` hook or ``resilience`` config) distributes the points
    across worker processes.  Results are ordered and validated by value
    position, identically for every worker count; evaluators that cannot
    cross a process boundary (closures) run on the serial path and emit a
    :class:`repro.runtime.SerialFallbackWarning` saying so.

    ``checkpoint``/``resume`` persist completed points to a crash-safe
    JSONL store and replay them on restart (see module docstring).
    """
    if not values:
        raise ConfigurationError("values must not be empty")
    config = {
        "kind": "sweep/v1",
        "parameter": parameter,
        "values": [float(v) for v in values],
        "evaluator": callable_token(evaluate),
    }
    evaluated = run_checkpointed(
        executor or ParallelExecutor(n_jobs=n_jobs),
        evaluate,
        list(values),
        [str(i) for i in range(len(values))],
        checkpoint,
        config,
        resume,
    )
    return SweepResult(
        parameter=parameter,
        values=tuple(float(v) for v in values),
        metrics=collect_metrics(values, evaluated),
        failures=tuple(v for v in evaluated if isinstance(v, TaskFailure)),
    )


def collect_metrics(
    labels: Sequence[object], evaluated: Sequence[object]
) -> dict[str, tuple[float, ...]]:
    """Transpose per-point metric dicts into named series, validating keys.

    A :class:`TaskFailure` slot (quarantined point) contributes ``nan``
    for every metric; a sweep where *every* point failed has no metric
    keys to report and raises.
    """
    keys: set[str] | None = None
    for metrics in evaluated:
        if not isinstance(metrics, TaskFailure):
            keys = set(metrics)
            break
    if keys is None:
        raise ExecutionError(
            "every sweep point failed"
            + (
                f"; first: {evaluated[0].summary()}"
                if evaluated and isinstance(evaluated[0], TaskFailure)
                else ""
            )
        )
    collected: dict[str, list[float]] = {k: [] for k in keys}
    for label, metrics in zip(labels, evaluated):
        if isinstance(metrics, TaskFailure):
            for k in keys:
                collected[k].append(math.nan)
            continue
        if set(metrics) != keys:
            raise ConfigurationError(
                f"evaluator returned keys {sorted(metrics)} at {label}, "
                f"expected {sorted(keys)}"
            )
        for k, v in metrics.items():
            collected[k].append(float(v))
    return {k: tuple(v) for k, v in collected.items()}


def grid_points(
    parameters: Mapping[str, Sequence[float]],
) -> list[dict[str, float]]:
    """The full cartesian product of named axes, in row-major order.

    The first axis varies slowest, the last fastest (like nested loops in
    declaration order).  This is the single grid enumeration shared by
    :func:`sweep_grid` and the DSE grid strategy.
    """
    if not parameters:
        raise ConfigurationError("parameters must not be empty")
    for name, values in parameters.items():
        if not values:
            raise ConfigurationError(f"axis {name!r} has no values")
    names = list(parameters)
    return [
        {name: float(v) for name, v in zip(names, combo)}
        for combo in itertools.product(*(parameters[n] for n in names))
    ]


@dataclass(frozen=True)
class GridResult:
    """An N-D sweep: one point (a named-parameter dict) per grid cell."""

    parameters: tuple[str, ...]
    points: tuple[dict[str, float], ...]
    metrics: dict[str, tuple[float, ...]]
    #: Cells whose evaluation exhausted its retry budget (``nan`` slots).
    failures: tuple[TaskFailure, ...] = ()

    def series(self, metric: str) -> list[tuple[dict[str, float], float]]:
        if metric not in self.metrics:
            raise ConfigurationError(
                f"unknown metric {metric!r}; have {sorted(self.metrics)}"
            )
        return list(zip(self.points, self.metrics[metric]))

    def rows(self) -> list[list[float]]:
        """Table rows: parameter values in axis order, then sorted metrics."""
        keys = sorted(self.metrics)
        return [
            [*(point[p] for p in self.parameters), *(self.metrics[k][i] for k in keys)]
            for i, point in enumerate(self.points)
        ]

    def headers(self) -> list[str]:
        return [*self.parameters, *sorted(self.metrics)]


def sweep_grid(
    parameters: Mapping[str, Sequence[float]],
    evaluate: Callable[[dict[str, float]], dict[str, float]],
    n_jobs: int | None = 1,
    executor: ParallelExecutor | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> GridResult:
    """Evaluate ``evaluate`` at every point of a cartesian grid.

    ``parameters`` maps axis names to their values; ``evaluate`` receives
    one ``{name: value}`` dict per grid cell and returns named metrics
    (the same keys at every point, as in :func:`sweep`).  Points are
    enumerated by :func:`grid_points` and fanned through the executor —
    results are ordered and identical for every worker count.  The
    ``executor``/``checkpoint``/``resume`` knobs match :func:`sweep`.
    """
    points = grid_points(parameters)
    config = {
        "kind": "sweep_grid/v1",
        "parameters": {k: [float(v) for v in vs] for k, vs in parameters.items()},
        "evaluator": callable_token(evaluate),
    }
    evaluated = run_checkpointed(
        executor or ParallelExecutor(n_jobs=n_jobs),
        evaluate,
        points,
        [str(i) for i in range(len(points))],
        checkpoint,
        config,
        resume,
    )
    return GridResult(
        parameters=tuple(parameters),
        points=tuple(points),
        metrics=collect_metrics(points, evaluated),
        failures=tuple(v for v in evaluated if isinstance(v, TaskFailure)),
    )


__all__ = [
    "GridResult",
    "SweepResult",
    "collect_metrics",
    "grid_points",
    "sweep",
    "sweep_grid",
]
