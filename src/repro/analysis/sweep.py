"""The parameter sweep used by benches, examples, the DSE and the service.

:func:`sweep_grid` evaluates a metric function over the full cartesian
product of named axes (one axis is the classic 1-D sweep).  It fans the
evaluations through :class:`repro.runtime.ParallelExecutor`, and
:func:`grid_points` — the one grid enumeration in the repo — is shared
with :class:`repro.dse.strategies.GridStrategy` so grid semantics cannot
drift between sweeps and design-space searches.

The sweep runs through the checkpointed task loop
(:func:`repro.runtime.run_checkpointed`): ``checkpoint=``/``resume=``
persist each completed point durably, so an interrupted sweep resumes
to the bitwise result of an uninterrupted one.  Pass
``executor=ParallelExecutor(resilience=...)`` to opt points into
timeouts/retries/quarantine — a quarantined point fills its metric
slots with ``nan`` and lands in ``result.failures`` (see
docs/RESILIENCE.md).  The service's ``sweep_grid`` campaign kind builds
its merged result with the same :meth:`GridResult.from_values`.
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
    checkpoint_store,
    driver_executor,
    run_checkpointed,
)


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
    """A sweep: one point (a named-parameter dict) per grid cell."""

    parameters: tuple[str, ...]
    points: tuple[dict[str, float], ...]
    metrics: dict[str, tuple[float, ...]]
    #: Cells whose evaluation exhausted its retry budget (``nan`` slots).
    failures: tuple[TaskFailure, ...] = ()

    @classmethod
    def from_values(
        cls,
        parameters: Sequence[str],
        points: Sequence[dict[str, float]],
        values: Sequence[object],
    ) -> "GridResult":
        """Transpose per-point metric dicts (in grid order) into series.

        Every point must return the same metric keys; a mismatch is an
        evaluator bug and raises.  A :class:`TaskFailure` slot
        (quarantined point) contributes ``nan`` to every series and lands
        in ``failures``; a sweep where *every* point failed has no metric
        keys to report and raises.
        """
        ok = [v for v in values if not isinstance(v, TaskFailure)]
        if not ok:
            first = f"; first: {values[0].summary()}" if values else ""
            raise ExecutionError(f"every sweep point failed{first}")
        keys = set(ok[0])
        collected: dict[str, list[float]] = {k: [] for k in keys}
        for point, metrics in zip(points, values):
            if isinstance(metrics, TaskFailure):
                metrics = dict.fromkeys(keys, math.nan)
            elif set(metrics) != keys:
                raise ConfigurationError(
                    f"evaluator returned keys {sorted(metrics)} at {point}, "
                    f"expected {sorted(keys)}"
                )
            for k, v in metrics.items():
                collected[k].append(float(v))
        return cls(
            parameters=tuple(parameters),
            points=tuple(points),
            metrics={k: tuple(v) for k, v in collected.items()},
            failures=tuple(v for v in values if isinstance(v, TaskFailure)),
        )

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
    (the same keys at every point).  Points are enumerated by
    :func:`grid_points` and fanned through the executor — results are
    ordered and identical for every worker count.

    ``n_jobs`` (or, not both, a pre-built ``executor``, which also carries
    any ``progress`` hook or ``resilience`` config) distributes the points
    across worker processes; evaluators that cannot cross a process
    boundary (closures) run on the serial path and emit a
    :class:`repro.runtime.SerialFallbackWarning` saying so.
    ``checkpoint``/``resume`` persist completed points to a crash-safe
    JSONL store and replay them on restart (see module docstring).
    """
    points = grid_points(parameters)
    config = {
        "kind": "sweep_grid/v1",
        "parameters": {k: [float(v) for v in vs] for k, vs in parameters.items()},
        "evaluator": callable_token(evaluate),
    }
    executor = driver_executor(executor, n_jobs)
    with checkpoint_store(checkpoint, config, resume) as store:
        values = run_checkpointed(
            executor, evaluate, points, [str(i) for i in range(len(points))], store
        )
    return GridResult.from_values(parameters, points, values)


__all__ = [
    "GridResult",
    "grid_points",
    "sweep_grid",
]
