"""Declarative design-space descriptions for multi-objective search.

A :class:`ParamSpace` names the free variables of a study — continuous,
log-scaled or discrete, each with bounds — plus optional *constraints*:
boolean expressions over the parameter names (``"m1_width_um >= 10 *
m2_width_um"``) evaluated on every candidate before it is spent on a
simulation.  Constraints are plain strings so that a space serializes
losslessly into the checkpoint store and hashes stably into cache keys.

Search strategies operate on the **unit cube**: every candidate is a
vector in ``[0, 1]^d`` that :meth:`ParamSpace.decode` maps to physical
values (linear, log10 or index interpolation per parameter kind).  The
decode is the single source of truth for rounding/snapping, so a grid
point, an LHS sample and an NSGA-II offspring all land on identical
physical values when they coincide in the cube — which is what makes the
content-addressed evaluation cache and checkpoint replay effective.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.sweep import grid_points
from repro.errors import ConfigurationError

#: Parameter kinds understood by the space.
PARAM_KINDS = ("continuous", "log", "discrete")

#: Names usable inside constraint expressions besides the parameters.
_CONSTRAINT_HELPERS = {"abs": abs, "min": min, "max": max, "math": math}


@dataclass(frozen=True)
class Parameter:
    """One axis of a design space.

    Use the :func:`continuous`, :func:`log` and :func:`discrete`
    constructors rather than instantiating directly.
    """

    name: str
    kind: str
    lower: float = 0.0
    upper: float = 0.0
    choices: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ConfigurationError(
                f"parameter name {self.name!r} must be a valid identifier"
                " (it is used in constraint expressions)"
            )
        if self.kind not in PARAM_KINDS:
            raise ConfigurationError(
                f"unknown parameter kind {self.kind!r}; expected {PARAM_KINDS}"
            )
        if self.kind == "discrete":
            if len(self.choices) < 1:
                raise ConfigurationError(f"{self.name}: discrete needs choices")
        else:
            if not self.lower < self.upper:
                raise ConfigurationError(
                    f"{self.name}: need lower < upper, got [{self.lower}, {self.upper}]"
                )
            if self.kind == "log" and self.lower <= 0.0:
                raise ConfigurationError(
                    f"{self.name}: log parameters need a positive lower bound"
                )

    # --- unit-cube mapping ------------------------------------------------------------

    def from_unit(self, u: float) -> float:
        """Map ``u`` in [0, 1] to a physical value (the snapping point)."""
        u = min(1.0, max(0.0, float(u)))
        if self.kind == "continuous":
            return self.lower + u * (self.upper - self.lower)
        if self.kind == "log":
            lo, hi = math.log10(self.lower), math.log10(self.upper)
            return 10.0 ** (lo + u * (hi - lo))
        index = min(len(self.choices) - 1, int(u * len(self.choices)))
        return self.choices[index]

    def to_unit(self, value: float) -> float:
        """Inverse of :meth:`from_unit` (discrete: the choice's bin center)."""
        if self.kind == "continuous":
            return (float(value) - self.lower) / (self.upper - self.lower)
        if self.kind == "log":
            lo, hi = math.log10(self.lower), math.log10(self.upper)
            return (math.log10(float(value)) - lo) / (hi - lo)
        try:
            index = self.choices.index(float(value))
        except ValueError:
            raise ConfigurationError(
                f"{self.name}: {value!r} is not one of {self.choices}"
            ) from None
        return (index + 0.5) / len(self.choices)

    def grid(self, levels: int) -> list[float]:
        """``levels`` representative values (discrete: all choices)."""
        if self.kind == "discrete":
            return list(self.choices)
        if levels < 2:
            raise ConfigurationError(f"levels must be >= 2, got {levels}")
        return [self.from_unit(i / (levels - 1)) for i in range(levels)]

    def spec(self) -> dict:
        """JSON-serializable description (round-trips via :func:`param_from_spec`)."""
        if self.kind == "discrete":
            return {"name": self.name, "kind": self.kind, "choices": list(self.choices)}
        return {
            "name": self.name,
            "kind": self.kind,
            "lower": self.lower,
            "upper": self.upper,
        }


def continuous(name: str, lower: float, upper: float) -> Parameter:
    """A linearly-interpolated bounded real parameter."""
    return Parameter(name=name, kind="continuous", lower=float(lower), upper=float(upper))


def log(name: str, lower: float, upper: float) -> Parameter:
    """A log10-interpolated bounded real parameter (decades sampled evenly)."""
    return Parameter(name=name, kind="log", lower=float(lower), upper=float(upper))


def discrete(name: str, choices: Sequence[float]) -> Parameter:
    """A parameter restricted to an explicit set of values."""
    return Parameter(name=name, kind="discrete", choices=tuple(float(c) for c in choices))


def param_from_spec(spec: Mapping) -> Parameter:
    """Rebuild a :class:`Parameter` from :meth:`Parameter.spec` output."""
    kind = spec["kind"]
    if kind == "discrete":
        return discrete(spec["name"], spec["choices"])
    return Parameter(
        name=spec["name"], kind=kind, lower=float(spec["lower"]), upper=float(spec["upper"])
    )


def lhs_unit(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """An ``n x d`` Latin-hypercube sample of the unit cube.

    Each dimension is stratified into ``n`` equal bins, one point per
    bin, with independently shuffled bin assignments per dimension —
    deterministic for a given generator state.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    u = np.empty((n, d))
    for j in range(d):
        bins = rng.permutation(n)
        u[:, j] = (bins + rng.random(n)) / n
    return u


@dataclass(frozen=True)
class ParamSpace:
    """Named parameters plus constraint expressions over their values."""

    parameters: tuple[Parameter, ...]
    constraints: tuple[str, ...] = ()
    _compiled: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ConfigurationError("a ParamSpace needs at least one parameter")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate parameter names in {names}")
        compiled = []
        for expr in self.constraints:
            try:
                compiled.append(compile(expr, f"<constraint {expr!r}>", "eval"))
            except SyntaxError as exc:
                raise ConfigurationError(f"bad constraint {expr!r}: {exc}") from exc
        object.__setattr__(self, "_compiled", tuple(compiled))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @property
    def dimension(self) -> int:
        return len(self.parameters)

    # --- candidate handling -----------------------------------------------------------

    def decode(self, unit: Sequence[float]) -> dict[str, float]:
        """Map a unit-cube vector to a physical ``{name: value}`` candidate."""
        if len(unit) != self.dimension:
            raise ConfigurationError(
                f"expected {self.dimension} coordinates, got {len(unit)}"
            )
        return {p.name: p.from_unit(u) for p, u in zip(self.parameters, unit)}

    def encode(self, params: Mapping[str, float]) -> list[float]:
        """Map a physical candidate back into the unit cube."""
        return [p.to_unit(params[p.name]) for p in self.parameters]

    def validate(self, params: Mapping[str, float]) -> None:
        """Raise unless ``params`` names exactly this space's parameters."""
        if set(params) != set(self.names):
            raise ConfigurationError(
                f"candidate keys {sorted(params)} != space parameters {sorted(self.names)}"
            )

    def feasible(self, params: Mapping[str, float]) -> bool:
        """Whether every constraint expression holds at ``params``."""
        namespace = {**_CONSTRAINT_HELPERS, **params}
        for expr, code in zip(self.constraints, self._compiled):
            try:
                if not eval(code, {"__builtins__": {}}, namespace):
                    return False
            except Exception as exc:
                raise ConfigurationError(
                    f"constraint {expr!r} failed to evaluate at {dict(params)}: {exc}"
                ) from exc
        return True

    # --- candidate generation ---------------------------------------------------------

    def grid(self, levels: int | Mapping[str, int] = 3) -> list[dict[str, float]]:
        """Cartesian grid candidates (via the shared :func:`grid_points`).

        ``levels`` is the per-axis point count — one integer for all
        axes or a ``{name: levels}`` mapping; discrete axes always use
        their full choice set.  Constraint-violating cells are dropped.
        """
        axes: dict[str, list[float]] = {}
        for p in self.parameters:
            n = levels.get(p.name, 3) if isinstance(levels, Mapping) else levels
            axes[p.name] = p.grid(n)
        return [point for point in grid_points(axes) if self.feasible(point)]

    def sample_lhs(
        self, n: int, rng: np.random.Generator
    ) -> list[dict[str, float]]:
        """``n`` Latin-hypercube candidates (constraint violators included:
        the engine records them as infeasible rather than silently
        resampling, keeping the sample size — and the rng stream —
        independent of the constraint set)."""
        return [self.decode(row) for row in lhs_unit(rng, n, self.dimension)]

    # --- serialization ----------------------------------------------------------------

    def spec(self) -> dict:
        """JSON-serializable description (round-trips via :func:`space_from_spec`)."""
        return {
            "parameters": [p.spec() for p in self.parameters],
            "constraints": list(self.constraints),
        }


def space_from_spec(spec: Mapping) -> ParamSpace:
    """Rebuild a :class:`ParamSpace` from :meth:`ParamSpace.spec` output."""
    return ParamSpace(
        parameters=tuple(param_from_spec(p) for p in spec["parameters"]),
        constraints=tuple(spec.get("constraints", ())),
    )


__all__ = [
    "PARAM_KINDS",
    "ParamSpace",
    "Parameter",
    "continuous",
    "discrete",
    "lhs_unit",
    "log",
    "param_from_spec",
    "space_from_spec",
]
