"""Human-readable reporting for DSE results."""

from __future__ import annotations

from repro.analysis.report import format_kv, format_table
from repro.dse.engine import DseResult


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "nan"
    if abs(value) >= 1000 or (0 < abs(value) < 0.01):
        return f"{value:.3g}"
    return f"{value:.4g}"


def format_front(result: DseResult, title: str = "Pareto front") -> str:
    """The non-dominated set as a table: parameters, then objectives."""
    names = list(result.space.names)
    objective_headers = [
        f"{o.name} [{o.unit}] ({o.sense})" if o.unit else f"{o.name} ({o.sense})"
        for o in result.objectives
    ]
    rows = [
        [
            *(_fmt(r.params[n]) for n in names),
            *(_fmt(r.objectives[o.name]) for o in result.objectives),
        ]
        for r in result.front
    ]
    if not rows:
        return f"{title}: empty (no feasible candidates)"
    return format_table([*names, *objective_headers], rows, title=title)


def format_summary(result: DseResult) -> str:
    """Run accounting: evaluations, replay/cache reuse, front quality."""
    n_infeasible = sum(1 for r in result.records if not r.feasible)
    pairs = [
        ("candidates", len(result.records)),
        ("generations", result.generations),
        ("evaluated fresh", result.n_evaluated),
        ("replayed from store", result.n_replayed),
        ("cache hits", result.n_cache_hits),
        ("infeasible", n_infeasible),
        ("front size", len(result.front)),
        ("front hypervolume", f"{result.front_hypervolume():.6g}"),
        ("elapsed [s]", f"{result.elapsed:.2f}"),
    ]
    return format_kv("DSE run summary", pairs)


def format_report(result: DseResult, title: str = "Design-space exploration") -> str:
    """Summary plus front table (the CLI's default output)."""
    return f"{format_summary(result)}\n\n{format_front(result, title=title)}"


__all__ = ["format_front", "format_report", "format_summary"]
