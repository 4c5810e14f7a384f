"""E6/E23 — Fig. 8: 1 cm link-traversal energy vs bandwidth density.

E6 regenerates the comparison plane: prior silicon-proven interconnects'
published points with pitch-swept curves, plus this work's point from our
own circuit-level energy measurement.  E23 re-casts it as an NSGA-II
search over (swing, wire pitch) under the Fig. 6 yield gate.
"""

from __future__ import annotations


def test_bench_fig8_energy_density(run_row):
    result = run_row("E6", "E6_fig8_energy_density")
    assert result.data["on_pareto_frontier"]
    assert result.data["highest_density"]
    assert result.data["beats_high_density_rivals"]
    # Every curve rises with density (the Table I footnote's coupling trade).
    for key, curve in result.data["curves"].items():
        energies = [e for _, e in curve]
        assert energies == sorted(energies), key


def test_bench_fig8_frontier(run_row):
    result = run_row("E23", "E23_fig8_frontier")
    outcome = result.data["outcome"]
    # The paper's operating point survives an adversarial search: it is on
    # the computed front and the densest design with Table I added.
    assert outcome.paper_on_front
    assert outcome.beats_baseline_density
    assert len(outcome.result.front) >= 2
