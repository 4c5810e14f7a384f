"""Objective adapters: existing evaluators as DSE-searchable objectives.

An **evaluator** is a picklable callable ``(params, seed) -> metrics``
exposing an ``objectives`` tuple naming which of its returned metrics
are optimized and in which sense.  Evaluators are frozen dataclasses of
primitives, so they cross process boundaries for parallel candidate
batches and hash stably into cache keys; candidates a physical model
rejects raise :class:`InfeasibleDesign` and are recorded as infeasible
rather than crashing the search.

Provided adapters:

* :class:`Fig8Evaluator` — the paper's Fig. 8 axes: 10 mm link-traversal
  energy (min) vs bandwidth density (max) over (swing, wire pitch), with
  the Fig. 6 Monte Carlo yield criterion as the feasibility gate.
* :class:`SizingEvaluator` — the Section II sizing trade: energy/bit/mm
  (min) vs worst-stage sensing margin (max) over (M1/M2 widths, swing,
  driver scale), optionally adding die failure probability (min).
* :class:`Zdt1Evaluator` — an analytic benchmark with a known Pareto
  front (``f2 = 1 - sqrt(f1)``), for tests and strategy benchmarking.
* :class:`NocTopologyEvaluator` — measured latency vs per-endpoint
  goodput across the topology family (mesh, cmesh, torus, chiplet)
  at a matched endpoint budget, with injection rate as the load axis.
* :class:`NocWorkloadEvaluator` — data-dependent effective fJ/bit/mm
  vs goodput across the workload family (uniform/transpose synthetics,
  bursty, collective, optional trace replay), flits carrying
  ``payload_mode`` bits so link energy is transition-counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.circuit.diagnostics import stage_margins
from repro.circuit.driver import NMOSDriver
from repro.circuit.link import SRLRLink
from repro.circuit.prbs import PrbsGenerator, worst_case_patterns
from repro.circuit.srlr import robust_design
from repro.energy.link_energy import srlr_link_energy
from repro.energy.router import RouterPowerModel
from repro.config import check_fields, checked
from repro.errors import ConfigurationError, LivelockError
from repro.mc import run_monte_carlo
from repro.noc.power import price_stats
from repro.noc.simulator import NocSimulator, engine_for_traffic
from repro.noc.topology import Topology, build_topology
from repro.noc.traffic import SyntheticTraffic
from repro.tech.technology import tech_45nm_soi
from repro.units import FJ, MM, UM
from repro.wire.rc import WireGeometry
from repro.workload import PAYLOAD_MODES, build_traffic


class InfeasibleDesign(Exception):
    """The physical model rejects this candidate (not a bug: a bad design)."""


@dataclass(frozen=True)
class Objective:
    """One optimized quantity: a metric name plus its sense and unit."""

    name: str
    sense: str = "min"
    unit: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ConfigurationError(
                f"objective sense must be 'min' or 'max', got {self.sense!r}"
            )

    def signed(self, value: float) -> float:
        """The value as a minimization coordinate (maximized => negated)."""
        return float(value) if self.sense == "min" else -float(value)

def signed_vector(
    objectives: tuple[Objective, ...], metrics: dict[str, float]
) -> tuple[float, ...]:
    """``metrics`` projected onto the objectives as a minimization vector."""
    missing = [o.name for o in objectives if o.name not in metrics]
    if missing:
        raise ConfigurationError(
            f"evaluator metrics {sorted(metrics)} are missing objectives {missing}"
        )
    return tuple(o.signed(metrics[o.name]) for o in objectives)


def infeasible_vector(objectives: tuple[Objective, ...]) -> tuple[float, ...]:
    """The all-``+inf`` minimization vector (dominated by any feasible point)."""
    return tuple(math.inf for _ in objectives)


def _stress_pattern() -> list[int]:
    return PrbsGenerator(7).bits(96) + worst_case_patterns()


@dataclass(frozen=True)
class Fig8Evaluator:
    """Energy vs bandwidth density of one SRLR design point (Fig. 8 axes).

    Parameters searched: ``nominal_swing`` [V] and ``wire_pitch_um``.
    Tighter pitch raises density (``rate / pitch``) but also coupling
    capacitance — more energy per bit and a weaker received pulse; lower
    swing saves energy but erodes the sensing margin.  Feasibility is the
    paper's own yield criterion (Fig. 6): a ``mc_runs``-die Monte Carlo
    must show a failure probability at or below ``max_error_probability``
    (the paper's selected 0.30 V swing measures ~0.14 at scale), seeded
    from the candidate's deterministic seed.  Without the gate the search
    would crown dead designs: a pulse attenuated to nothing draws almost
    no supply charge and looks spectacularly "efficient".
    """

    data_rate: float = checked(4.1e9, interval="(0, inf)")
    activity: float = checked(0.5, interval="(0, 1]")
    mc_runs: int = checked(40, interval="[0, inf)")
    max_error_probability: float = checked(0.17, interval="[0, 1]")
    bit_period: float = checked(1.0 / 4.1e9, interval="(0, inf)")

    objectives: ClassVar[tuple[Objective, ...]] = (
        Objective("energy_fj_per_bit_per_cm", "min", "fJ/bit/cm"),
        Objective("bandwidth_density_gbps_per_um", "max", "Gb/s/um"),
    )

    def __post_init__(self) -> None:
        check_fields(self)

    def __call__(self, params: dict[str, float], seed: int) -> dict[str, float]:
        tech = tech_45nm_soi()
        geometry = WireGeometry.from_pitch(params["wire_pitch_um"] * UM)
        try:
            design = robust_design(
                tech, nominal_swing=params["nominal_swing"], wire_geometry=geometry
            )
        except ConfigurationError as exc:
            raise InfeasibleDesign(f"sizing solver: {exc}") from exc
        link = SRLRLink(design)
        if not link.transmit(_stress_pattern(), self.bit_period).ok:
            raise InfeasibleDesign("typical-corner die fails the stress pattern")
        error_probability = 0.0
        if self.mc_runs > 0:
            mc = run_monte_carlo(design, n_runs=self.mc_runs, base_seed=seed)
            error_probability = mc.error_probability
            if error_probability > self.max_error_probability:
                raise InfeasibleDesign(
                    f"die failure probability {error_probability:.3f} exceeds the"
                    f" {self.max_error_probability} yield gate"
                )
        report = srlr_link_energy(design, self.data_rate, self.activity)
        return {
            "energy_fj_per_bit_per_cm": report.fj_per_bit_per_cm,
            "bandwidth_density_gbps_per_um": report.bandwidth_density_gbps_per_um,
            "energy_fj_per_bit_per_mm": report.fj_per_bit_per_mm,
            "error_probability": error_probability,
            "power_uw": report.power * 1e6,
        }


@dataclass(frozen=True)
class SizingEvaluator:
    """The Section II sizing trade: energy vs worst-stage sensing margin.

    Parameters searched: ``m1_width_um``, ``m2_width_um`` (sense/keeper
    sizing — the paper's M1/M2 ratio constraint lives in the space),
    ``nominal_swing`` [V] and ``driver_scale`` (the Section II driver
    width search).  The margin objective is the minimum over all stages
    of received swing minus the stage's sensitivity floor at the typical
    corner; ``mc_runs > 0`` appends the Fig. 6 die failure probability as
    a third objective.
    """

    mc_runs: int = checked(0, interval="[0, inf)")
    bit_period: float = checked(1.0 / 4.1e9, interval="(0, inf)")

    _base_objectives: ClassVar[tuple[Objective, ...]] = (
        Objective("energy_fj_per_bit_per_mm", "min", "fJ/bit/mm"),
        Objective("min_margin_mv", "max", "mV"),
    )

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def objectives(self) -> tuple[Objective, ...]:
        if self.mc_runs > 0:
            return (*self._base_objectives, Objective("error_probability", "min"))
        return self._base_objectives

    def __call__(self, params: dict[str, float], seed: int) -> dict[str, float]:
        tech = tech_45nm_soi()
        base = NMOSDriver()
        scale = params.get("driver_scale", 1.0)
        try:
            design = robust_design(
                tech,
                nominal_swing=params["nominal_swing"],
                driver=NMOSDriver(
                    width_up=base.width_up * scale, width_down=base.width_down * scale
                ),
                m1_width=params["m1_width_um"] * UM,
                m2_width=params.get("m2_width_um", 0.2) * UM,
            )
        except ConfigurationError as exc:
            raise InfeasibleDesign(f"sizing solver: {exc}") from exc
        link = SRLRLink(design)
        if not link.transmit(_stress_pattern(), self.bit_period).ok:
            raise InfeasibleDesign("typical-corner die fails the stress pattern")
        report = srlr_link_energy(design)
        metrics = {
            "energy_fj_per_bit_per_mm": report.fj_per_bit_per_mm,
            "min_margin_mv": min(stage_margins(link)) * 1000.0,
            "energy_fj_per_bit_per_cm": report.fj_per_bit_per_cm,
        }
        if self.mc_runs > 0:
            mc = run_monte_carlo(design, n_runs=self.mc_runs, base_seed=seed)
            metrics["error_probability"] = mc.error_probability
        return metrics


@dataclass(frozen=True)
class Zdt1Evaluator:
    """The ZDT1 analytic benchmark (known front ``f2 = 1 - sqrt(f1)``).

    Expects parameters named ``x0 .. x{d-1}`` in [0, 1].  Deterministic
    and trivially cheap: the workhorse of the DSE test suite and of
    strategy comparisons, where simulation cost would drown the signal.
    """

    dimension: int = checked(4, interval="[1, inf)")

    objectives: ClassVar[tuple[Objective, ...]] = (
        Objective("f1", "min"),
        Objective("f2", "min"),
    )

    def __post_init__(self) -> None:
        check_fields(self)

    def __call__(self, params: dict[str, float], seed: int) -> dict[str, float]:
        x = [params[f"x{i}"] for i in range(self.dimension)]
        f1 = x[0]
        g = 1.0 + 9.0 * sum(x[1:]) / max(1, self.dimension - 1)
        return {"f1": f1, "f2": g * (1.0 - math.sqrt(f1 / g))}


@dataclass(frozen=True)
class NocTopologyEvaluator:
    """Latency vs goodput across the NoC topology family (E24 recast).

    Parameters searched: ``topology_index`` — a discrete index into
    :meth:`menu`, which holds the four family members at a matched
    endpoint budget (flat ``k x k`` mesh, concentrated mesh with four
    cores per router, ``k x k`` torus, and a 2x2-chiplet NoC/NoI) — and
    ``injection_rate`` in packets per endpoint per cycle.  Each
    candidate runs a short uniform-random unicast simulation on the
    exact, cycle-level fast engine, so the trade-off surface is measured, not
    modeled.  A network driven past saturation that livelocks the drain
    phase is recorded as an infeasible candidate rather than crashing
    the search; ``wire_energy_j`` rides along as a non-objective metric
    for per-topology energy comparisons.
    """

    k: int = 4
    warmup: int = checked(100, interval="[0, inf)")
    measure: int = checked(400, interval="[1, inf)")
    pattern: str = "uniform"
    size_flits: int = 1

    objectives: ClassVar[tuple[Objective, ...]] = (
        Objective("average_latency_cycles", "min", "cycles"),
        Objective("throughput_per_endpoint", "max", "pkt/endpoint/cycle"),
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if self.k < 4 or self.k % 2:
            raise ConfigurationError(
                "NocTopologyEvaluator needs an even k >= 4 so every family"
                f" member exists at a matched endpoint budget, got {self.k}"
            )

    def menu(self) -> tuple[Topology, ...]:
        """The searchable topologies, index-aligned with ``topology_index``."""
        return (
            build_topology("mesh", self.k),
            build_topology("cmesh", self.k // 2, concentration=4),
            build_topology("torus", self.k),
            build_topology(
                "chiplet", self.k // 2, chiplets_x=2, chiplets_y=2
            ),
        )

    def __call__(self, params: dict[str, float], seed: int) -> dict[str, float]:
        index = int(round(params["topology_index"]))
        menu = self.menu()
        if not 0 <= index < len(menu):
            raise ConfigurationError(
                f"topology_index must lie in [0, {len(menu) - 1}], got {index}"
            )
        topology = menu[index]
        traffic = SyntheticTraffic(
            topology,
            float(params["injection_rate"]),
            self.pattern,
            size_flits=self.size_flits,
            seed=seed,
        )
        sim = NocSimulator(topology, traffic=traffic, seed=seed, engine="fast")
        try:
            sim.run(warmup=self.warmup, measure=self.measure)
        except LivelockError as exc:
            raise InfeasibleDesign(
                f"{topology.kind} saturated at rate "
                f"{params['injection_rate']:.3f}: {exc}"
            ) from exc
        stats = sim.stats
        if not stats.clean_measured():
            raise InfeasibleDesign(
                f"{topology.kind}: no deliveries in the measurement window"
            )
        report = price_stats(stats, RouterPowerModel())
        return {
            "average_latency_cycles": stats.average_latency,
            "throughput_per_endpoint": stats.throughput(
                len(topology.endpoints())
            ),
            "wire_energy_j": report.total,
            "link_traversals": float(stats.link_traversals),
            "topology_index": float(index),
        }


@dataclass(frozen=True)
class NocWorkloadEvaluator:
    """Data-dependent fJ/bit/mm vs goodput across the workload family.

    Parameters searched: ``workload_index`` — a discrete index into
    :meth:`menu`, which holds the workload family on a flat ``k x k``
    mesh (uniform and transpose synthetics, Markov on/off bursts, a
    row-collective multicast mix, plus replay of ``trace_path`` when
    one is given) — and ``injection_rate`` in packets per node per
    cycle.  Flits carry ``payload_mode`` bits, so links are priced by
    the counted-transition + crosstalk-coupling model of
    docs/WORKLOADS.md rather than the constant per-bit worst case: the
    searcher measures that different workloads cost different energy
    per *delivered* bit-mm, not just different latency.  Trace replay
    ignores ``injection_rate`` (the trace fixes its own schedule) and
    keeps its recorded payload bits.
    """

    k: int = checked(4, interval="[2, inf)")
    warmup: int = checked(100, interval="[0, inf)")
    measure: int = checked(400, interval="[1, inf)")
    size_flits: int = 1
    payload_mode: str = checked("random", choices=PAYLOAD_MODES)
    coupling: bool = True
    trace_path: str | None = None

    objectives: ClassVar[tuple[Objective, ...]] = (
        Objective("energy_fj_per_bit_mm", "min", "fJ/bit/mm"),
        Objective("throughput_per_endpoint", "max", "pkt/endpoint/cycle"),
    )

    def __post_init__(self) -> None:
        check_fields(self)

    def menu(self) -> tuple[str, ...]:
        """The searchable workloads, index-aligned with ``workload_index``."""
        base = ("uniform", "transpose", "bursty", "collective")
        return base + (("trace",) if self.trace_path else ())

    def __call__(self, params: dict[str, float], seed: int) -> dict[str, float]:
        index = int(round(params["workload_index"]))
        menu = self.menu()
        if not 0 <= index < len(menu):
            raise ConfigurationError(
                f"workload_index must lie in [0, {len(menu) - 1}], got {index}"
            )
        name = menu[index]
        topology = build_topology("mesh", self.k)
        rate = float(params["injection_rate"])
        common = dict(size_flits=self.size_flits, seed=seed,
                      payload_mode=self.payload_mode)
        if name == "trace":
            traffic = build_traffic(
                topology, "trace", trace_path=self.trace_path
            )
        elif name in ("bursty", "collective"):
            traffic = build_traffic(
                topology, name, injection_rate=rate, **common
            )
        else:
            traffic = build_traffic(
                topology, "synthetic", injection_rate=rate, pattern=name,
                **common,
            )
        engine = engine_for_traffic("fast", traffic.multicast_fraction)
        sim = NocSimulator(topology, traffic=traffic, seed=seed, engine=engine)
        try:
            sim.run(warmup=self.warmup, measure=self.measure)
        except LivelockError as exc:
            raise InfeasibleDesign(
                f"{name} saturated at rate {rate:.3f}: {exc}"
            ) from exc
        stats = sim.stats
        clean = stats.clean_measured()
        if not clean:
            raise InfeasibleDesign(
                f"{name}: no deliveries in the measurement window"
            )
        model = RouterPowerModel()
        report = price_stats(
            stats, model, links=sim.links, coupling=self.coupling
        )
        flit_bits = model.config.flit_bits
        link_mm = model.config.link_length / MM
        if name == "trace":
            # Trace packets vary in size; bill delivered bit-mm at the
            # trace's mean packet size (DeliveryRecord carries no size).
            size = sum(e.size_flits for e in traffic.entries) / len(
                traffic.entries
            )
        else:
            size = float(self.size_flits)
        useful_bit_mm = 0.0
        for rec in clean:
            hops = (
                topology.route_mm(rec.src, rec.dest)
                if rec.src is not None
                else 1
            )
            useful_bit_mm += size * flit_bits * hops * link_mm
        return {
            "energy_fj_per_bit_mm": report.total / useful_bit_mm / FJ,
            "throughput_per_endpoint": stats.throughput(
                len(topology.endpoints())
            ),
            "average_latency_cycles": stats.average_latency,
            "payload_transitions": float(
                sum(link.payload_transitions for link in sim.links)
            ),
            "coupling_events": float(
                sum(link.coupling_events for link in sim.links)
            ),
            "workload_index": float(index),
        }


#: Named evaluator classes submittable by JSON configs (the campaign
#: service and other front ends that cannot ship arbitrary callables
#: reference evaluators by name + keyword arguments).
EVALUATORS = {
    "fig8": Fig8Evaluator,
    "sizing": SizingEvaluator,
    "zdt1": Zdt1Evaluator,
    "noc_topology": NocTopologyEvaluator,
    "noc_workload": NocWorkloadEvaluator,
}


def make_evaluator(name: str, **kwargs):
    """Instantiate a registered evaluator from its name and kwargs."""
    if name not in EVALUATORS:
        raise ConfigurationError(
            f"unknown evaluator {name!r}; choose from {sorted(EVALUATORS)}"
        )
    return EVALUATORS[name](**kwargs)


@dataclass(frozen=True)
class DseBatchConfig:
    """A fixed batch of candidate evaluations: the service's
    ``dse_batch`` config.

    ``evaluator`` names an :data:`EVALUATORS` class, built with
    ``evaluator_kwargs``; ``candidates`` are parameter dicts (e.g. one
    NSGA-II generation), held as floats; candidate seeds derive from
    ``base_seed`` by content, as in the DSE engine.  ``evaluator`` and
    ``candidates`` are required: their defaults are refused.
    """

    evaluator: str = checked("", choices=sorted(EVALUATORS))
    candidates: list[dict[str, float]] = field(default_factory=list)
    evaluator_kwargs: dict[str, Any] = field(default_factory=dict)
    base_seed: int = 2013

    def __post_init__(self) -> None:
        check_fields(self)
        candidates = [{k: float(v) for k, v in p.items()} for p in self.candidates]
        object.__setattr__(self, "candidates", candidates)
        try:
            make_evaluator(self.evaluator, **self.evaluator_kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"evaluator_kwargs {self.evaluator_kwargs!r} do not fit "
                f"evaluator {self.evaluator!r}: {exc}"
            ) from None


__all__ = [
    "DseBatchConfig",
    "EVALUATORS",
    "Fig8Evaluator",
    "InfeasibleDesign",
    "NocTopologyEvaluator",
    "NocWorkloadEvaluator",
    "Objective",
    "SizingEvaluator",
    "Zdt1Evaluator",
    "infeasible_vector",
    "make_evaluator",
    "signed_vector",
]
