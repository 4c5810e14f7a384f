"""The experiment registry: every EXPERIMENTS.md row and how it is run.

Each :class:`Experiment` names its driver, the driver's quick and full
kwargs (the row's run size), the benchmark that re-runs it, and what its
EXPERIMENTS.md row reads.  ``scripts/run_all_experiments.py`` runs every
entry once and writes both ``results/<id>.txt`` and EXPERIMENTS.md from
those results; each benchmark takes its kwargs from its entry.  So the
run size of a row is decided here and nowhere else, and every tracked
output of a row comes from the same run.

An entry without a driver is a text row: a claim the test suite checks
(its bench column names the tests).  An entry without ``measures`` feeds
another row (E11b's simulation is half of the E11 row).
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.calibration import calibration_report
from repro.analysis.experiments import (
    ExperimentResult,
    e1_fig4_waveforms,
    e2_pulse_width_dynamics,
    e3_driver_modes,
    e4_fig6_montecarlo,
    e5_headline,
    e6_fig8_energy_density,
    e7_table1,
    e8_bias_overhead,
    e9_router_power,
    e10_noc_breakdown,
    e11_multicast,
    e11_multicast_simulated,
    e12_ablation,
    e13_sizing,
    e14_noc_traffic,
    e15_crosstalk,
    e16_bypass,
    e17_bus,
    e18_temperature,
    e19_system_studies,
    e20_routing,
    e21_tech_scaling,
    e22_equalized_baseline,
    e23_fig8_frontier,
    e24_fault_protection,
    e27_workload_energy,
)
from repro.errors import ConfigurationError
from repro.units import GBPS, MW

#: Result data of every run entry, by id (what ``measures`` reads).
RowData = Mapping[str, Mapping[str, Any]]


@dataclass(frozen=True)
class Experiment:
    """One registry entry (see the module docstring)."""

    id: str
    driver: Callable[..., ExperimentResult] | None
    #: A file under ``benchmarks/`` for a run entry; for a text row, the
    #: tests and CI steps that check it.
    bench: str
    #: "Paper artifact" (paper table) or "Study" (extension table).
    artifact: str = ""
    #: "Paper reports"; None puts the row in the extension table.
    paper: str | None = None
    #: "Reproduction measures": a template over :data:`RowData`, fixed
    #: text for a text row, or None for an entry feeding another row.
    measures: Callable[[RowData], str] | str | None = None
    quick: Mapping[str, Any] = field(default_factory=dict)
    #: ``--full`` / ``REPRO_FULL=1`` kwargs; None means the quick ones.
    full: Mapping[str, Any] | None = None

    def kwargs(self, full: bool = False) -> dict[str, Any]:
        """The driver kwargs of this row's run size."""
        return dict(self.full if full and self.full is not None else self.quick)

    def run(self, full: bool = False, **runtime: Any) -> ExperimentResult:
        """Run the driver at the row's size.

        ``runtime`` (``n_jobs``, ``cache``, ``progress``) only changes how
        the work is executed, never its result; a driver gets the ones its
        signature takes.
        """
        if self.driver is None:
            raise ConfigurationError(f"{self.id} is a text row; it has no driver")
        accepted = inspect.signature(self.driver).parameters
        extra = {k: v for k, v in runtime.items() if k in accepted}
        return self.driver(**self.kwargs(full), **extra)

    def row(self, data: RowData) -> str:
        """This entry's EXPERIMENTS.md table row."""
        measured = self.measures
        if not isinstance(measured, str):
            measured = measured(data)
        cells = [self.id, self.artifact]
        if self.paper is not None:
            cells.append(self.paper)
        cells += [measured, self.bench]
        return "| " + " | ".join(cells) + " |"


def _e2(r: RowData) -> str:
    profiles = r["E2"]["profiles"]
    single16 = [w for w in profiles[0.016]["single"] if w is not None]
    alt18 = min(w for w in profiles[0.018]["alternating"] if w is not None)
    single18 = min(w for w in profiles[0.018]["single"] if w is not None)
    return (
        f"at +16 mV global: W0..W{len(single16)-1} = {single16[0]:.0f}->"
        f"{single16[-1]:.0f} ps monotone, then collapse; alternating decays "
        f"slower (min width {alt18:.0f} vs {single18:.0f} ps at +18 mV)"
    )


def _e3(r: RowData) -> str:
    d = r["E3"]
    fails = d["fail_counts"]
    return (
        f"NMOS map rows dVth_p-independent "
        f"({len(set(d['maps']['nmos (fixed Vref)']))} distinct row patterns) "
        f"vs inverter {len(set(d['maps']['inverter']))}; adaptive recovers "
        f"{fails['nmos (fixed Vref)'] - fails['nmos + adaptive']} corners"
    )


def _e5(r: RowData) -> str:
    d = r["E5"]
    energy = d["energy_report"]
    return (
        f"{d['max_rate']/GBPS:.2f} Gb/s, {energy.fj_per_bit_per_mm:.1f} fJ/bit/mm, "
        f"{energy.power/MW:.2f} mW, {energy.bandwidth_density_gbps_per_um:.2f} "
        f"Gb/s/um, {d['ber'].errors} errors in {d['ber'].transmitted} bits "
        f"(Q-extrapolated {d['ber_extrapolated']:.1e})"
    )


def _e9(r: RowData) -> str:
    power, area = r["E9"]["power_srlr"], r["E9"]["area"]
    return (
        f"{power.buffers/MW:.1f} / {power.control/MW:.1f} / "
        f"{power.datapath/MW:.1f} mW; {area.datapath*1e6:.3f} mm2 = "
        f"{area.datapath_fraction*100:.1f}% of {area.total*1e6:.2f} mm2"
    )


def _e12(r: RowData) -> str:
    p = {k: v.error_probability for k, v in r["E12"]["results"].items()}
    return (
        f"P(err): robust {p['robust']:.3f}, -alternating {p['no_alternating']:.3f}, "
        f"-adaptive {p['no_adaptive']:.3f}, -NMOS-driver {p['no_nmos_driver']:.3f}, "
        f"straightforward {p['straightforward']:.3f}"
    )


def _e14(r: RowData) -> str:
    d = r["E14"]
    run = d["runs"][0]
    saving = run["energy_full_swing"].datapath / run["energy_srlr"].datapath
    return (
        f"datapath energy saving {saving:.2f}x across loads/patterns on a "
        f"{d['k']}x{d['k']} mesh; latency-vs-load curves behave canonically"
    )


def _e23(r: RowData) -> str:
    d = r["E23"]
    outcome = d["outcome"]
    paper = outcome.paper_point
    on_front = "ON" if outcome.paper_on_front else "NOT on"
    densest = "remains" if outcome.beats_baseline_density else "is not"
    return (
        f"NSGA-II over (swing, pitch) with the Fig. 6 yield gate (P(die fail) "
        f"<= {d['yield_gate']:g} over {d['mc_runs']} dies): "
        f"{len(outcome.result.records)} candidates, "
        f"{len(outcome.result.front)}-point front; the reproduced operating "
        f"point ({paper['energy_fj_per_bit_per_cm']:.0f} fJ/bit/cm at "
        f"{paper['bandwidth_density_gbps_per_um']:.2f} Gb/s/um) is {on_front} "
        f"the computed front and {densest} the densest design in the pool with "
        "the Table I baselines added — the frontier claim holds against an "
        "adversarial search, not just the published points"
    )


def _ber(value: float) -> str:
    return f"{value:.0e}".replace("e-0", "e-")


def _e24(r: RowData) -> str:
    campaign, crossover = r["E24"]["campaign"], r["E24"]["crossover"]

    def eff(ber: float, protocol: str) -> float:
        return campaign.point(ber, protocol).effective_fj_per_bit_mm

    e2e_loses = all(
        eff(ber, "e2e") >= eff(ber, "crc") for ber in campaign.config.bers
    )
    return (
        f"effective fJ/bit/mm vs raw link BER, 4x4 mesh: at 1e-6 the "
        f"unprotected link wins ({eff(1e-6, 'none'):.1f} vs CRC "
        f"{eff(1e-6, 'crc'):.1f} — the check-bit tax buys nothing); by 1e-3 "
        f"CRC wins {eff(1e-3, 'crc'):.1f} vs {eff(1e-3, 'none'):.1f} and at "
        f"1e-2 by {eff(1e-2, 'none') / eff(1e-2, 'crc'):.0f}x "
        f"({eff(1e-2, 'crc'):.1f} vs {eff(1e-2, 'none'):.0f}) as corrupted "
        "payloads destroy the unprotected denominator; e2e retry "
        f"{'never beats' if e2e_loses else 'sometimes beats'} link-level CRC; "
        f"crossover at BER >= {_ber(crossover)}; "
        "per-link counts bitwise identical for any --jobs"
    )


def _e27(r: RowData) -> str:
    d = r["E27"]

    def prices(mode: str) -> str:
        return "/".join(f"{e:.0f}" for (_, m), e in d["energy"].items() if m == mode)

    return (
        "workloads as a content-hashed experiment axis: uniform / bursty "
        "(Markov on/off) / collective-multicast / trace-replay traffic priced "
        f"with data-dependent link energy — random payload bits land at "
        f"{prices('random')} fJ/bit/mm (uniform/bursty/collective, 4x4 mesh at "
        f"{d['injection_rate']:g} load) vs {prices('constant')} under the "
        "all-toggle constant model, with an opposing-pair crosstalk "
        "transition costing "
        f"+{d['miller_fraction'] * 100:.1f}% (the E15 coupled-line Miller "
        "fraction); a recorded trace replays bitwise on both engines, "
        "campaign identity follows the trace's *content* (not path or "
        "format), and the worst-case reduction — all-toggle payload, "
        "coupling off — prices bitwise equal to the constant model"
    )


#: Fig. 6 swing points and Monte Carlo dies per design (paper: 1000).
_FIG6_QUICK = {"swings": (0.28, 0.30, 0.32), "n_runs": 300}
_FIG6_FULL = {"swings": (0.27, 0.285, 0.30, 0.315, 0.33), "n_runs": 1000}

REGISTRY: tuple[Experiment, ...] = (
    Experiment(
        "E1", e1_fig4_waveforms, "test_bench_fig4_waveforms.py",
        "Fig. 4 waveforms", "low-swing IN, X discharge/reset, full-swing OUT",
        lambda r: (
            f"IN peak {r['E1']['in_peak']:.2f} V, X standby "
            f"{r['E1']['x_standby']:.2f} V, OUT {r['E1']['out_peak']:.1f} V, "
            f"width {r['E1']['out_width_ps']:.0f} ps"
        ),
    ),
    Experiment(
        "E2", e2_pulse_width_dynamics, "test_bench_pulsewidth_dynamics.py",
        "Eq. (1)/(2)", "single-cell widths drift monotonically at skewed corners",
        _e2,
    ),
    Experiment(
        "E3", e3_driver_modes, "test_bench_driver_modes.py",
        "Sec. III-B driver modes", "inverter: 2 failure modes; NMOS: 1 (weak-NMOS)",
        _e3,
    ),
    Experiment(
        "E4", e4_fig6_montecarlo, "test_bench_fig6_montecarlo.py",
        "Fig. 6 Monte Carlo",
        "robust ~3.7x higher process-variation immunity at the selected swing",
        lambda r: (
            f"immunity ratio {r['E4']['immunity_ratio']:.2f}x at "
            f"{r['E4']['selected_swing']*1000:.0f} mV; error probability falls "
            "with swing for both designs"
        ),
        quick=_FIG6_QUICK, full=_FIG6_FULL,
    ),
    Experiment(
        "E5", e5_headline, "test_bench_headline.py",
        "Sec. IV headline",
        "4.1 Gb/s, 40.4 fJ/bit/mm, 1.66 mW, 6.83 Gb/s/um, BER<1e-9",
        _e5,
        full={"n_ber_bits": 500_000},
    ),
    Experiment(
        "E6", e6_fig8_energy_density, "test_bench_fig8_energy_density.py",
        "Fig. 8 plane",
        "SRLR: highest density at competitive energy (Pareto frontier)",
        lambda r: (
            f"on frontier: {r['E6']['on_pareto_frontier']}; highest density: "
            f"{r['E6']['highest_density']}; lowest energy among >4 Gb/s/um "
            f"designs: {r['E6']['beats_high_density_rivals']}"
        ),
    ),
    Experiment(
        "E7", e7_table1, "test_bench_table1.py",
        "Table I", "404 fJ/bit/cm single-ended vs 340-680 differential",
        lambda r: (
            f"reproduced This-Work row: "
            f"{r['E7']['measured_energy_fj_per_bit_per_cm']:.0f} fJ/bit/cm, "
            "single-ended, 6.83 Gb/s/um"
        ),
    ),
    Experiment(
        "E8", e8_bias_overhead, "test_bench_bias_overhead.py",
        "Bias overhead", "587 uW = 0.6% of a 64-bit 10 mm link",
        lambda r: f"{r['E8']['fraction_64']*100:.2f}% at 64 bits",
    ),
    Experiment(
        "E9", e9_router_power, "test_bench_router_power.py",
        "Router split",
        "buffers 38.8 / control 5.2 / datapath 12.9 mW; area 0.061 mm2 = 18% "
        "of 0.34 mm2",
        _e9,
    ),
    Experiment(
        "E10", e10_noc_breakdown, "test_bench_noc_breakdown.py",
        "NoC breakdowns", "datapath share: RAW 69%, TRIPS 64%, TeraFLOPS 32%",
        lambda r: (
            "published values tabulated; our full-swing router model's "
            f"datapath share "
            f"{r['E10']['model_full_swing'].fraction('datapath')*100:.0f}% "
            "falls in the published band"
        ),
    ),
    Experiment(
        "E11", e11_multicast, "test_bench_multicast.py",
        "Multicast for free", "1-to-N at every intermediate repeater",
        lambda r: (
            f"tree-vs-unicast hop saving {r['E11']['savings'][4]:.2f}x at "
            f"degree 4 ({r['E11']['savings'][16]:.2f}x at 16) on an 8x8 mesh; "
            f"simulated energy saving {r['E11b']['energy_saving']:.2f}x with "
            f"{r['E11b']['tree'].tap_deliveries} tap deliveries"
        ),
        full={"n_samples": 400},
    ),
    Experiment(
        "E11b", e11_multicast_simulated, "test_bench_multicast.py",
        full={"measure": 1500},
    ),
    Experiment(
        "E12", e12_ablation, "test_bench_ablation_robustness.py",
        "(ablation)", "the three Sec. III techniques compose the robustness",
        _e12,
        quick={"n_runs": _FIG6_QUICK["n_runs"]},
        full={"n_runs": _FIG6_FULL["n_runs"]},
    ),
    Experiment(
        "E13", e13_sizing, "test_bench_sizing_sweep.py",
        "(ablation)", "SRLR sized for the 1 mm router-to-router distance",
        lambda r: (
            "1 mm works; 2.5 mm collapses the swing; energy/margin both rise "
            f"with swing; optimal driver "
            f"{r['E13']['driver'].energy_per_bit_per_mm:.1f} fJ/bit/mm at "
            f"{r['E13']['driver'].max_data_rate/GBPS:.2f} Gb/s"
        ),
    ),
    Experiment(
        "E14", e14_noc_traffic, "test_bench_noc_traffic.py",
        "(NoC-level)", "low-swing datapath cuts mesh datapath power",
        _e14,
        full={"k": 6, "measure": 1500},
    ),
    Experiment(
        "E15", e15_crosstalk, "test_bench_crosstalk.py",
        "crosstalk on single-ended wires",
        measures=lambda r: (
            "at the paper's spacing the margins hold (noise "
            f"{r['E15']['points'][2]['noise']*1000:.0f} mV vs "
            f"{r['E15']['margin']*1000:.0f} mV margin); at 0.6x spacing they "
            "break — density buys energy AND robustness"
        ),
    ),
    Experiment(
        "E16", e16_bypass, "test_bench_bypass_and_bus.py",
        "router pipeline bypass",
        measures=lambda r: (
            f"latency {r['E16']['runs'][0]['latency_base']:.1f} -> "
            f"{r['E16']['runs'][0]['latency_bypass']:.1f} cycles at low load; "
            "buffer access energy largely eliminated below saturation"
        ),
        full={"measure": 1500},
    ),
    Experiment(
        "E17", e17_bus, "test_bench_bypass_and_bus.py",
        "64-bit parallel datapath",
        measures=lambda r: (
            f"lane skew {min(r['E17']['skews'])*1e12:.0f}-"
            f"{max(r['E17']['skews'])*1e12:.0f} ps (<< UI); bus failure "
            f"{r['E17']['yield'].bus_failure_probability:.2f} vs "
            "independent-lanes bound "
            f"{r['E17']['yield'].independence_prediction:.2f} (global corner "
            "correlates lanes)"
        ),
        full={"n_runs": 120},
    ),
    Experiment(
        "E18", e18_temperature, "test_bench_temperature_and_system.py",
        "temperature (footnote 3)",
        measures=lambda r: (
            f"adaptive window {r['E18']['adaptive_window']} degC vs fixed "
            f"{r['E18']['fixed_window']} degC; hot-side limits are mobility "
            "derating"
        ),
    ),
    Experiment(
        "E19", e19_system_studies, "test_bench_temperature_and_system.py",
        "system studies",
        measures=lambda r: (
            f"{r['E19']['chip'].srlr.k}x{r['E19']['chip'].srlr.k} chip: SRLR "
            f"cuts NoC power {r['E19']['chip'].noc_power_reduction*100:.0f}%; "
            "mesh beats Clos at every locality (crossover "
            f"{r['E19']['crossover_locality']:.2f}); max serialization 4:1 at "
            "1 GHz flits"
        ),
    ),
    Experiment(
        "E20", e20_routing, "test_bench_routing_and_scaling.py",
        "O1TURN routing",
        measures=lambda r: (
            f"at transpose load {r['E20']['runs'][-1]['rate']}: XY "
            f"{r['E20']['runs'][-1]['xy'].average_latency:.0f} vs O1TURN "
            f"{r['E20']['runs'][-1]['o1turn'].average_latency:.0f} cycles"
        ),
        full={"measure": 500},
    ),
    Experiment(
        "E21", e21_tech_scaling, "test_bench_routing_and_scaling.py",
        "technology scaling (Sec. I claim)",
        measures=lambda r: (
            "full-swing datapath share grows "
            f"{r['E21']['points'][0]['fs_datapath_share']*100:.0f}% -> "
            f"{r['E21']['points'][-1]['fs_datapath_share']*100:.0f}% across "
            "nodes; SRLR leverage grows with it"
        ),
    ),
    Experiment(
        "E22", e22_equalized_baseline, "test_bench_equalized_baseline.py",
        "equalized baseline, simulated",
        measures=lambda r: (
            "unequalized 10 mm wire: "
            f"{r['E22']['points'][0]['rate']/1e9:.2f} Gb/s; 5-tap FFE "
            f"{r['E22']['points'][-1]['rate']/1e9:.2f} Gb/s at "
            f"{r['E22']['points'][-1]['energy']:.0f} fJ/bit/cm; SRLR "
            f"{r['E22']['srlr_rate']/1e9:.2f} Gb/s at "
            f"{r['E22']['srlr_energy']:.0f} fJ/bit/cm"
        ),
    ),
    Experiment(
        "E23", e23_fig8_frontier, "test_bench_fig8_energy_density.py",
        "Fig. 8 re-cast as a searched frontier", measures=_e23,
    ),
    Experiment(
        "E24", e24_fault_protection, "test_bench_fault_campaigns.py",
        "fault injection vs protection", measures=_e24,
    ),
    Experiment(
        "E25", None,
        "`tests/test_service_*.py`; CI `service smoke` runs "
        "`scripts/smoke_service.py` (docs/SERVICE.md)",
        "campaign service",
        measures=(
            "queue-backed campaign database: a fault campaign drained by two "
            "workers with one SIGKILLed mid-lease merges bitwise-identical to "
            "the single-process run; byte-identical resubmission reuses "
            "existing rows (no recompute), a changed config refuses to "
            "attach; double completion impossible under the lease-owner guard"
        ),
    ),
    Experiment(
        "E26", None,
        "`tests/test_noc_topology_family.py`, "
        "`tests/test_noc_fastsim_parity.py`; CI `topology smoke` "
        "(docs/TOPOLOGY.md)",
        "topology zoo",
        measures=(
            "the mesh studies generalized to a topology family: concentrated "
            "mesh (c cores/router), torus (up*/down* table routing — dimension "
            "order deadlocks on the wrap cycles), and a two-level chiplet "
            "NoC/NoI whose longer NoI wires are priced per link in effective "
            "fJ/bit/mm; flat-mesh runs stay bitwise identical to the "
            "pre-family golden regressions, torus/cmesh/chiplet run on the "
            "fast engine with exact parity (the chiplet's 6-port "
            "gateway/interface routers set its port stride to 6); every "
            "family member's routing CDG is verified acyclic"
        ),
    ),
    Experiment(
        "E27", e27_workload_energy, "test_bench_fault_campaigns.py",
        "workload axis", measures=_e27,
    ),
)

_BY_ID: dict[str, Experiment] = {e.id: e for e in REGISTRY}


def experiment(experiment_id: str) -> Experiment:
    """The registry entry ``experiment_id`` (named error if unknown)."""
    try:
        return _BY_ID[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"no experiment {experiment_id!r}; known: {', '.join(_BY_ID)}"
        ) from None


def render_experiments_md(data: RowData, full: bool = False) -> str:
    """EXPERIMENTS.md from the result data of every run entry."""
    n_runs = experiment("E4").kwargs(full)["n_runs"]
    rows = [e for e in REGISTRY if e.measures is not None]
    paper_rows = "\n".join(e.row(data) for e in rows if e.paper is not None)
    extension_rows = "\n".join(e.row(data) for e in rows if e.paper is None)
    r4, r5 = data["E4"], data["E5"]
    return f"""# EXPERIMENTS — paper vs. reproduction

Generated by `scripts/run_all_experiments.py`{' --full' if full else ''},
which writes this file and `results/` from one run of each entry of the
experiment registry (`repro.analysis.registry`); CI re-runs it and fails
on any difference from the committed copies.
Monte Carlo points use {n_runs} dies per design (paper: 1000).
Re-run any row with its benchmark at the same size:
`pytest benchmarks/<bench> --benchmark-only -s` (`REPRO_FULL=1` for
`--full`); each writes the row's report to `benchmarks/output/*.txt`.
The Monte Carlo blocks fan out across worker processes (`--jobs N` here,
`n_jobs=`/`--jobs` in the drivers) and can reuse an on-disk result cache
(`--cache`); results are bitwise identical for every worker count, and
the headline numbers below are pinned by `tests/test_golden_regression.py`
under the tolerance policy in `docs/GOLDEN_TESTS.md`.
The NoC-level rows run on the vectorized batch-cycle engine
(`engine="fast"`, the default for analysis drivers and fault campaigns);
it is bitwise-equivalent to the reference simulator for identical seeds —
proven by the differential matrix in `tests/test_noc_fastsim_parity.py` —
and roughly an order of magnitude faster (docs/NOC_FASTSIM.md).

The substrate is a behavioral/analytical circuit model, not the authors'
45 nm SOI silicon, so absolute numbers carry model calibration; the
claims to check are *shape* claims — who wins, by what rough factor,
where failure onsets sit.  Calibration anchors (wire RC, device strength,
swing target) were set once against the headline operating point and then
left alone; everything else below is emergent.

| Exp | Paper artifact | Paper reports | Reproduction measures | Bench |
|---|---|---|---|---|
{paper_rows}

Extensions beyond the paper's evaluation (same substrates, exact solvers):

| Exp | Study | Reproduction measures | Bench |
|---|---|---|---|
{extension_rows}

## Notes and deviations

* **E5 max data rate**: our behavioral link tops out at
  {r5['max_rate']/GBPS:.2f} Gb/s vs the measured 4.1 Gb/s.  The limiting
  mechanism is the same (self-reset dead time ~ trip + Wx + recovery vs the
  unit interval); the ~15-20% optimism is calibration slack we chose not to
  tune away with an artificial dead-time pad.
* **E4/E12 immunity ratio**: lands at {r4['immunity_ratio']:.1f}x
  ({n_runs} dies) vs the paper's ~3.7x (1000 dies).  The decomposition
  (E12) shows the adaptive swing scheme carries most of the advantage in
  our model, the NMOS driver second; the alternating delay cells improve
  the *per-stage* drift (E2: slower collapse, the paper's "takes more
  stages to saturate") but contribute little to the 10-stage pass/fail
  boundary — a genuine, documented divergence between our behavioral
  feedback model and the paper's SPICE-level claim.
* **E1**: X's discharge floor and OUT's edges are piecewise
  reconstructions around exact solver timings, not SPICE traces.
* **BER < 1e-9**: proven in the paper by hours of silicon PRBS; here 0
  errors over the counting run bound BER at ~1e-4..1e-5 and the standard
  Q-factor extrapolation of the worst-stage margin lands below 1e-9.

## Calibration transparency

```
{calibration_report()}
```
"""


__all__ = [
    "Experiment",
    "REGISTRY",
    "experiment",
    "render_experiments_md",
]
