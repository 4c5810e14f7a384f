"""One driver per paper table/figure (the per-experiment index of DESIGN.md).

Every function returns an :class:`ExperimentResult`: structured data plus
a rendered text report.  The experiment registry
(:mod:`repro.analysis.registry`) holds the kwargs each row runs them
with; ``scripts/run_all_experiments.py`` and the benchmarks both take
them from there, and EXPERIMENTS.md records the outcomes against the
paper's numbers.  Experiment ids follow DESIGN.md (E25 and E26 have no
driver: the tests named in their EXPERIMENTS.md rows check them):

=====  ==============================================================
E1     Fig. 4 — SRLR waveforms
E2     Eq. (1)/(2) — pulse-width drift across stages at skewed corners
E3     Section III-B — driver failure modes
E4     Fig. 6 — Monte Carlo error probability vs swing
E5     Section IV — headline link metrics
E6     Fig. 8 — energy vs bandwidth density plane
E7     Table I — comparison of silicon-proven interconnects
E8     Section IV — bias generator overhead
E9     Section IV — router power/area split
E10    Section I — mesh NoC power breakdowns
E11    Section II — multicast-for-free
E11b   Section II — multicast-for-free, cycle-level simulation
E12    ablation — robustness technique decomposition
E13    ablation — sizing sweeps (segment length, swing, driver)
E14    NoC-level — latency/throughput/energy under traffic
E15    extension — crosstalk robustness of the single-ended wires
E16    extension — router pipeline bypass (buffer power mitigation)
E17    extension — the 64-bit parallel SRLR datapath (skew, bus yield)
E18    extension — temperature tracking of the adaptive swing scheme
E19    extension — system studies: chip power, mesh-vs-Clos, serialization
E20    extension — O1TURN adaptive routing vs XY under adversarial traffic
E21    extension — technology scaling: the datapath share grows with nodes
E22    extension — repeaterless/equalized links vs repeating, simulated
E23    extension — Fig. 8 re-cast as an NSGA-II searched Pareto frontier
E24    extension — fault injection: effective energy vs raw BER per protocol
E25    extension — campaign service (no driver)
E26    extension — topology family (no driver)
E27    extension — workload axis: data-dependent link energy per workload
=====  ==============================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.analysis.report import format_kv, format_table
from repro.circuit import (
    NMOSDriver,
    SRLRLink,
    alternating_plan,
    robust_design,
    single_plan,
    straightforward_design,
    stage_waveforms,
    waveform_table,
)
from repro.circuit.bias import fixed_for_amplitude
from repro.circuit.srlr import DEFAULT_NOMINAL_SWING, _nmos_amplitude_for_swing
from repro.energy import (
    RouterPowerModel,
    bias_overhead,
    full_swing_link_energy,
    srlr_link_energy,
    table1_designs,
    this_work,
)
from repro.energy.router import PUBLISHED_NOC_BREAKDOWNS, datapath_share
from repro.mc import (
    default_stress_pattern,
    design_variants,
    immunity_ratio,
    measure_ber,
    q_factor_ber,
    run_monte_carlo,
    sweep_swing,
)
from repro.noc import (
    MeshTopology,
    NocConfig,
    NocSimulator,
    SyntheticTraffic,
    multicast_tree_links,
    price_stats,
    tap_destinations,
    unicast_path_hops,
)
from repro.tech import GlobalCorner, corner_sample, tech_45nm_soi
from repro.units import GBPS, MM, MW, PS, UM


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment."""

    experiment_id: str
    title: str
    data: dict[str, Any] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# --------------------------------------------------------------------------- E1


def e1_fig4_waveforms(stage_index: int = 3, n_rows: int = 24) -> ExperimentResult:
    """Fig. 4: IN / node X / OUT waveforms of one repeater."""
    link = SRLRLink(robust_design())
    wf = stage_waveforms(link, stage_index)
    rows = waveform_table(wf, n_rows)
    text = format_table(
        ["t [ps]", "IN [V]", "node X [V]", "OUT [V]"],
        [[f"{r[0]:.0f}", f"{r[1]:.3f}", f"{r[2]:.3f}", f"{r[3]:.3f}"] for r in rows],
        title=f"E1 / Fig. 4 — SRLR waveforms (stage {stage_index})",
    )
    data = {
        "in_peak": float(np.max(wf.v_in)),
        "out_peak": float(np.max(wf.v_out)),
        "x_standby": float(wf.v_x[0]),
        "out_width_ps": wf.out_width / PS,
        "rows": rows,
    }
    summary = format_kv(
        "Fig. 4 checkpoints",
        [
            ("IN peak (low swing) [V]", data["in_peak"]),
            ("OUT peak (full swing) [V]", data["out_peak"]),
            ("X standby = Vdd - Vth [V]", data["x_standby"]),
            ("OUT width [ps]", data["out_width_ps"]),
        ],
    )
    return ExperimentResult("E1", "Fig. 4 SRLR waveforms", data, text + "\n\n" + summary)


# --------------------------------------------------------------------------- E2


def e2_pulse_width_dynamics(
    corner_shifts: tuple[float, ...] = (0.0, 0.014, 0.016, 0.018),
    n_stages: int = 10,
) -> ExperimentResult:
    """Eq. (1)/(2): per-stage output pulse widths under global corners.

    Uses a fixed (non-adaptive) swing reference so the corner shift is
    uncompensated, exposing the drift the delay-cell design must survive:
    the single-cell design's widths shrink monotonically (Eq. (1)) until
    the pulse dies; the alternating design decays more slowly ("takes
    more stages to saturate", Section III-A).
    """
    tech = tech_45nm_soi()
    amplitude = _nmos_amplitude_for_swing(
        tech, DEFAULT_NOMINAL_SWING, NMOSDriver(), 1 * MM
    )
    fixed = fixed_for_amplitude(tech, amplitude)

    def profile(plan, dv: float) -> list[float | None]:
        design = dataclasses.replace(
            robust_design(n_stages=n_stages),
            delay_plan=plan,
            swing_reference=fixed,
        )
        sample = corner_sample(tech, GlobalCorner("drift", dv, dv))
        records = SRLRLink(design, sample).propagate_pulse(dwell_limit=1 / 4.1e9)
        widths: list[float | None] = [
            (r.out_width / PS if r.fired else None) for r in records
        ]
        widths += [None] * (n_stages - len(widths))
        return widths

    rows = []
    data: dict[str, Any] = {"profiles": {}}
    for dv in corner_shifts:
        single = profile(single_plan(), dv)
        alt = profile(alternating_plan(), dv)
        data["profiles"][dv] = {"single": single, "alternating": alt}
        rows.append(
            [f"+{dv*1000:.0f} mV", "single"]
            + [("-" if w is None else f"{w:.0f}") for w in single]
        )
        rows.append(
            [f"+{dv*1000:.0f} mV", "alternating"]
            + [("-" if w is None else f"{w:.0f}") for w in alt]
        )
    headers = ["dVth(global)", "delay cells"] + [f"W{n}" for n in range(n_stages)]
    text = format_table(
        headers,
        rows,
        title="E2 / Eq.(1) — output pulse width [ps] per stage (fixed Vref)",
    )
    # Quantify the "more stages to saturate" claim at the strongest shift
    # that still lets stage 0 fire.
    last = corner_shifts[-1]
    s_alive = sum(1 for w in data["profiles"][last]["single"] if w is not None)
    a_alive = sum(1 for w in data["profiles"][last]["alternating"] if w is not None)
    data["stages_alive_single"] = s_alive
    data["stages_alive_alternating"] = a_alive
    text += (
        f"\n\nAt dVth=+{last*1000:.0f} mV the single design propagates "
        f"{s_alive} stages, the alternating design {a_alive}."
    )
    return ExperimentResult("E2", "Pulse-width drift (Eq. 1/2)", data, text)


# --------------------------------------------------------------------------- E3


def e3_driver_modes(
    shifts: tuple[float, ...] = (-0.075, -0.045, 0.0, 0.045, 0.075),
    bit_rate: float = 4.1e9,
) -> ExperimentResult:
    """Section III-B: corner-plane failure maps of the two drivers.

    The inverter-driver design fails in two regions of the (dVth_n,
    dVth_p) plane — weak PMOS (insufficient swing) and strong PMOS / weak
    NMOS (the '11110' residual failure) — while the NMOS driver's plane
    collapses to a single weak-NMOS edge, insensitive to dVth_p.
    """
    tech = tech_45nm_soi()
    pattern = default_stress_pattern()
    variants = design_variants(tech)
    designs = {
        "nmos (fixed Vref)": variants["no_adaptive"],
        "nmos + adaptive": variants["robust"],
        "inverter": straightforward_design(tech),
    }
    maps: dict[str, list[str]] = {}
    fail_counts: dict[str, int] = {}
    for key, design in designs.items():
        grid_rows = []
        fails = 0
        for dvp in shifts:
            row = ""
            for dvn in shifts:
                sample = corner_sample(tech, GlobalCorner("map", dvn, dvp))
                outcome = SRLRLink(design, sample).transmit(pattern, 1.0 / bit_rate)
                ok = outcome.ok
                fails += 0 if ok else 1
                row += "." if ok else "X"
            grid_rows.append(row)
        maps[key] = grid_rows
        fail_counts[key] = fails
    lines = [
        "E3 / Section III-B — corner-plane pass maps",
        f"(rows: dVth_p from {shifts[0]:+.3f} V to {shifts[-1]:+.3f} V; "
        f"columns: dVth_n likewise; '.' pass, 'X' fail)",
        "",
    ]
    for key in designs:
        lines.append(f"{key} driver:")
        for dvp, row in zip(shifts, maps[key]):
            lines.append(f"  dvp={dvp:+.3f}  {row}")
        lines.append("")
    # The paper's point is about failure *modes*: the NMOS driver's map
    # should be a dVth_p-independent band (one mode: weak NMOS), while the
    # inverter's map varies with dVth_p (two modes).  Quantify both.
    nmos_rows = set(maps["nmos (fixed Vref)"])
    inverter_rows = set(maps["inverter"])
    lines.append(
        f"distinct failure rows across dVth_p: nmos {len(nmos_rows)} "
        f"(single weak-NMOS mode) vs inverter {len(inverter_rows)} "
        f"(PMOS-dependent modes)"
    )
    lines.append(
        "failing corners: "
        + ", ".join(f"{k}: {v}/{len(shifts)**2}" for k, v in fail_counts.items())
    )
    data = {"maps": maps, "fail_counts": fail_counts, "shifts": shifts}
    return ExperimentResult("E3", "Driver failure modes", data, "\n".join(lines))


# --------------------------------------------------------------------------- E4


def e4_fig6_montecarlo(
    swings: tuple[float, ...] = (0.27, 0.285, 0.30, 0.315, 0.33),
    n_runs: int = 1000,
    n_jobs: int | None = 1,
    cache=None,
    progress=None,
) -> ExperimentResult:
    """Fig. 6: Monte Carlo error probability vs swing, both designs.

    The immunity ratio at the selected (default) swing reproduces the
    paper's "about 3.7 times higher process variation immunity".
    ``n_jobs``/``cache``/``progress`` go to the parallel runtime; results
    are identical for every worker count.
    """
    result = sweep_swing(
        list(swings),
        ["robust", "straightforward"],
        n_runs=n_runs,
        n_jobs=n_jobs,
        cache=cache,
        progress=progress,
    )
    rows = []
    for point in result.points:
        rows.append(
            [
                f"{point.swing*1000:.0f} mV",
                f"{point.error_probability('straightforward'):.3f}",
                f"{point.error_probability('robust'):.3f}",
            ]
        )
    text = format_table(
        ["nominal swing", "straightforward P(err)", "robust P(err)"],
        rows,
        title=f"E4 / Fig. 6 — {n_runs}-run Monte Carlo error probability",
    )
    # Immunity at the selected swing (nearest to the default).
    selected = min(swings, key=lambda s: abs(s - DEFAULT_NOMINAL_SWING))
    point = result.points[list(swings).index(selected)]
    ratio = immunity_ratio(
        point.results["straightforward"], point.results["robust"]
    )
    bound_note = " (lower bound)" if ratio.is_lower_bound else ""
    text += (
        f"\n\nSelected swing {selected*1000:.0f} mV: immunity ratio "
        f"{ratio:.2f}x{bound_note} (paper: ~3.7x)"
    )
    data = {
        "sweep": result,
        "selected_swing": selected,
        "immunity_ratio": ratio,
    }
    return ExperimentResult("E4", "Fig. 6 Monte Carlo", data, text)


# --------------------------------------------------------------------------- E5


def e5_headline(n_ber_bits: int = 50_000, noise_sigma: float = 0.004) -> ExperimentResult:
    """Section IV headline: rate, energy, density, BER, latency at TT."""
    design = robust_design()
    link = SRLRLink(design)
    pattern = default_stress_pattern()
    max_rate = link.max_data_rate(pattern)
    report = srlr_link_energy(design)
    fs = full_swing_link_energy(design)
    ber = measure_ber(link, 1.0 / 4.1e9, n_bits=n_ber_bits, noise_sigma=noise_sigma)
    # Analytic extrapolation of the BER from the worst-stage margin, the
    # standard way 1e-9-class claims are supported.  The binding margin at
    # speed is the *rate-limited* sensing floor: the trip must complete in
    # the slack the unit interval leaves after the self-reset (Wx +
    # recovery), which is far tighter than the DC sensitivity floor.
    bit_period = 1.0 / 4.1e9
    margin = min(
        DEFAULT_NOMINAL_SWING
        - s.sensitivity_swing(
            max(bit_period - s.wx - design.reset_recovery, 10 * PS)
        )
        for s in link.stages
    )
    ber_extrapolated = q_factor_ber(max(margin, 0.0), noise_sigma)
    latency = link.latency()
    pairs = [
        ("max data rate [Gb/s] (paper 4.1)", max_rate / GBPS),
        ("energy [fJ/bit/mm] (paper 40.4)", report.fj_per_bit_per_mm),
        ("energy [fJ/bit/cm] (paper 404)", report.fj_per_bit_per_cm),
        ("link power @4.1G [mW] (paper 1.66)", report.power / MW),
        ("bandwidth density [Gb/s/um] (paper 6.83)", report.bandwidth_density_gbps_per_um),
        ("BER observed (errors/bits)", f"{ber.errors}/{ber.transmitted}"),
        ("BER 95% upper bound", ber.upper_bound),
        ("BER Q-factor extrapolation (paper <1e-9)", ber_extrapolated),
        ("10mm latency [ps]", latency / PS),
        ("full-swing baseline [fJ/bit/mm]", fs.fj_per_bit_per_mm),
        ("low-swing saving vs full swing", fs.fj_per_bit_per_mm / report.fj_per_bit_per_mm),
    ]
    text = format_kv("E5 / Section IV — headline link metrics (TT)", pairs)
    data = {
        "max_rate": max_rate,
        "energy_report": report,
        "ber": ber,
        "ber_extrapolated": ber_extrapolated,
        "latency": latency,
        "full_swing": fs,
    }
    return ExperimentResult("E5", "Headline metrics", data, text)


# --------------------------------------------------------------------------- E6


def e6_fig8_energy_density() -> ExperimentResult:
    """Fig. 8: 1 cm link-traversal energy vs bandwidth density plane."""
    designs = table1_designs()
    # Replace the published this-work row with our simulated energy.
    designs[-1] = this_work(srlr_link_energy().fj_per_bit_per_cm)
    rows = []
    curves: dict[str, list[tuple[float, float]]] = {}
    for d in designs:
        curves[d.key] = d.energy_curve()
        rows.append(
            [
                d.citation,
                f"{d.bandwidth_density_gbps_per_um:.3f}",
                f"{d.energy_fj_per_bit_per_cm:.0f}",
                d.signaling,
            ]
        )
    text = format_table(
        ["design", "BW density [Gb/s/um]", "E(10mm LT) [fJ/bit/cm]", "signaling"],
        rows,
        title="E6 / Fig. 8 — operating points (this-work energy is simulated)",
    )
    curve_rows = []
    for key, pts in curves.items():
        for density, energy in pts:
            curve_rows.append([key, f"{density:.3f}", f"{energy:.0f}"])
    text += "\n\n" + format_table(
        ["design", "density [Gb/s/um]", "energy [fJ/bit/cm]"],
        curve_rows,
        title="Fig. 8 curves (pitch-swept around each published point)",
    )
    ours = designs[-1]
    others = designs[:-1]
    # Fig. 8's claim: the SRLR point sits on the Pareto frontier — no
    # prior design reaches its bandwidth density at equal-or-lower energy
    # — and it holds the highest density outright (as in the paper, where
    # 404 fJ/bit/cm at 6.83 Gb/s/um beats every >4 Gb/s/um competitor on
    # energy while the low-density repeaterless links sit far left).
    on_frontier = not any(
        d.bandwidth_density_gbps_per_um >= ours.bandwidth_density_gbps_per_um
        and d.energy_fj_per_bit_per_cm <= ours.energy_fj_per_bit_per_cm
        for d in others
    )
    highest_density = all(
        ours.bandwidth_density_gbps_per_um > d.bandwidth_density_gbps_per_um
        for d in others
    )
    beats_high_density_rivals = all(
        ours.energy_fj_per_bit_per_cm < d.energy_fj_per_bit_per_cm
        for d in others
        if d.bandwidth_density_gbps_per_um > 4.0
    )
    text += (
        f"\n\nPareto frontier membership: {on_frontier}; highest density: "
        f"{highest_density}; lowest energy among >4 Gb/s/um designs: "
        f"{beats_high_density_rivals}."
    )
    data = {
        "designs": designs,
        "curves": curves,
        "on_pareto_frontier": on_frontier,
        "highest_density": highest_density,
        "beats_high_density_rivals": beats_high_density_rivals,
    }
    return ExperimentResult("E6", "Fig. 8 energy vs density", data, text)


# --------------------------------------------------------------------------- E7


def e7_table1() -> ExperimentResult:
    """Table I: the comparison table, plus our reproduced this-work row."""
    designs = table1_designs()
    measured = srlr_link_energy()
    rows = []
    for d in designs:
        rows.append(
            [
                d.citation,
                d.signaling,
                f"{d.data_rate / GBPS:.1f}",
                f"{d.bandwidth_density_gbps_per_um:.3f}",
                f"{d.energy_fj_per_bit_per_cm:.0f}",
                d.repeater_note,
                d.tech.name,
            ]
        )
    rows.append(
        [
            "This Work (reproduced)",
            "single-ended",
            "4.1",
            f"{measured.bandwidth_density_gbps_per_um:.3f}",
            f"{measured.fj_per_bit_per_cm:.0f}",
            "10 repeaters",
            "45nm SOI CMOS (model)",
        ]
    )
    text = format_table(
        [
            "design",
            "signaling",
            "rate [Gb/s]",
            "density [Gb/s/um]",
            "E 10mm LT [fJ/b/cm]",
            "repeaters",
            "process",
        ],
        rows,
        title="E7 / Table I — comparison of silicon-proven on-chip interconnects",
    )
    data = {"designs": designs, "measured_energy_fj_per_bit_per_cm": measured.fj_per_bit_per_cm}
    return ExperimentResult("E7", "Table I", data, text)


# --------------------------------------------------------------------------- E8


def e8_bias_overhead(n_bits_options: tuple[int, ...] = (1, 16, 64, 256)) -> ExperimentResult:
    """Section IV: the 587 uW bias generator amortized over link width."""
    rows = []
    reports = {}
    for n_bits in n_bits_options:
        rep = bias_overhead(n_bits=n_bits)
        reports[n_bits] = rep
        rows.append(
            [
                n_bits,
                f"{rep.link_power / MW:.2f}",
                f"{rep.bias_power * 1e6:.0f}",
                f"{rep.fraction * 100:.2f}%",
            ]
        )
    text = format_table(
        ["link width [bits]", "link power [mW]", "bias power [uW]", "bias share"],
        rows,
        title="E8 / Section IV — adaptive-swing bias generator overhead "
        "(paper: 0.6% at 64 bits)",
    )
    data = {"reports": reports, "fraction_64": reports[64].fraction if 64 in reports else None}
    return ExperimentResult("E8", "Bias overhead", data, text)


# --------------------------------------------------------------------------- E9


def e9_router_power() -> ExperimentResult:
    """Section IV: router power split and area fractions."""
    model = RouterPowerModel()
    srlr = model.power_breakdown(1.0, "srlr")
    fs = model.power_breakdown(1.0, "full_swing")
    area = model.area_breakdown()
    pairs = [
        ("buffers [mW] (paper 38.8)", srlr.buffers / MW),
        ("control [mW] (paper 5.2)", srlr.control / MW),
        ("SRLR datapath [mW] (paper 12.9)", srlr.datapath / MW),
        ("full-swing datapath [mW]", fs.datapath / MW),
        ("datapath saving", fs.datapath / srlr.datapath),
        ("SRLR datapath area [mm^2] (paper 0.061)", area.datapath * 1e6),
        ("router area [mm^2] (paper 0.34)", area.total * 1e6),
        ("datapath area share (paper ~18%)", f"{area.datapath_fraction*100:.1f}%"),
    ]
    text = format_kv("E9 / Section IV — 64b 5-port router power & area", pairs)
    data = {"power_srlr": srlr, "power_full_swing": fs, "area": area}
    return ExperimentResult("E9", "Router power & area", data, text)


# --------------------------------------------------------------------------- E10


def e10_noc_breakdown() -> ExperimentResult:
    """Section I: published NoC power breakdowns + our model's split."""
    rows = []
    for chip, parts in PUBLISHED_NOC_BREAKDOWNS.items():
        rows.append(
            [
                chip,
                f"{parts['links']:.0f}%",
                f"{parts['crossbar']:.0f}%",
                f"{parts['buffers']:.0f}%",
                f"{datapath_share(chip):.0f}%",
            ]
        )
    model = RouterPowerModel()
    fs = model.power_breakdown(1.0, "full_swing")
    # Split our datapath into link and crossbar parts by wire length share.
    link_share = 1.0 / (1.0 + model._XBAR_LENGTH_FACTOR)
    rows.append(
        [
            "this model (full swing)",
            f"{fs.fraction('datapath') * link_share * 100:.0f}%",
            f"{fs.fraction('datapath') * (1 - link_share) * 100:.0f}%",
            f"{fs.fraction('buffers') * 100:.0f}%",
            f"{fs.fraction('datapath') * 100:.0f}%",
        ]
    )
    text = format_table(
        ["chip", "links", "crossbar", "buffers", "datapath (links+xbar)"],
        rows,
        title="E10 / Section I — mesh NoC power breakdowns",
    )
    data = {"published": PUBLISHED_NOC_BREAKDOWNS, "model_full_swing": fs}
    return ExperimentResult("E10", "NoC power breakdowns", data, text)


# --------------------------------------------------------------------------- E11


def e11_multicast(
    k: int = 8,
    degrees: tuple[int, ...] = (2, 4, 8, 16),
    n_samples: int = 200,
    seed: int = 11,
) -> ExperimentResult:
    """Section II: the free-multicast benefit.

    Analytic part: XY-tree link traversals (with SRLR taps) vs the sum of
    unicast paths, averaged over random destination sets.  The tree saves
    every shared prefix once; taps additionally serve straight-through
    destinations without ejection cost.
    """
    topo = MeshTopology(k)
    rng = np.random.default_rng(seed)
    nodes = topo.nodes()
    rows = []
    savings = {}
    for degree in degrees:
        tree_total = 0
        unicast_total = 0
        taps_total = 0
        for _ in range(n_samples):
            src = nodes[int(rng.integers(len(nodes)))]
            others = [n for n in nodes if n != src]
            idx = rng.choice(len(others), degree, replace=False)
            dests = frozenset(others[i] for i in idx)
            tree_total += len(multicast_tree_links(topo, src, dests))
            unicast_total += sum(unicast_path_hops(topo, src, d) for d in dests)
            taps_total += len(tap_destinations(topo, src, dests))
        saving = unicast_total / tree_total
        savings[degree] = saving
        rows.append(
            [
                degree,
                f"{tree_total / n_samples:.1f}",
                f"{unicast_total / n_samples:.1f}",
                f"{saving:.2f}x",
                f"{taps_total / n_samples:.1f}",
            ]
        )
    text = format_table(
        [
            "multicast degree",
            "tree link hops",
            "unicast link hops",
            "hop saving",
            "free tap deliveries",
        ],
        rows,
        title=f"E11 / Section II — 1-to-N multicast on a {k}x{k} mesh",
    )
    data = {"savings": savings, "k": k}
    return ExperimentResult("E11", "Multicast for free", data, text)


def e11_multicast_simulated(
    k: int = 4,
    injection_rate: float = 0.02,
    multicast_degree: int = 4,
    measure: int = 500,
    seed: int = 11,
) -> ExperimentResult:
    """Section II, simulated: tree+taps vs unicast fan-out in the NoC.

    The unicast baseline converts every multicast into ``degree``
    independent packets at the source (what a multicast-blind NoC does).
    """
    def run(as_unicast: bool, taps: bool):
        config = NocConfig(enable_taps=taps)
        topo = MeshTopology(k)
        traffic = SyntheticTraffic(
            topo,
            injection_rate,
            multicast_fraction=0.0 if as_unicast else 1.0,
            multicast_degree=multicast_degree,
            seed=seed,
        )
        if as_unicast:
            # Same aggregate destination demand via unicasts.
            traffic = SyntheticTraffic(
                topo,
                min(injection_rate * multicast_degree, 1.0),
                pattern="uniform",
                seed=seed,
            )
        sim = NocSimulator(k, config=config, traffic=traffic)
        stats = sim.run(warmup=100, measure=measure)
        return stats

    tree_stats = run(as_unicast=False, taps=True)
    uni_stats = run(as_unicast=True, taps=False)
    tree_energy = price_stats(tree_stats, datapath="srlr")
    uni_energy = price_stats(uni_stats, datapath="srlr")
    tree_per = tree_energy.energy_per_delivered_flit(max(tree_stats.delivered_count, 1))
    uni_per = uni_energy.energy_per_delivered_flit(max(uni_stats.delivered_count, 1))
    pairs = [
        ("tree deliveries", tree_stats.delivered_count),
        ("tree tap deliveries", tree_stats.tap_deliveries),
        ("tree avg latency [cyc]", tree_stats.average_latency),
        ("tree energy/delivery [pJ]", tree_per * 1e12),
        ("unicast deliveries", uni_stats.delivered_count),
        ("unicast avg latency [cyc]", uni_stats.average_latency),
        ("unicast energy/delivery [pJ]", uni_per * 1e12),
        ("energy saving (unicast/tree)", uni_per / tree_per),
    ]
    text = format_kv(
        f"E11b — simulated multicast (degree {multicast_degree}, {k}x{k} mesh)", pairs
    )
    data = {
        "tree": tree_stats,
        "unicast": uni_stats,
        "energy_saving": uni_per / tree_per,
    }
    return ExperimentResult("E11b", "Multicast simulated", data, text)


# --------------------------------------------------------------------------- E12


def e12_ablation(
    n_runs: int = 500,
    n_jobs: int | None = 1,
    cache=None,
    progress=None,
) -> ExperimentResult:
    """Ablation: each robustness technique toggled at the selected swing."""
    from repro.runtime import ParallelExecutor

    variants = design_variants()
    order = [
        "robust",
        "no_alternating",
        "no_adaptive",
        "no_nmos_driver",
        "straightforward",
    ]
    executor = ParallelExecutor(n_jobs=n_jobs, progress=progress)
    results = {}
    rows = []
    for key in order:
        res = run_monte_carlo(
            variants[key], n_runs=n_runs, executor=executor, cache=cache
        )
        results[key] = res
        rows.append([key, f"{res.error_probability:.3f}", res.n_failures])
    text = format_table(
        ["variant", "error probability", f"failures / {n_runs}"],
        rows,
        title="E12 — robustness technique ablation (Monte Carlo)",
    )
    ratio = immunity_ratio(results["straightforward"], results["robust"])
    bound_note = " (lower bound)" if ratio.is_lower_bound else ""
    text += (
        f"\n\nstraightforward/robust immunity ratio: {ratio:.2f}x{bound_note} "
        "(paper ~3.7x)"
    )
    data = {"results": results, "immunity_ratio": ratio}
    return ExperimentResult("E12", "Robustness ablation", data, text)


# --------------------------------------------------------------------------- E13


def e13_sizing() -> ExperimentResult:
    """Ablation: segment length, swing-energy trade, driver sizing."""
    from repro.circuit import (
        optimize_driver,
        sweep_segment_length,
        sweep_swing_energy,
    )

    lengths = [0.5 * MM, 1.0 * MM, 2.0 * MM, 2.5 * MM]
    length_points = sweep_segment_length(lengths)
    rows = [
        [
            f"{p.segment_length / MM:.1f}",
            p.ok,
            f"{p.swing_at_receiver * 1000:.0f}",
            ("-" if p.energy_per_bit_per_mm == float("inf") else f"{p.energy_per_bit_per_mm:.1f}"),
        ]
        for p in length_points
    ]
    text = format_table(
        ["segment [mm]", "link works", "receiver swing [mV]", "energy [fJ/b/mm]"],
        rows,
        title="E13a — repeater insertion length (the case for ~1 mm)",
    )
    swing_points = sweep_swing_energy([0.26, 0.28, 0.30, 0.32, 0.34])
    rows = [
        [f"{p.swing*1000:.0f}", f"{p.energy_per_bit_per_mm:.1f}", f"{p.margin*1000:.0f}"]
        for p in swing_points
    ]
    text += "\n\n" + format_table(
        ["swing [mV]", "energy [fJ/b/mm]", "TT sense margin [mV]"],
        rows,
        title="E13b — swing vs energy vs margin",
    )
    driver = optimize_driver([0.6, 0.8, 1.0, 1.3, 1.6])
    text += "\n\n" + format_kv(
        "E13c — driver sizing (min energy at >= 4.1 Gb/s)",
        [
            ("width_up [um]", driver.width_up / UM),
            ("width_down [um]", driver.width_down / UM),
            ("energy [fJ/b/mm]", driver.energy_per_bit_per_mm),
            ("max rate [Gb/s]", driver.max_data_rate / GBPS),
        ],
    )
    data = {
        "length_points": length_points,
        "swing_points": swing_points,
        "driver": driver,
    }
    return ExperimentResult("E13", "Sizing sweeps", data, text)


# --------------------------------------------------------------------------- E14


def e14_noc_traffic(
    k: int = 4,
    rates: tuple[float, ...] = (0.05, 0.15, 0.25, 0.35),
    patterns: tuple[str, ...] = ("uniform", "transpose"),
    measure: int = 400,
    seed: int = 5,
    payload_mode: str = "constant",
    coupling: bool = True,
) -> ExperimentResult:
    """NoC-level: latency/throughput/energy, SRLR vs full-swing datapath.

    ``payload_mode`` selects what bits the flits carry (docs/WORKLOADS.md):
    the default ``"constant"`` prices links at the calibrated worst-case
    per-flit energy (the golden-pinned behavior); ``"random"`` /
    ``"worst_case"`` attach payload words and switch link pricing to
    counted bit transitions plus the crosstalk coupling term (dropped
    with ``coupling=False``).
    """
    from repro.workload import build_traffic

    rows = []
    data: dict[str, Any] = {"runs": [], "k": k}
    for pattern in patterns:
        for rate in rates:
            topology = MeshTopology(k)
            traffic = build_traffic(
                topology,
                injection_rate=rate,
                pattern=pattern,
                seed=seed,
                payload_mode=payload_mode,
            ) if payload_mode != "constant" else None
            sim = NocSimulator(
                k, traffic=traffic, injection_rate=rate, pattern=pattern,
                seed=seed, engine="fast",
            )
            stats = sim.run(warmup=150, measure=measure)
            srlr = price_stats(
                stats, datapath="srlr", links=sim.links, coupling=coupling
            )
            fs = price_stats(
                stats, datapath="full_swing", links=sim.links,
                coupling=coupling,
            )
            rows.append(
                [
                    pattern,
                    rate,
                    f"{stats.average_latency:.1f}",
                    f"{stats.throughput(k * k):.3f}",
                    f"{srlr.total * 1e9:.1f}",
                    f"{fs.total * 1e9:.1f}",
                    f"{fs.datapath / max(srlr.datapath, 1e-30):.2f}x",
                ]
            )
            data["runs"].append(
                {
                    "pattern": pattern,
                    "rate": rate,
                    "stats": stats,
                    "energy_srlr": srlr,
                    "energy_full_swing": fs,
                }
            )
    text = format_table(
        [
            "pattern",
            "inj rate",
            "avg latency [cyc]",
            "throughput",
            "E srlr [nJ]",
            "E full-swing [nJ]",
            "datapath saving",
        ],
        rows,
        title=f"E14 — {k}x{k} mesh NoC under synthetic traffic",
    )
    return ExperimentResult("E14", "NoC traffic", data, text)


# --------------------------------------------------------------------------- E15


def e15_crosstalk(
    space_scales: tuple[float, ...] = (0.6, 0.8, 1.0, 1.5),
) -> ExperimentResult:
    """Extension: crosstalk robustness of the single-ended SRLR wires.

    The paper criticizes long equalized links for crosstalk vulnerability;
    the SRLR's answer is short (1 mm) segments and per-segment
    regeneration.  This experiment quantifies it with the exact coupled
    two-line model: the noise a switching neighbor injects into a quiet
    victim, and the victim's swing when the neighbor switches against it,
    versus the stage's sensing margin — swept over wire spacing (the
    density axis of Fig. 8 gains a robustness dimension).
    """
    from repro.circuit.srlr import DEFAULT_LAUNCH_WIDTH
    from repro.tech.variation import nominal_sample
    from repro.wire.coupled import CoupledPair
    from repro.wire.rc import WireGeometry, WireSegment

    tech = tech_45nm_soi()
    design = robust_design(tech)
    link = SRLRLink(design)
    stage = link.stages[0]
    launch = link._pm_launch
    floor = stage.sensitivity_swing(180 * PS)
    margin = DEFAULT_NOMINAL_SWING - floor

    rows = []
    data: dict[str, Any] = {"points": [], "margin": margin}
    for scale in space_scales:
        geometry = WireGeometry(tech.wire_ref_width, tech.wire_ref_space * scale)
        segment = WireSegment(tech, geometry, design.segment_length)
        pair = CoupledPair(
            segment,
            r_victim=launch.r_up,
            r_aggressor=launch.r_up,
            c_load=link._c_load,
        )
        noise = pair.victim_noise(DEFAULT_LAUNCH_WIDTH, launch.amplitude)
        quiet = pair.victim_far_peak(DEFAULT_LAUNCH_WIDTH, launch.amplitude, 0.0)
        opposing = pair.victim_far_peak(
            DEFAULT_LAUNCH_WIDTH, launch.amplitude, -launch.amplitude
        )
        swing_loss = quiet - opposing
        ok = opposing > floor and noise < margin
        data["points"].append(
            {
                "space_scale": scale,
                "noise": noise,
                "swing_quiet": quiet,
                "swing_opposing": opposing,
                "ok": ok,
            }
        )
        rows.append(
            [
                f"{scale:.1f}x",
                f"{noise*1000:.0f}",
                f"{quiet*1000:.0f}",
                f"{opposing*1000:.0f}",
                f"{swing_loss*1000:.0f}",
                "yes" if ok else "no",
            ]
        )
    text = format_table(
        [
            "spacing",
            "victim noise [mV]",
            "swing quiet [mV]",
            "swing opposing [mV]",
            "Miller loss [mV]",
            "margins hold",
        ],
        rows,
        title=(
            "E15 — crosstalk on the single-ended SRLR wire "
            f"(sense floor {floor*1000:.0f} mV, margin {margin*1000:.0f} mV)"
        ),
    )
    text += (
        "\n\nShorter spacing raises both coupling noise and the dynamic "
        "Miller swing loss; per-mm regeneration bounds the exposure to one "
        "segment (vs a 10 mm accumulation on repeaterless links)."
    )
    return ExperimentResult("E15", "Crosstalk robustness", data, text)


# --------------------------------------------------------------------------- E16


def e16_bypass(
    k: int = 4,
    rates: tuple[float, ...] = (0.05, 0.2, 0.35),
    measure: int = 400,
    seed: int = 5,
) -> ExperimentResult:
    """Extension: router pipeline bypass (the intro's buffer-power lever).

    The paper positions the SRLR against the *datapath* share of NoC
    power, noting buffer power has its own mitigations (virtual
    bypassing, bufferless routing [8]-[13]).  This experiment implements
    a bypass — flits arriving at empty VCs skip the buffered pipeline —
    and quantifies both effects it is known for: lower zero-load latency
    and lower buffer access energy, fading as load (and thus occupancy)
    grows.
    """
    rows = []
    data: dict[str, Any] = {"runs": []}
    for rate in rates:
        base_sim = NocSimulator(k, injection_rate=rate, seed=seed, engine="fast")
        base = base_sim.run(warmup=150, measure=measure)
        byp_sim = NocSimulator(
            k, config=NocConfig(enable_bypass=True), injection_rate=rate,
            seed=seed, engine="fast",
        )
        byp = byp_sim.run(warmup=150, measure=measure)
        e_base = price_stats(base)
        e_byp = price_stats(byp)
        bypass_share = byp.bypassed_flits / max(byp.buffer_writes, 1)
        rows.append(
            [
                rate,
                f"{base.average_latency:.1f}",
                f"{byp.average_latency:.1f}",
                f"{bypass_share*100:.0f}%",
                f"{e_base.buffers*1e9:.2f}",
                f"{e_byp.buffers*1e9:.2f}",
            ]
        )
        data["runs"].append(
            {
                "rate": rate,
                "latency_base": base.average_latency,
                "latency_bypass": byp.average_latency,
                "bypass_share": bypass_share,
                "buffer_energy_base": e_base.buffers,
                "buffer_energy_bypass": e_byp.buffers,
            }
        )
    text = format_table(
        [
            "inj rate",
            "latency (buffered)",
            "latency (bypass)",
            "flits bypassed",
            "buffer E [nJ]",
            "buffer E bypass [nJ]",
        ],
        rows,
        title=f"E16 — pipeline bypass on a {k}x{k} mesh",
    )
    return ExperimentResult("E16", "Pipeline bypass", data, text)


# --------------------------------------------------------------------------- E17


def e17_bus(
    n_bits: int = 16,
    n_runs: int = 60,
    n_words: int = 32,
) -> ExperimentResult:
    """Extension: the 64-bit parallel datapath of Fig. 3, lane by lane.

    Measures what the single-lane experiments cannot: lane-to-lane
    latency skew on a mismatched die (the DM's retiming budget) and bus
    yield, where one bad lane kills the word — with the lanes' shared
    global corner making failures strongly correlated (far kinder than
    the independent-lanes bound).
    """
    from repro.circuit.bus import SRLRBus, bus_yield, random_words
    from repro.tech.variation import monte_carlo_sample

    design = robust_design()
    words = random_words(n_words, n_bits)
    tt_bus = SRLRBus(design, n_bits=n_bits)
    tt_out = tt_bus.transmit_words(words, 1.0 / 4.1e9)

    skews = []
    for seed in range(5):
        sample = monte_carlo_sample(design.tech, 9100 + seed)
        bus = SRLRBus(design, n_bits=n_bits, sample=sample)
        skew = bus.skew()
        if skew != float("inf"):
            skews.append(skew)
    yield_report = bus_yield(design, n_bits=n_bits, n_runs=n_runs, n_words=n_words)

    pairs = [
        (f"TT {n_bits}-bit bus word errors", f"{tt_out.word_errors}/{n_words}"),
        ("TT bus energy/word [pJ]", f"{tt_out.energy / max(n_words,1) * 1e12:.2f}"),
        ("lane skew, mismatched dies [ps]",
         f"{min(skews)*1e12:.0f}..{max(skews)*1e12:.0f}" if skews else "-"),
        ("lane failure probability", f"{yield_report.lane_failure_probability:.3f}"),
        ("bus failure probability", f"{yield_report.bus_failure_probability:.3f}"),
        ("independent-lanes prediction", f"{yield_report.independence_prediction:.3f}"),
    ]
    text = format_kv(f"E17 — {n_bits}-bit parallel SRLR datapath", pairs)
    data = {
        "tt": tt_out,
        "skews": skews,
        "yield": yield_report,
    }
    return ExperimentResult("E17", "Parallel bus", data, text)


# --------------------------------------------------------------------------- E18


def e18_temperature(
    temps_c: tuple[float, ...] = (-25.0, 0.0, 25.0, 50.0, 85.0, 110.0),
) -> ExperimentResult:
    """Extension: the bias generator's temperature claim (footnote 3).

    The Oguey reference + M1 replica track threshold shifts from
    temperature exactly as they track process: the swing target rides
    Vth(T).  A fixed 300 K reference dropped into another thermal
    environment loses margin on both sides.  Mobility derating still
    slows the repeaters at high temperature — the physical speed
    derating every link has — so the adaptive scheme extends the working
    window rather than abolishing temperature effects.
    """
    from repro.tech.thermal import at_temperature, celsius

    t300 = tech_45nm_soi()
    base = robust_design(t300)
    pattern = default_stress_pattern()
    rows = []
    data: dict[str, Any] = {"points": []}
    for tc in temps_c:
        tech = at_temperature(t300, celsius(tc))
        dv = tech.vth_n - t300.vth_n
        adaptive = robust_design(tech, nominal_swing=DEFAULT_NOMINAL_SWING + dv)
        link_ad = SRLRLink(adaptive)
        r_ad = link_ad.transmit(pattern, 1.0 / 4.1e9)
        rate_ad = link_ad.max_data_rate(pattern) if r_ad.ok else 0.0
        fixed = dataclasses.replace(base, tech=tech)
        r_fx = SRLRLink(fixed).transmit(pattern, 1.0 / 4.1e9)
        data["points"].append(
            {
                "temp_c": tc,
                "adaptive_ok": r_ad.ok,
                "fixed_ok": r_fx.ok,
                "adaptive_errors": r_ad.n_errors,
                "fixed_errors": r_fx.n_errors,
                "adaptive_max_rate": rate_ad,
            }
        )
        rows.append(
            [
                f"{tc:+.0f}",
                f"{r_ad.n_errors}",
                f"{rate_ad / GBPS:.2f}" if rate_ad else "-",
                f"{r_fx.n_errors}",
            ]
        )
    text = format_table(
        [
            "T [degC]",
            "adaptive errors @4.1G",
            "adaptive max rate [Gb/s]",
            "fixed-300K errors @4.1G",
        ],
        rows,
        title="E18 — temperature sweep (footnote 3: the replica-biased "
        "reference tracks Vth(T))",
    )
    ad_window = [p["temp_c"] for p in data["points"] if p["adaptive_ok"]]
    fx_window = [p["temp_c"] for p in data["points"] if p["fixed_ok"]]
    data["adaptive_window"] = (min(ad_window), max(ad_window)) if ad_window else None
    data["fixed_window"] = (min(fx_window), max(fx_window)) if fx_window else None
    text += (
        f"\n\nerror-free window: adaptive {data['adaptive_window']} degC vs "
        f"fixed {data['fixed_window']} degC (hot-side failures are mobility "
        "derating, which no bias scheme removes)."
    )
    return ExperimentResult("E18", "Temperature tracking", data, text)


# --------------------------------------------------------------------------- E19


def e19_system_studies(k: int = 8) -> ExperimentResult:
    """Extension: the Section I arguments, quantified at system level.

    Three studies with the calibrated models: (a) chip-scale NoC power
    with and without the SRLR datapath; (b) mesh vs folded-Clos energy
    across traffic locality (the paper's topology argument); (c) the
    serialization design space the multi-Gb/s SRLR wire opens.
    """
    from repro.circuit.serdes import max_feasible_ratio, serialization_sweep
    from repro.energy.chip import compare_chip
    from repro.noc.indirect import clos_point, crossover_locality, mesh_point

    # (a) chip power
    chip = compare_chip(k, utilization=0.3)
    chip_text = format_kv(
        f"E19a — {k}x{k} chip NoC power at 30% load",
        [
            ("SRLR datapath NoC power [W]", f"{chip.srlr.total:.2f}"),
            ("full-swing NoC power [W]", f"{chip.full_swing.total:.2f}"),
            ("saving [mW]", f"{chip.saving_w*1000:.0f}"),
            ("NoC power reduction", f"{chip.noc_power_reduction*100:.0f}%"),
            ("datapath share (full swing)", f"{chip.full_swing.datapath_fraction*100:.0f}%"),
            ("datapath share (SRLR)", f"{chip.srlr.datapath_fraction*100:.0f}%"),
        ],
    )

    # (b) topology vs locality
    rows = []
    for locality in (0.0, 0.25, 0.5, 0.75, 0.9):
        m = mesh_point(k, locality)
        c = clos_point(k, locality)
        rows.append(
            [
                locality,
                f"{m.avg_hops:.1f}",
                f"{m.energy_per_bit*1e15:.0f}",
                f"{c.energy_per_bit*1e15:.0f}",
                f"{c.energy_per_bit/m.energy_per_bit:.1f}x",
            ]
        )
    topo_text = format_table(
        ["locality", "mesh hops", "mesh [fJ/bit]", "Clos [fJ/bit]", "mesh advantage"],
        rows,
        title=f"E19b — mesh vs folded Clos on a {k}x{k} die "
        f"(crossover locality: {crossover_locality(k):.2f})",
    )

    # (c) serialization
    points = serialization_sweep([1, 2, 4, 8])
    rows = [
        [
            p.ratio,
            f"{p.wire_rate/1e9:.0f}",
            "yes" if p.feasible else "no",
            p.n_wires,
            f"{p.energy_per_flit*1e12:.2f}",
            f"{p.repeater_area*1e12:.0f}",
        ]
        for p in points
    ]
    ser_text = format_table(
        ["ratio", "wire rate [Gb/s]", "feasible", "wires/flit", "E/flit [pJ]", "SRLR area/hop [um2]"],
        rows,
        title=f"E19c — serializing the 64-bit datapath "
        f"(max feasible ratio: {max_feasible_ratio()})",
    )
    data = {
        "chip": chip,
        "crossover_locality": crossover_locality(k),
        "serialization": points,
        "max_ratio": max_feasible_ratio(),
    }
    return ExperimentResult(
        "E19",
        "System studies",
        data,
        chip_text + "\n\n" + topo_text + "\n\n" + ser_text,
    )


# --------------------------------------------------------------------------- E20


def e20_routing(
    k: int = 6,
    rates: tuple[float, ...] = (0.15, 0.3, 0.4),
    pattern: str = "transpose",
    n_vcs: int = 8,
    measure: int = 400,
    seed: int = 9,
) -> ExperimentResult:
    """Extension: O1TURN routing on the SRLR mesh.

    The mesh fabric the SRLR serves is routing-sensitive: dimension-order
    XY concentrates adversarial patterns (transpose) onto few channels.
    O1TURN — each packet flips a coin between XY and YX, with disjoint VC
    classes keeping the union deadlock-free — restores the balance at
    identical datapath cost per hop.
    """
    rows = []
    data: dict[str, Any] = {"runs": []}
    for rate in rates:
        point = {"rate": rate}
        for routing in ("xy", "o1turn"):
            sim = NocSimulator(
                k,
                config=NocConfig(routing=routing, n_vcs=n_vcs),
                injection_rate=rate,
                pattern=pattern,
                seed=seed,
                engine="fast",
            )
            stats = sim.run(warmup=200, measure=measure, drain_limit=60000)
            point[routing] = stats
        data["runs"].append(point)
        rows.append(
            [
                rate,
                f"{point['xy'].average_latency:.1f}",
                f"{point['o1turn'].average_latency:.1f}",
                f"{point['xy'].average_latency / point['o1turn'].average_latency:.2f}x",
            ]
        )
    text = format_table(
        ["inj rate", "XY latency [cyc]", "O1TURN latency [cyc]", "O1TURN gain"],
        rows,
        title=f"E20 — routing under {pattern} traffic on a {k}x{k} mesh "
        f"({n_vcs} VCs: O1TURN splits them into XY/YX classes)",
    )
    return ExperimentResult("E20", "O1TURN routing", data, text)


# --------------------------------------------------------------------------- E21


def e21_tech_scaling(
    scales: tuple[tuple[str, float], ...] = (
        ("45nm", 1.0),
        ("~32nm", 0.55),
        ("~22nm", 0.30),
        ("~14nm", 0.17),
    ),
) -> ExperimentResult:
    """Extension: Section I's scaling claim, quantified.

    "This physical datapath power will increase in percentage relative to
    control and storage circuitry power as CMOS process technology scales
    down" [14][15]: logic energy shrinks with the node while wire
    capacitance per mm does not.  The router model's logic-energy scale
    plays the node; the datapath share grows — and with it, the leverage
    of the SRLR's low-swing datapath.
    """
    import dataclasses as _dc

    from repro.energy.router import default_router_config

    rows = []
    data: dict[str, Any] = {"points": []}
    for label, scale in scales:
        cfg = _dc.replace(default_router_config(), logic_energy_scale=scale)
        model = RouterPowerModel(cfg)
        fs = model.power_breakdown(1.0, "full_swing")
        srlr = model.power_breakdown(1.0, "srlr")
        saving = (fs.total - srlr.total) / fs.total
        data["points"].append(
            {
                "node": label,
                "scale": scale,
                "fs_datapath_share": fs.fraction("datapath"),
                "srlr_saving": saving,
            }
        )
        rows.append(
            [
                label,
                f"{fs.fraction('datapath')*100:.0f}%",
                f"{srlr.fraction('datapath')*100:.0f}%",
                f"{saving*100:.0f}%",
            ]
        )
    text = format_table(
        [
            "node",
            "datapath share (full swing)",
            "datapath share (SRLR)",
            "router power saved by SRLR",
        ],
        rows,
        title="E21 — technology scaling: wire energy holds while logic shrinks",
    )
    shares = [p["fs_datapath_share"] for p in data["points"]]
    text += (
        "\n\nThe full-swing datapath share grows monotonically "
        f"({shares[0]*100:.0f}% -> {shares[-1]*100:.0f}%), so the SRLR's "
        "leverage grows with every node — the paper's Section I motivation."
    )
    return ExperimentResult("E21", "Technology scaling", data, text)


# --------------------------------------------------------------------------- E22


def e22_equalized_baseline(length_mm: float = 10.0) -> ExperimentResult:
    """Extension: the repeaterless/equalized design style, simulated.

    Fig. 8's prior works drive long wires directly and equalize.  Here
    both sides of that argument run on the same exact wire solver: the
    unequalized 10 mm channel's eye collapses below 1 Gb/s, TX FFE buys
    rate at a steep energy premium, and the SRLR's repeat-per-mm link
    simply does not have the problem.  (Our passive TX-only FFE
    understates the published active transceivers of [25]-[27] — which is
    why Fig. 8 anchors on their published points — but the *mechanism*
    and its energy direction are reproduced.)
    """
    from repro.circuit.equalized import RepeaterlessLink
    from repro.tech import tech_90nm_bulk

    t90 = tech_90nm_bulk()
    variants = [
        ("repeaterless, no EQ", (1.0,)),
        ("repeaterless, 2-tap FFE", (1.4, -0.4)),
        ("repeaterless, 3-tap FFE", (1.8, -0.6, -0.2)),
        ("repeaterless, 5-tap FFE", (2.2, -0.7, -0.3, -0.15, -0.05)),
    ]
    rows = []
    data: dict[str, Any] = {"points": []}
    for label, taps in variants:
        link = RepeaterlessLink(t90, length=length_mm * MM, taps=taps)
        rate = link.max_data_rate()
        energy = link.energy_fj_per_bit_per_cm()
        data["points"].append({"label": label, "rate": rate, "energy": energy})
        rows.append(
            [label, f"{rate / GBPS:.2f}" if rate else "-", f"{energy:.0f}"]
        )
    srlr = srlr_link_energy()
    link = SRLRLink(robust_design())
    srlr_rate = link.max_data_rate(default_stress_pattern())
    rows.append(
        [
            "SRLR repeated (this work)",
            f"{srlr_rate / GBPS:.2f}",
            f"{srlr.fj_per_bit_per_cm:.0f}",
        ]
    )
    data["srlr_rate"] = srlr_rate
    data["srlr_energy"] = srlr.fj_per_bit_per_cm
    text = format_table(
        ["design", "max rate [Gb/s]", "energy [fJ/bit/cm]"],
        rows,
        title=f"E22 — {length_mm:.0f} mm link: direct drive vs equalization "
        "vs per-mm repeating (same exact wire solver)",
    )
    text += (
        "\n\nEqualization buys rate only by over-driving transitions "
        "(energy grows with sum|taps|); the repeated link runs ~10x faster "
        "at the lowest energy of the table."
    )
    return ExperimentResult("E22", "Equalized baseline, simulated", data, text)


# --------------------------------------------------------------------------- E23


def e23_fig8_frontier(n_jobs: int | None = 1) -> ExperimentResult:
    """Extension: Fig. 8 re-cast as a searched Pareto frontier.

    :func:`repro.dse.fig8_study`'s default NSGA-II search over (swing,
    wire pitch) under the default :class:`~repro.dse.Fig8Evaluator`'s
    Fig. 6 yield gate; the paper's configuration and the Table I
    baselines join the pool.  The front is identical for every ``n_jobs``.
    """
    from repro.dse import Fig8Evaluator, fig8_study, format_front

    evaluator = Fig8Evaluator()
    mc_runs, yield_gate = evaluator.mc_runs, evaluator.max_error_probability
    outcome = fig8_study(n_jobs=n_jobs, mc_runs=mc_runs)
    result = outcome.result
    paper = outcome.paper_point
    pairs = [
        ("candidates", len(result.records)),
        ("infeasible", sum(1 for r in result.records if not r.feasible)),
        ("front size", len(result.front)),
        ("front hypervolume", f"{result.front_hypervolume():.6g}"),
        ("paper point [fJ/bit/cm]", paper["energy_fj_per_bit_per_cm"]),
        ("paper point [Gb/s/um]", paper["bandwidth_density_gbps_per_um"]),
        ("paper point on the front", outcome.paper_on_front),
        ("densest design in the pool", outcome.beats_baseline_density),
    ]
    text = format_kv(
        f"E23 — Fig. 8 re-cast: NSGA-II frontier (P(die fail) <= "
        f"{yield_gate:g} over {mc_runs} dies)",
        pairs,
    )
    text += "\n\n" + format_front(result, title="computed Pareto front")
    data = {"outcome": outcome, "yield_gate": yield_gate, "mc_runs": mc_runs}
    return ExperimentResult("E23", "Fig. 8 searched frontier", data, text)


# --------------------------------------------------------------------------- E24


def e24_fault_protection(n_jobs: int | None = 1) -> ExperimentResult:
    """Extension: effective fJ/bit/mm vs raw link BER per protection scheme.

    The default :class:`~repro.fault.FaultCampaignConfig` grid (4x4 mesh,
    four BERs x four protocols); per-link fault counts are identical for
    every ``n_jobs``.
    """
    from repro.fault import (
        format_fault_report,
        protection_crossover,
        run_fault_campaign,
    )

    campaign = run_fault_campaign(n_jobs=n_jobs)
    text = (
        "E24 — fault injection vs protection: effective energy vs raw link BER"
        "\n\n" + format_fault_report(campaign)
    )
    data = {
        "campaign": campaign,
        "crossover": protection_crossover(campaign, "crc", "none"),
    }
    return ExperimentResult("E24", "Fault injection vs protection", data, text)


# --------------------------------------------------------------------------- E27


def e27_workload_energy() -> ExperimentResult:
    """Extension: link energy per workload under data-dependent pricing.

    One unprotected fault-campaign point per (workload, payload mode) on
    the default 4x4 mesh at a vanishing BER: "random" payloads are priced
    by counted bit transitions (plus the coupled-line Miller surcharge),
    "constant" at the all-toggle per-bit price.  The collective workload
    multicasts, so its points fall back to the reference engine.
    """
    from repro.fault import FaultCampaignConfig, run_fault_campaign
    from repro.workload import coupling_miller_fraction

    workloads = ("synthetic", "bursty", "collective")
    payload_modes = ("random", "constant")
    injection_rate, ber = 0.1, 1e-9
    energy = {}
    for workload in workloads:
        for mode in payload_modes:
            config = FaultCampaignConfig(
                injection_rate=injection_rate,
                bers=(ber,),
                protocols=("none",),
                workload=workload,
                payload_mode=mode,
            )
            point = run_fault_campaign(config).points[0]
            energy[workload, mode] = point.effective_fj_per_bit_mm
    rows = [
        [workload, *(f"{energy[workload, m]:.1f}" for m in payload_modes)]
        for workload in workloads
    ]
    text = format_table(
        ["workload", *(f"{m} [fJ/bit/mm]" for m in payload_modes)],
        rows,
        title=f"E27 — link energy per workload, 4x4 mesh @ {injection_rate} "
        f"load, BER {ber:.0e}, no protection",
    )
    miller = coupling_miller_fraction()
    text += (
        f"\n\nopposing-pair crosstalk surcharge: +{miller * 100:.1f}% of a "
        "transition (coupled-line Miller fraction)"
    )
    data = {
        "energy": energy,
        "injection_rate": injection_rate,
        "miller_fraction": miller,
    }
    return ExperimentResult("E27", "Workload axis energy", data, text)


__all__ = [
    "ExperimentResult",
    "e1_fig4_waveforms",
    "e2_pulse_width_dynamics",
    "e3_driver_modes",
    "e4_fig6_montecarlo",
    "e5_headline",
    "e6_fig8_energy_density",
    "e7_table1",
    "e8_bias_overhead",
    "e9_router_power",
    "e10_noc_breakdown",
    "e11_multicast",
    "e11_multicast_simulated",
    "e12_ablation",
    "e13_sizing",
    "e14_noc_traffic",
    "e15_crosstalk",
    "e16_bypass",
    "e17_bus",
    "e18_temperature",
    "e19_system_studies",
    "e20_routing",
    "e21_tech_scaling",
    "e22_equalized_baseline",
    "e23_fig8_frontier",
    "e24_fault_protection",
    "e27_workload_energy",
]
