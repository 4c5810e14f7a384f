"""Regenerate EXPERIMENTS.md from live experiment runs.

Run:  python scripts/generate_experiments_md.py [--full] [--jobs N]

Executes every experiment driver (E1-E22), extracts the headline numbers,
and writes EXPERIMENTS.md with the paper-reported value next to the
reproduction's measured value for each.  E23 (DSE frontier search),
E24 (fault campaign) and E25 (campaign service) run their own
long-lived drivers (``scripts/run_dse.py``,
``scripts/run_fault_campaign.py``, ``scripts/smoke_service.py``); their
rows are pinned statically here and re-measured when those studies
change.  ``--full`` uses
publication-fidelity sizes (1000-run Monte Carlo etc.); ``--jobs N``
fans the Monte Carlo blocks across N worker processes (``--jobs=0`` for
all cores) — results are identical for every N.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.analysis import (
    calibration_report,
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
)
from repro.units import GBPS, MW

FULL = "--full" in sys.argv
MC_RUNS = 1000 if FULL else 300
SWINGS = (0.27, 0.285, 0.30, 0.315, 0.33) if FULL else (0.28, 0.30, 0.32)
N_JOBS = next(
    (int(a.split("=", 1)[1]) if "=" in a else 0
     for a in sys.argv[1:] if a.startswith("--jobs")),
    1,
)


def main() -> None:
    print("running experiments...", flush=True)
    r1 = e1_fig4_waveforms()
    r2 = e2_pulse_width_dynamics()
    r3 = e3_driver_modes()
    r4 = e4_fig6_montecarlo(swings=SWINGS, n_runs=MC_RUNS, n_jobs=N_JOBS)
    r5 = e5_headline()
    r6 = e6_fig8_energy_density()
    r7 = e7_table1()
    r8 = e8_bias_overhead()
    r9 = e9_router_power()
    r10 = e10_noc_breakdown()
    r11 = e11_multicast()
    r11b = e11_multicast_simulated()
    r12 = e12_ablation(n_runs=MC_RUNS, n_jobs=N_JOBS)
    r13 = e13_sizing()
    r14 = e14_noc_traffic()
    r15 = e15_crosstalk()
    r16 = e16_bypass()
    r17 = e17_bus()
    r18 = e18_temperature()
    r19 = e19_system_studies()
    r20 = e20_routing()
    r21 = e21_tech_scaling()
    r22 = e22_equalized_baseline()

    energy = r5.data["energy_report"]
    power9 = r9.data["power_srlr"]
    area9 = r9.data["area"]
    single16 = [w for w in r2.data["profiles"][0.016]["single"] if w is not None]
    fs_saving = (
        r5.data["full_swing"].fj_per_bit_per_mm / energy.fj_per_bit_per_mm
    )
    p12 = {k: v.error_probability for k, v in r12.data["results"].items()}
    run14 = r14.data["runs"][0]
    dp_saving14 = run14["energy_full_swing"].datapath / run14["energy_srlr"].datapath

    md = f"""# EXPERIMENTS — paper vs. reproduction

Generated by `scripts/generate_experiments_md.py`{' (--full)' if FULL else ''};
Monte Carlo points use {MC_RUNS} dies per design (paper: 1000).
Re-run any row with its benchmark: `pytest benchmarks/<bench> --benchmark-only -s`.
The rendered data tables for every experiment are written to
`benchmarks/output/*.txt` by the benchmark suite.
The Monte Carlo blocks fan out across worker processes (`--jobs N` here,
`n_jobs=`/`--jobs` in the drivers) and can reuse an on-disk result cache
(`--cache` in `scripts/run_all_experiments.py`); results are bitwise
identical for every worker count, and the headline numbers below are
pinned by `tests/test_golden_regression.py` under the tolerance policy in
`docs/GOLDEN_TESTS.md`.
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
| E1 | Fig. 4 waveforms | low-swing IN, X discharge/reset, full-swing OUT | IN peak {r1.data['in_peak']:.2f} V, X standby {r1.data['x_standby']:.2f} V, OUT {r1.data['out_peak']:.1f} V, width {r1.data['out_width_ps']:.0f} ps | test_bench_fig4_waveforms.py |
| E2 | Eq. (1)/(2) | single-cell widths drift monotonically at skewed corners | at +16 mV global: W0..W{len(single16)-1} = {single16[0]:.0f}->{single16[-1]:.0f} ps monotone, then collapse; alternating decays slower (min width {min(w for w in r2.data['profiles'][0.018]['alternating'] if w is not None):.0f} vs {min(w for w in r2.data['profiles'][0.018]['single'] if w is not None):.0f} ps at +18 mV) | test_bench_pulsewidth_dynamics.py |
| E3 | Sec. III-B driver modes | inverter: 2 failure modes; NMOS: 1 (weak-NMOS) | NMOS map rows dVth_p-independent ({len(set(r3.data['maps']['nmos (fixed Vref)']))} distinct row patterns) vs inverter {len(set(r3.data['maps']['inverter']))}; adaptive recovers {r3.data['fail_counts']['nmos (fixed Vref)'] - r3.data['fail_counts']['nmos + adaptive']} corners | test_bench_driver_modes.py |
| E4 | Fig. 6 Monte Carlo | robust ~3.7x higher process-variation immunity at the selected swing | immunity ratio {r4.data['immunity_ratio']:.2f}x at {r4.data['selected_swing']*1000:.0f} mV; error probability falls with swing for both designs | test_bench_fig6_montecarlo.py |
| E5 | Sec. IV headline | 4.1 Gb/s, 40.4 fJ/bit/mm, 1.66 mW, 6.83 Gb/s/um, BER<1e-9 | {r5.data['max_rate']/GBPS:.2f} Gb/s, {energy.fj_per_bit_per_mm:.1f} fJ/bit/mm, {energy.power/MW:.2f} mW, {energy.bandwidth_density_gbps_per_um:.2f} Gb/s/um, 0 errors in {r5.data['ber'].transmitted} bits (Q-extrapolated {r5.data['ber_extrapolated']:.1e}) | test_bench_headline.py |
| E6 | Fig. 8 plane | SRLR: highest density at competitive energy (Pareto frontier) | on frontier: {r6.data['on_pareto_frontier']}; highest density: {r6.data['highest_density']}; lowest energy among >4 Gb/s/um designs: {r6.data['beats_high_density_rivals']} | test_bench_fig8_energy_density.py |
| E7 | Table I | 404 fJ/bit/cm single-ended vs 340-680 differential | reproduced This-Work row: {r7.data['measured_energy_fj_per_bit_per_cm']:.0f} fJ/bit/cm, single-ended, 6.83 Gb/s/um | test_bench_table1.py |
| E8 | Bias overhead | 587 uW = 0.6% of a 64-bit 10 mm link | {r8.data['fraction_64']*100:.2f}% at 64 bits | test_bench_bias_overhead.py |
| E9 | Router split | buffers 38.8 / control 5.2 / datapath 12.9 mW; area 0.061 mm2 = 18% of 0.34 mm2 | {power9.buffers/MW:.1f} / {power9.control/MW:.1f} / {power9.datapath/MW:.1f} mW; {area9.datapath*1e6:.3f} mm2 = {area9.datapath_fraction*100:.1f}% of {area9.total*1e6:.2f} mm2 | test_bench_router_power.py |
| E10 | NoC breakdowns | datapath share: RAW 69%, TRIPS 64%, TeraFLOPS 32% | published values tabulated; our full-swing router model's datapath share {r10.data['model_full_swing'].fraction('datapath')*100:.0f}% falls in the published band | test_bench_noc_breakdown.py |
| E11 | Multicast for free | 1-to-N at every intermediate repeater | tree-vs-unicast hop saving {r11.data['savings'][4]:.2f}x at degree 4 ({r11.data['savings'][16]:.2f}x at 16) on an 8x8 mesh; simulated energy saving {r11b.data['energy_saving']:.2f}x with {r11b.data['tree'].tap_deliveries} tap deliveries | test_bench_multicast.py |
| E12 | (ablation) | the three Sec. III techniques compose the robustness | P(err): robust {p12['robust']:.3f}, -alternating {p12['no_alternating']:.3f}, -adaptive {p12['no_adaptive']:.3f}, -NMOS-driver {p12['no_nmos_driver']:.3f}, straightforward {p12['straightforward']:.3f} | test_bench_ablation_robustness.py |
| E13 | (ablation) | SRLR sized for the 1 mm router-to-router distance | 1 mm works; 2.5 mm collapses the swing; energy/margin both rise with swing; optimal driver {r13.data['driver'].energy_per_bit_per_mm:.1f} fJ/bit/mm at {r13.data['driver'].max_data_rate/GBPS:.2f} Gb/s | test_bench_sizing_sweep.py |
| E14 | (NoC-level) | low-swing datapath cuts mesh datapath power | datapath energy saving {dp_saving14:.2f}x across loads/patterns on a 4x4 mesh; latency-vs-load curves behave canonically | test_bench_noc_traffic.py |

Extensions beyond the paper's evaluation (same substrates, exact solvers):

| Exp | Study | Reproduction measures | Bench |
|---|---|---|---|
| E15 | crosstalk on single-ended wires | at the paper's spacing the margins hold (noise {r15.data['points'][2]['noise']*1000:.0f} mV vs {r15.data['margin']*1000:.0f} mV margin); at 0.6x spacing they break — density buys energy AND robustness | test_bench_crosstalk.py |
| E16 | router pipeline bypass | latency {r16.data['runs'][0]['latency_base']:.1f} -> {r16.data['runs'][0]['latency_bypass']:.1f} cycles at low load; buffer access energy largely eliminated below saturation | test_bench_bypass_and_bus.py |
| E17 | 64-bit parallel datapath | lane skew {min(r17.data['skews'])*1e12:.0f}-{max(r17.data['skews'])*1e12:.0f} ps (<< UI); bus failure {r17.data['yield'].bus_failure_probability:.2f} vs independent-lanes bound {r17.data['yield'].independence_prediction:.2f} (global corner correlates lanes) | test_bench_bypass_and_bus.py |
| E18 | temperature (footnote 3) | adaptive window {r18.data['adaptive_window']} degC vs fixed {r18.data['fixed_window']} degC; hot-side limits are mobility derating | test_bench_temperature_and_system.py |
| E19 | system studies | {r19.data['chip'].srlr.k}x{r19.data['chip'].srlr.k} chip: SRLR cuts NoC power {r19.data['chip'].noc_power_reduction*100:.0f}%; mesh beats Clos at every locality (crossover {r19.data['crossover_locality']:.2f}); max serialization 4:1 at 1 GHz flits | test_bench_temperature_and_system.py |
| E20 | O1TURN routing | at transpose load {r20.data['runs'][-1]['rate']}: XY {r20.data['runs'][-1]['xy'].average_latency:.0f} vs O1TURN {r20.data['runs'][-1]['o1turn'].average_latency:.0f} cycles | test_bench_routing_and_scaling.py |
| E21 | technology scaling (Sec. I claim) | full-swing datapath share grows {r21.data['points'][0]['fs_datapath_share']*100:.0f}% -> {r21.data['points'][-1]['fs_datapath_share']*100:.0f}% across nodes; SRLR leverage grows with it | test_bench_routing_and_scaling.py |
| E22 | equalized baseline, simulated | unequalized 10 mm wire: {r22.data['points'][0]['rate']/1e9:.2f} Gb/s; 5-tap FFE {r22.data['points'][-1]['rate']/1e9:.2f} Gb/s at {r22.data['points'][-1]['energy']:.0f} fJ/bit/cm; SRLR {r22.data['srlr_rate']/1e9:.2f} Gb/s at {r22.data['srlr_energy']:.0f} fJ/bit/cm | test_bench_equalized_baseline.py |
| E23 | Fig. 8 re-cast as a searched frontier | NSGA-II over (swing, pitch) with the Fig. 6 yield gate (P(die fail) <= 0.17 over 40 dies): 86 candidates, 18-point front; the reproduced operating point (388 fJ/bit/cm at 6.83 Gb/s/um) is ON the computed front and remains the densest design in the pool with the Table I baselines added — the frontier claim holds against an adversarial search, not just the published points | `scripts/run_dse.py fig8 --strategy nsga2 --jobs 4` (docs/DSE.md) |
| E24 | fault injection vs protection | effective fJ/bit/mm vs raw link BER, 4x4 mesh: at 1e-6 the unprotected link wins (278.5 vs CRC 280.9 — the check-bit tax buys nothing); by 1e-3 CRC wins 284.3 vs 427.9 and at 1e-2 by 20x (330.7 vs 6835) as corrupted payloads destroy the unprotected denominator; e2e retry never beats link-level CRC; crossover at BER >= 1e-4; per-link counts bitwise identical for any --jobs | `scripts/run_fault_campaign.py --jobs 4` (docs/FAULTS.md) |
| E25 | campaign service | queue-backed campaign database: a fault campaign drained by two workers with one SIGKILLed mid-lease merges bitwise-identical to the single-process run; byte-identical resubmission reuses existing rows (no recompute), a changed config refuses to attach; double completion impossible under the lease-owner guard | `scripts/smoke_service.py` (docs/SERVICE.md) |
| E26 | topology zoo | the mesh studies generalized to a topology family: concentrated mesh (c cores/router), torus (up*/down* table routing — dimension order deadlocks on the wrap cycles), and a two-level chiplet NoC/NoI whose longer NoI wires are priced per link in effective fJ/bit/mm; flat-mesh runs stay bitwise identical to the pre-family golden regressions, torus/cmesh/chiplet run on the fast engine with exact parity (the chiplet's 6-port gateway/interface routers set its port stride to 6); every family member's routing CDG is verified acyclic | `scripts/run_fault_campaign.py --topology torus` / `scripts/smoke_service.py --case topology` (docs/TOPOLOGY.md) |
| E27 | workload axis | workloads as a content-hashed experiment axis: uniform / bursty (Markov on/off) / collective-multicast / trace-replay traffic priced with data-dependent link energy — random payload bits land at 266/258/239 fJ/bit/mm (uniform/bursty/collective, 4x4 mesh at 0.1 load) vs 290/281/259 under the all-toggle constant model, with an opposing-pair crosstalk transition costing +10.4% (the E15 coupled-line Miller fraction); a recorded trace replays bitwise on both engines, campaign identity follows the trace's *content* (not path or format), and the worst-case reduction — all-toggle payload, coupling off — prices bitwise equal to the constant model | `scripts/run_fault_campaign.py --workload bursty --payload-mode random` / `scripts/smoke_service.py --case workload` (docs/WORKLOADS.md) |

## Notes and deviations

* **E5 max data rate**: our behavioral link tops out at
  {r5.data['max_rate']/GBPS:.2f} Gb/s vs the measured 4.1 Gb/s.  The limiting
  mechanism is the same (self-reset dead time ~ trip + Wx + recovery vs the
  unit interval); the ~15-20% optimism is calibration slack we chose not to
  tune away with an artificial dead-time pad.
* **E4/E12 immunity ratio**: lands at {r4.data['immunity_ratio']:.1f}x
  ({MC_RUNS} dies) vs the paper's ~3.7x (1000 dies).  The decomposition
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
"""
    md += "\n## Calibration transparency\n\n```\n" + calibration_report() + "\n```\n"
    Path("EXPERIMENTS.md").write_text(md)
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
