"""Report formatting, sweeps, and experiment drivers (fast settings)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.analysis import (
    e1_fig4_waveforms,
    e2_pulse_width_dynamics,
    e3_driver_modes,
    e5_headline,
    e6_fig8_energy_density,
    e7_table1,
    e8_bias_overhead,
    e9_router_power,
    e10_noc_breakdown,
    e11_multicast,
    e13_sizing,
    format_kv,
    format_table,
    sweep_grid,
)


# --- report -----------------------------------------------------------------------------


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="T")
    lines = out.split("\n")
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # all rows equal width


def test_format_table_validation():
    with pytest.raises(ConfigurationError):
        format_table([], [])
    with pytest.raises(ConfigurationError):
        format_table(["a"], [[1, 2]])


def test_format_kv():
    out = format_kv("Title", [("key", 1.5), ("longer key", "x")])
    assert out.startswith("Title")
    assert "longer key" in out
    with pytest.raises(ConfigurationError):
        format_kv("T", [])


def test_format_cell_special_values():
    from repro.analysis import format_cell

    assert format_cell(float("nan")) == "-"
    assert format_cell(True) == "yes"
    assert format_cell(0.0) == "0"
    assert format_cell(1e-9) == "1e-09"


# --- sweep ------------------------------------------------------------------------------


def test_sweep_collects_metrics():
    result = sweep_grid(
        {"x": [1.0, 2.0, 3.0]}, lambda p: {"sq": p["x"] * p["x"], "lin": p["x"]}
    )
    assert result.series("sq") == [
        ({"x": 1.0}, 1.0),
        ({"x": 2.0}, 4.0),
        ({"x": 3.0}, 9.0),
    ]
    assert result.headers() == ["x", "lin", "sq"]
    assert result.rows() == [[1.0, 1.0, 1.0], [2.0, 2.0, 4.0], [3.0, 3.0, 9.0]]


def test_sweep_validation():
    with pytest.raises(ConfigurationError):
        sweep_grid(
            {"x": [1.0, 2.0]},
            lambda p: {"a": p["x"]} if p["x"] < 2 else {"b": p["x"]},
        )
    result = sweep_grid({"x": [1.0]}, lambda p: {"a": p["x"]})
    with pytest.raises(ConfigurationError):
        result.series("missing")


# --- experiments (fast smoke + shape checks) -----------------------------------------------


def test_e1_waveform_checkpoints():
    r = e1_fig4_waveforms()
    assert r.experiment_id == "E1"
    assert r.data["out_peak"] == pytest.approx(0.8, rel=1e-6)
    assert 0.15 < r.data["in_peak"] < 0.5
    assert "node X" in r.text


def test_e2_single_design_drifts_monotonically():
    r = e2_pulse_width_dynamics(corner_shifts=(0.0, 0.016))
    profile = r.data["profiles"][0.016]["single"]
    widths = [w for w in profile if w is not None]
    assert len(widths) >= 3
    # Eq. (1): monotone shrinking widths along the link.
    assert all(a >= b - 0.5 for a, b in zip(widths, widths[1:]))
    assert widths[0] - widths[-1] > 5.0  # a real drift, not noise


def test_e2_typical_corner_is_stable():
    r = e2_pulse_width_dynamics(corner_shifts=(0.0,))
    profile = r.data["profiles"][0.0]["single"]
    assert None not in profile
    assert max(profile) - min(profile) < 2.0


def test_e3_nmos_map_is_pmos_independent():
    r = e3_driver_modes(shifts=(-0.06, 0.0, 0.06))
    nmos_rows = r.data["maps"]["nmos (fixed Vref)"]
    assert len(set(nmos_rows)) == 1  # one failure mode: a dVth_n band
    inverter_rows = r.data["maps"]["inverter"]
    assert len(set(inverter_rows)) > 1  # PMOS-dependent second mode


def test_e5_headline_bands():
    r = e5_headline(n_ber_bits=2000)
    assert 4.1e9 <= r.data["max_rate"] <= 6e9
    assert r.data["energy_report"].fj_per_bit_per_mm == pytest.approx(40.4, rel=0.15)
    assert r.data["ber"].errors == 0
    assert r.data["ber_extrapolated"] < 1e-6


def test_e6_pareto_frontier():
    r = e6_fig8_energy_density()
    assert r.data["on_pareto_frontier"] is True
    assert r.data["highest_density"] is True
    assert r.data["beats_high_density_rivals"] is True


def test_e7_table_includes_reproduced_row():
    r = e7_table1()
    assert "This Work (reproduced)" in r.text
    assert 300 < r.data["measured_energy_fj_per_bit_per_cm"] < 500


def test_e8_bias_share():
    r = e8_bias_overhead()
    assert r.data["fraction_64"] == pytest.approx(0.006, abs=0.003)


def test_e9_router_split():
    r = e9_router_power()
    assert r.data["power_srlr"].datapath == pytest.approx(12.9e-3, rel=0.1)
    assert r.data["area"].datapath_fraction == pytest.approx(0.18, abs=0.03)


def test_e10_published_shares_present():
    r = e10_noc_breakdown()
    assert "RAW" in r.text and "TeraFLOPS" in r.text


def test_e11_multicast_saving_grows_with_degree():
    r = e11_multicast(k=6, degrees=(2, 8), n_samples=60)
    assert r.data["savings"][8] > r.data["savings"][2] > 1.0


def test_e13_sizing_sections():
    r = e13_sizing()
    assert "E13a" in r.text and "E13b" in r.text and "E13c" in r.text
    assert r.data["driver"].max_data_rate >= 4.1e9
