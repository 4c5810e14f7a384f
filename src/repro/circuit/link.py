"""The SRLR-based link: repeaters chained by 1 mm wire segments (Fig. 2).

A 10 mm link is the pulse modulator (PM), ten 1 mm wire segments, and an
SRLR at the end of each segment; the demodulator (DM) reads the last SRLR.
Because every SRLR regenerates a *full-swing* pulse internally, the data is
also available at every intermediate repeater — the free 1-to-N multicast
of Section II — so :meth:`SRLRLink.transmit` records the bit stream seen at
every tap, not just the last.

The bit-level model tracks, per hop and per unit interval:

* the received peak swing (wire attenuation of the launched pulse plus any
  residual inter-symbol voltage left by earlier pulses through the
  pull-down decay constant),
* the received dwell (time above half peak, bounded by the UI),
* the stage's fire/no-fire decision and regenerated output width,
* supply energy (exact charge integral through the driver) and stage
  internal energy.

Failures emerge rather than being scripted: weak corners collapse pulse
widths along the link (Eq. (1)), strong/slow-discharge corners merge bits
or fire on residual charge (Eq. (2) and the '11110' mode of Section III-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.circuit.srlr import (
    DEFAULT_LAUNCH_WIDTH,
    SRLRDesignParams,
    SRLRStage,
    StageFailure,
)
from repro.tech.variation import VariationSample, nominal_sample
from repro.wire.attenuation import AttenuationTable, attenuation_table
from repro.wire.rc import WireSegment

#: Effective switched capacitance per delay-cell buffer (energy model).
C_BUFFER_SWITCHED = 1.15e-15


@dataclass(frozen=True)
class StageRecord:
    """Per-stage trace of a single propagating pulse (Eq. (1)/(2) data)."""

    stage_index: int
    in_swing: float
    in_dwell: float
    fired: bool
    failure: StageFailure
    out_width: float


@dataclass
class TransmissionResult:
    """Outcome of transmitting a bit pattern through the link."""

    sent: list[int]
    received: list[int]
    tap_bits: list[list[int]]  # bits observed at each SRLR tap (index = stage)
    energy: float  # total supply energy, joules
    stuck: bool  # a stage's standby margin was inverted
    #: Per-UI (swing, dwell, fired) observed at the probed stage's input,
    #: populated when ``transmit`` is called with ``probe_stage``.
    probe: list[tuple[float, float, bool]] | None = None

    @property
    def n_errors(self) -> int:
        return sum(1 for a, b in zip(self.sent, self.received) if a != b)

    @property
    def ok(self) -> bool:
        return self.n_errors == 0 and not self.stuck

    @property
    def energy_per_bit(self) -> float:
        if not self.sent:
            return 0.0
        return self.energy / len(self.sent)


@dataclass
class SRLRLink:
    """An instantiated SRLR link: one design on one die (variation sample)."""

    design: SRLRDesignParams
    sample: VariationSample = None  # type: ignore[assignment]
    launch_width: float = DEFAULT_LAUNCH_WIDTH
    #: Mismatch namespace (see :class:`SRLRStage`); bit lanes of a bus
    #: pass e.g. ``"bit17."`` so each lane draws its own local mismatch.
    name_prefix: str = ""

    stages: list[SRLRStage] = field(init=False)
    segment: WireSegment = field(init=False)

    def __post_init__(self) -> None:
        if self.sample is None:
            self.sample = nominal_sample(self.design.tech)
        if self.launch_width <= 0.0:
            raise ConfigurationError(
                f"launch_width must be positive, got {self.launch_width}"
            )
        d = self.design
        self.stages = [
            SRLRStage(d, i, self.sample, name_prefix=self.name_prefix)
            for i in range(d.n_stages)
        ]
        self.segment = WireSegment(d.tech, d.geometry, d.segment_length)
        # The PM uses the same driver design as the repeaters.
        self._pm_launch = d.driver.launch(
            self.sample, f"{self.name_prefix}pm", d.swing_reference.vref(self.sample)
        )
        # M1's gate is the receiver load; a long-channel device's gate cap
        # scales with W * L.
        self._c_load = d.tech.gate_c_per_m * d.m1_width * d.m1_length_factor
        # Per-stage internal pulse energy is a per-die constant: cache it.
        self._internal_energy = [
            self._stage_internal_energy(stage) for stage in self.stages
        ]

    # --- wire transfer plumbing ---------------------------------------------------

    def _table(self, r_up: float, r_down: float) -> AttenuationTable:
        return attenuation_table(self.segment, r_up, self._c_load, r_down)

    # --- single-pulse propagation (Eq. (1)/(2) view) -------------------------------

    def propagate_pulse(
        self, width: float | None = None, dwell_limit: float | None = None
    ) -> list[StageRecord]:
        """Propagate one isolated pulse, recording per-stage widths/swings.

        This is the paper's Section III-A experiment: watching the output
        pulse width evolve stage to stage.  ``dwell_limit`` caps the usable
        input dwell (pass the bit period to model back-to-back operation;
        default unlimited, i.e. an isolated pulse).
        """
        width = self.launch_width if width is None else width
        launch = self._pm_launch
        records: list[StageRecord] = []
        for stage in self.stages:
            table = self._table(launch.r_up, launch.r_down)
            swing = table.peak_ratio(width) * launch.amplitude
            dwell = table.width_out(width)
            if dwell_limit is not None:
                dwell = min(dwell, dwell_limit)
            out = stage.transfer(swing, dwell)
            records.append(
                StageRecord(
                    stage_index=stage.stage_index,
                    in_swing=swing,
                    in_dwell=dwell,
                    fired=out.fired,
                    failure=out.failure,
                    out_width=out.out_width,
                )
            )
            if not out.fired:
                break
            width = out.out_width
            launch = out.launch
        return records

    def latency(self, width: float | None = None) -> float:
        """End-to-end latency of one isolated pulse (launch to last tap).

        Returns ``inf`` if the pulse dies before the last stage.
        """
        width = self.launch_width if width is None else width
        launch = self._pm_launch
        total = 0.0
        for stage in self.stages:
            table = self._table(launch.r_up, launch.r_down)
            swing = table.peak_ratio(width) * launch.amplitude
            dwell = table.width_out(width)
            out = stage.transfer(swing, dwell)
            if not out.fired:
                return float("inf")
            total += table.t_peak(width) + out.stage_delay
            width = out.out_width
            launch = out.launch
        return total

    # --- energy -------------------------------------------------------------------

    def _stage_internal_energy(self, stage: SRLRStage) -> float:
        """Supply energy of one fired pulse inside one repeater."""
        d = self.design
        vdd = d.tech.vdd
        # Node X: discharged by dv_trip + rise depth, recharged from Vdd.
        dv_x = max(stage.dv_trip, 0.0) + d.rise_sense_depth
        e_node_x = d.c_node_x * dv_x * vdd
        # Delay cell: every buffer node makes a full up+down excursion.
        cell = d.delay_plan.cell_for_stage(stage.stage_index)
        e_delay = cell.n_buffers * C_BUFFER_SWITCHED * vdd**2
        # INV output and the driver gates it charges.
        e_inv = d.inv.c_out * vdd**2
        e_driver_gate = d.driver.gate_capacitance(self.sample) * vdd**2
        return e_node_x + e_delay + e_inv + e_driver_gate

    def energy_per_pulse(self) -> dict[str, float]:
        """Nominal per-pulse energy breakdown over the whole link, joules.

        One '1' bit traversing all ``n_stages`` segments: wire charge at
        every hop plus internal energy at every repeater.
        """
        d = self.design
        vdd = d.tech.vdd
        launch = self._pm_launch
        width = self.launch_width
        e_wire = 0.0
        e_internal = 0.0
        for stage in self.stages:
            table = self._table(launch.r_up, launch.r_down)
            e_wire += vdd * launch.amplitude * table.charge_in(width)
            swing = table.peak_ratio(width) * launch.amplitude
            out = stage.transfer(swing, table.width_out(width))
            if not out.fired:
                break
            e_internal += self._stage_internal_energy(stage)
            width = out.out_width
            launch = out.launch
        return {
            "wire": e_wire,
            "internal": e_internal,
            "total": e_wire + e_internal,
        }

    # --- bit-level transmission -----------------------------------------------------

    def transmit(
        self,
        bits: list[int],
        bit_period: float,
        noise_sigma: float = 0.0,
        rng=None,
        probe_stage: int | None = None,
    ) -> TransmissionResult:
        """Send ``bits`` at one bit per ``bit_period`` and demodulate each tap.

        The model walks hop by hop: the full launch schedule of one hop is
        transformed into the receive schedule of the next, tracking the
        residual (incompletely discharged) far-end voltage across unit
        intervals — the mechanism behind both the '11110' failure and
        spurious residual-triggered firing.

        ``noise_sigma`` adds zero-mean Gaussian voltage noise (thermal +
        supply) to every received swing, which is what makes the BER of a
        working link finite rather than exactly zero; pass an
        ``numpy.random.Generator`` as ``rng`` for reproducibility.

        ``probe_stage`` records the per-UI received (swing, dwell, fired)
        at that stage's input — the eye-diagram observation point.

        A one-link call into :func:`transmit_batch`.
        """
        return transmit_batch(
            [self], bits, bit_period, noise_sigma, rng, probe_stage
        )[0]

    # --- operating-point search -----------------------------------------------------

    def max_data_rate(
        self,
        pattern: list[int],
        rate_lo: float = 0.5e9,
        rate_hi: float = 12e9,
        tolerance: float = 0.05e9,
    ) -> float:
        """Highest data rate at which ``pattern`` transmits without error.

        Bisection over the bit period; returns 0.0 if even ``rate_lo``
        fails.  This reproduces the measurement methodology behind the
        paper's 4.1 Gb/s maximum data rate.
        """
        if not 0.0 < rate_lo < rate_hi:
            raise ConfigurationError("need 0 < rate_lo < rate_hi")

        def ok(rate: float) -> bool:
            return self.transmit(pattern, 1.0 / rate).ok

        if not ok(rate_lo):
            return 0.0
        if ok(rate_hi):
            return rate_hi
        lo, hi = rate_lo, rate_hi
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        return lo


# --- batched transmission kernel ----------------------------------------------------


#: Rows of the kernel's per-stage constant table (see _stage_constants).
(
    _K_VTH, _K_I0, _K_K, _K_ALPHA, _K_NVT, _K_VDS, _K_VDSAT_FLOOR, _K_KEEPER,
    _K_Q_TRIP, _K_Q_RISE, _K_T_RISE0, _K_T_FALL, _K_WX, _K_MIN_WIDTH,
    _K_ENABLED, _K_E_INTERNAL,
) = range(16)


def _stage_constants(link: SRLRLink) -> list[tuple[float, ...]]:
    """Per-stage scalars of :meth:`SRLRStage.transfer`, in ``_K_*`` order."""
    d = link.design
    return [
        (
            s._fp_vth,
            s._fp_i0,
            s._fp_k,
            s._fp_alpha,
            s._fp_nvt,
            s._fp_vds,
            s._fp_vdsat_floor,
            s.keeper_current,
            d.c_node_x * s.dv_trip,
            d.c_node_x * d.rise_sense_depth,
            s.t_intrinsic_rise,
            s.t_fall,
            s.wx,
            d.min_output_width,
            1.0 if s.enabled else 0.0,
            e_internal,
        )
        for s, e_internal in zip(link.stages, link._internal_energy)
    ]


def transmit_batch(
    links: list[SRLRLink],
    bits,
    bit_period: float,
    noise_sigma: float = 0.0,
    rng=None,
    probe_stage: int | None = None,
) -> list[TransmissionResult]:
    """Transmit through a batch of links at once: one result per link.

    ``bits`` is one 0/1 pattern sent through every link, or a
    ``[len(links), n]`` array of per-link bit planes (the lanes of a
    bus).  Each result is bitwise what :meth:`SRLRLink.transmit` defines;
    with noise, the links draw from ``rng`` in batch order, as
    consecutive one-link calls would.

    Per stage, everything that does not depend on the previous unit
    interval runs over the whole ``[links x UIs]`` block: the four
    attenuation-table lookups (every table shares one width grid, so one
    ``searchsorted`` and one row gather serve them all), the residual
    decay factors, and all of :meth:`SRLRStage.transfer` — net M1
    current, trip time, rise lag, output width and the fire mask — at
    the UIs whose swing clears the stage's conduction floor.  Two
    recurrences stay sequential and run per link as plain-float loops:

    * residual -> swing: the far-end voltage left by earlier pulses adds
      to the next UI's swing.  It depends only on the input widths, not
      on fire decisions, so it runs before the stage's transfer.
    * the self-reset dead time: a stage can fire only once the previous
      fire's reset has finished.  Only links where a candidate arrives
      mid-reset replay it candidate by candidate.

    Exactness: every vectorised expression keeps the scalar operation
    order, and exponentials and powers go through ``math.exp`` and
    ``**`` element by element (``np.exp``/``np.power`` differ in the
    last bit), so results are bitwise those of the scalar per-UI model.
    Energy is summed in the scalar order with a sequential ``cumsum``
    (adding the zero of an absent term is exact).  See docs/MODEL.md
    section 4.
    """
    links = list(links)
    if bit_period <= 0.0:
        raise ConfigurationError(f"bit_period must be positive, got {bit_period}")
    planes = np.asarray(bits)
    if planes.ndim not in (1, 2) or (
        planes.size and not np.all((planes == 0) | (planes == 1))
    ):
        raise ConfigurationError("bits must be 0/1")
    if planes.ndim == 2 and planes.shape[0] != len(links):
        raise ConfigurationError(
            f"got {planes.shape[0]} bit planes for {len(links)} links"
        )
    if noise_sigma < 0.0:
        raise ConfigurationError(
            f"noise_sigma must be non-negative, got {noise_sigma}"
        )
    if noise_sigma > 0.0 and rng is None:
        rng = np.random.default_rng(0)
    if not links:
        return []
    n_stages = len(links[0].stages)
    if any(len(link.stages) != n_stages for link in links):
        raise ConfigurationError("every link of a batch needs the same n_stages")
    if probe_stage is not None and not 0 <= probe_stage < n_stages:
        raise ConfigurationError(
            f"probe_stage must be in [0, {n_stages}), got {probe_stage}"
        )
    n = planes.shape[-1]
    if planes.ndim == 1:
        sent = [list(bits) for _ in links]
        planes = np.broadcast_to(planes, (len(links), n))
    else:
        sent = planes.tolist()

    results: list[TransmissionResult | None] = [None] * len(links)
    live = []
    for b, link in enumerate(links):
        if any(s.is_stuck for s in link.stages):
            # A stuck stage fires continuously: every UI reads as '1'
            # downstream.  (Energy of a broken link is not meaningful.)
            ones = [1] * n
            results[b] = TransmissionResult(
                sent=sent[b],
                received=ones,
                tap_bits=[ones[:] for _ in link.stages],
                energy=0.0,
                stuck=True,
            )
        else:
            live.append(b)
    if live:
        outcomes = _transmit_live(
            [links[b] for b in live],
            planes[live],
            bit_period,
            noise_sigma,
            rng,
            probe_stage,
        )
        for b, (tap_bits, energy, probe) in zip(live, outcomes):
            results[b] = TransmissionResult(
                sent=sent[b],
                received=tap_bits[-1][:],
                tap_bits=tap_bits,
                energy=energy,
                stuck=False,
                probe=probe,
            )
    return results  # type: ignore[return-value]


def _transmit_live(
    links: list[SRLRLink],
    planes: np.ndarray,
    bit_period: float,
    noise_sigma: float,
    rng,
    probe_stage: int | None,
) -> list[tuple[list[list[int]], float, list | None]]:
    """The kernel body over links with no stuck stage: per link, the
    (tap bits, energy, probe) of :class:`TransmissionResult`."""
    n_links, n = planes.shape
    n_stages = len(links[0].stages)
    size = n_links * n
    # Per stage, a [constant, link] table of the transfer's scalars.
    consts = np.array([_stage_constants(link) for link in links]).transpose(1, 2, 0)
    vdd = np.array([link.design.tech.vdd for link in links])
    reset_recovery = np.array([link.design.reset_recovery for link in links])
    if noise_sigma > 0.0:
        noise = np.array(
            [rng.normal(0.0, noise_sigma, size=(n_stages, n)) for _ in links]
        )
    else:
        noise = None
    no_noise = [0.0] * n
    energy = np.zeros(n_links)
    tap_bits: list[list[list[int]]] = [[] for _ in links]
    probes: list[list | None] = [None] * n_links

    widths = np.where(
        planes == 1, np.array([link.launch_width for link in links])[:, None], 0.0
    ).ravel()
    # Each hop's table is set by the driver launching into it: the PM's
    # for the first hop, the previous repeater's after that.
    hop_launches = [
        [link._pm_launch] + [stage.launch for stage in link.stages[:-1]]
        for link in links
    ]
    hop_tables = [
        [link._table(launch.r_up, launch.r_down) for launch in launches]
        for link, launches in zip(links, hop_launches)
    ]
    # attenuation_table builds every table on the default width grid.
    grid = hop_tables[0][0]._widths
    hop_amplitude = np.array(
        [[launch.amplitude for launch in launches] for launches in hop_launches]
    )
    for s in range(n_stages):
        c = consts[s]
        tables = [per_link[s] for per_link in hop_tables]
        # [link, grid point, quantity]
        stacked = np.array([t.rows for t in tables])
        amplitude = hop_amplitude[:, s]
        tau = [t.decay_tau for t in tables]

        # The four table lookups at the launched pulses (flat, row-major):
        # one search on the shared grid, one gather.  A query clamped to
        # the first grid point interpolates to exactly its value; past
        # the last point, take the last value.
        pulse = widths > 0.0
        at = np.flatnonzero(pulse)
        row = at // n
        query = np.maximum(widths[at], grid[0])
        i = np.minimum(np.searchsorted(grid, query, side="right"), len(grid) - 1)
        y0 = stacked[row, i - 1]
        w0 = grid[i - 1][:, None]
        looked_up = y0 + (stacked[row, i] - y0) * (query[:, None] - w0) / (
            grid[i][:, None] - w0
        )
        beyond = query >= grid[-1]
        if beyond.any():
            looked_up[beyond] = stacked[row[beyond], -1]
        peak, width_out, t_peak, charge = looked_up.T

        # Energy terms in the scalar summation order: the running total,
        # then per UI the wire charge and the repeater's internal energy.
        terms = np.zeros((n_links, 2 * n + 1))
        terms[:, 0] = energy
        terms[:, 1::2].flat[at] = (vdd * amplitude)[row] * charge
        dwell = np.full(size, bit_period)
        dwell[at] = np.minimum(width_out, bit_period)
        tau_at = np.array(tau)[row]
        # Residual decay from the start of a pulse's UI to its peak, and
        # from the peak to the start of the next UI.
        to_peak = (-np.minimum(t_peak, bit_period) / tau_at).tolist()
        to_peak = list(map(math.exp, to_peak))
        to_next = (-np.maximum(bit_period - t_peak, 0.0) / tau_at).tolist()
        to_next = list(map(math.exp, to_next))
        launched = (peak * amplitude[row]).tolist()
        pulses = pulse.reshape(n_links, n).tolist()
        noises = noise[:, s].tolist() if noise is not None else [no_noise] * n_links

        swings = []
        j = 0
        for b in range(n_links):
            decay_frac = math.exp(-bit_period / tau[b])
            # UI-average of an exponentially decaying residual, as a
            # fraction of its start-of-UI value: the effective constant
            # level M1 integrates over a pulse-free interval.
            avg_frac = (tau[b] / bit_period) * (1.0 - decay_frac)
            residual = 0.0
            for p, v_noise in zip(pulses[b], noises[b]):
                if p:
                    swing = launched[j] + residual * to_peak[j] + v_noise
                    if swing > 0.0:
                        residual = swing * to_next[j]
                    else:
                        residual = residual * decay_frac
                    j += 1
                else:
                    # No pulse launched: the stage integrates the decaying
                    # residual baseline, which may still trip it (the
                    # spurious '1' behind the '11110' failure).
                    swing = residual * avg_frac + v_noise
                    residual = residual * decay_frac
                swings.append(swing)
        swing = np.fromiter(swings, float, size)

        # SRLRStage.transfer, evaluated at the UIs whose swing can make M1
        # out-sink the keeper at all: the others cannot fire.
        at = np.flatnonzero(swing.reshape(n_links, n) > _conduction_floor(c)[:, None])
        row = at // n
        k_at = c[:, row]
        overdrive = swing[at] - k_at[_K_VTH]
        sub = overdrive <= 0.0
        above = ~sub
        n_sub = int(sub.sum())
        i0 = k_at[_K_I0]
        i_sat = np.empty_like(overdrive)
        i_sat[sub] = i0[sub] * np.fromiter(
            map(math.exp, (overdrive[sub] / k_at[_K_NVT][sub]).tolist()), float, n_sub
        )
        i_sat[above] = i0[above] + k_at[_K_K][above] * np.fromiter(
            map(pow, overdrive[above].tolist(), k_at[_K_ALPHA][above].tolist()),
            float,
            len(at) - n_sub,
        )
        vdsat = 0.8 * overdrive
        floor = k_at[_K_VDSAT_FLOOR]
        vdsat = np.where(vdsat < floor, floor, vdsat)
        vds = k_at[_K_VDS]
        x = vds / vdsat
        i_sat = np.where(vds < vdsat, i_sat * x * (2.0 - x), i_sat)
        current = i_sat - k_at[_K_KEEPER]
        conducts = current > 0.0
        current = np.where(conducts, current, 1.0)
        t_trip = k_at[_K_Q_TRIP] / current
        t_rise = k_at[_K_Q_RISE] / current + k_at[_K_T_RISE0]
        out_width = k_at[_K_WX] - (t_rise - k_at[_K_T_FALL])
        fires = (
            conducts
            & (t_trip <= dwell[at])
            & (out_width >= k_at[_K_MIN_WIDTH])
            & (k_at[_K_ENABLED] > 0.0)
        )
        at = at[fires]
        out_width = out_width[fires]
        row = at // n
        ui_start = at % n * bit_period
        reset_done = ui_start + t_trip[fires] + k_at[_K_WX][fires] + reset_recovery[row]

        # Self-reset dead time: after a fire, X must be recharged and the
        # delay cell cleared before the stage can sense again; a pulse
        # arriving mid-reset is lost (the overspeed failure that bounds
        # the data rate).  Where no candidate arrives before its
        # predecessor's reset is done, every candidate fires; other links
        # replay the gate candidate by candidate.
        kept = np.ones(len(at), dtype=bool)
        early = (row[1:] == row[:-1]) & (ui_start[1:] < reset_done[:-1])
        for b in np.unique(row[1:][early]).tolist():
            busy_until = -math.inf
            span = np.flatnonzero(row == b)
            for m, start, done in zip(
                span.tolist(), ui_start[span].tolist(), reset_done[span].tolist()
            ):
                if start >= busy_until:
                    busy_until = done
                else:
                    kept[m] = False
        fired = at[kept]
        widths = np.zeros(size)
        widths[fired] = out_width[kept]
        terms[:, 2::2].flat[fired] = c[_K_E_INTERNAL][fired // n]
        energy = np.cumsum(terms, axis=1)[:, -1]
        fired_rows = np.zeros(size, dtype=int)
        fired_rows[fired] = 1
        fired_rows = fired_rows.reshape(n_links, n).tolist()
        for b in range(n_links):
            tap_bits[b].append(fired_rows[b])
        if s == probe_stage:
            dwells = dwell.tolist()
            for b in range(n_links):
                span = slice(b * n, (b + 1) * n)
                probes[b] = list(
                    zip(swings[span], dwells[span], map(bool, fired_rows[b]))
                )

    return list(zip(tap_bits, energy.tolist(), probes))


#: Relative slack on M1's current in :func:`_conduction_floor`: far above
#: the rounding of the floor and of the transfer's own evaluation.
_CURRENT_SLACK = 1e-9


def _conduction_floor(c: np.ndarray) -> np.ndarray:
    """Per link, a swing at or below which the keeper out-sources M1.

    Below threshold M1 sinks at most ``i0 * exp(overdrive / nvt)`` (the
    triode factor is at most 1), so net discharge needs an overdrive
    above ``nvt * ln(keeper / i0)``; above threshold every swing is a
    candidate.  Swings at or below the floor cannot fire, so the kernel
    skips their transfer evaluation.
    """
    with np.errstate(divide="ignore"):
        below = c[_K_NVT] * np.log(c[_K_KEEPER] / c[_K_I0] * (1.0 - _CURRENT_SLACK))
    return np.maximum(c[_K_VTH] + np.minimum(below, 0.0), 0.0)
