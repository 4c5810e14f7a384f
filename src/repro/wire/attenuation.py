"""Pulse propagation through an RC wire: the low-swing generation mechanism.

The SRLR transmits *pulses*: the driver launches a short (~100 ps)
rectangular pulse, and the RC-dominant 1 mm wire attenuates it, so the far
end sees a low-swing pulse (~200 mV from a ~0.5 V drive level) without any
second supply voltage (Section I/II of the paper).

:class:`PulseTransfer` characterizes one (wire, driver, load) combination:
it builds the exact pi-ladder transient solver once, then samples the
closed-form mode sum for the response to a rectangular input pulse.

:class:`AttenuationTable` samples that solver on a grid of widths, once
per (wire, quantized driver) pair: one two-node response (drive node and
far node) per width, with ``exp`` skipped where it underflows
(:meth:`TransientSolver.decay_grid`).  Its ``rows`` are bitwise those of
two full-network responses per width; the tests keep that construction
as the oracle (docs/MODEL.md, section 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.tech.technology import Technology
from repro.wire.ladder import DEFAULT_SECTIONS, build_ladder
from repro.wire.rc import WireGeometry, WireSegment
from repro.wire.transient import TransientSolver, check_pulse_width


class PulseTransfer:
    """Rectangular-pulse transfer function of a driven, loaded RC wire."""

    def __init__(
        self,
        segment: WireSegment,
        r_drive: float,
        c_load: float = 0.0,
        n_sections: int = DEFAULT_SECTIONS,
    ) -> None:
        self.segment = segment
        self.r_drive = r_drive
        self.c_load = c_load
        network = build_ladder(segment, r_drive, c_load, n_sections)
        self.solver = TransientSolver(network)
        self.far_node = network.far_node

    def _time_grid(self, width: float) -> np.ndarray:
        tau = self.solver.slowest_time_constant
        span = width + 6.0 * tau
        dt = min(width / 40.0, tau / 60.0)
        n = int(np.ceil(span / dt)) + 1
        return np.linspace(0.0, span, min(n, 6000))

    def waveforms(
        self, width: float, amplitude: float, nodes: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, voltages of ``nodes``) response to a rectangular input
        pulse; the voltages have one column per node."""
        check_pulse_width(width)
        times = self._time_grid(width)
        return times, self.solver.pulse_response(times, width, amplitude, nodes)

    def far_end_waveform(
        self, width: float, amplitude: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, far-node voltage) response to a rectangular input pulse."""
        times, v = self.waveforms(width, amplitude, [self.far_node])
        return times, v[:, 0]


class AttenuationTable:
    """Fast interpolated pulse-transfer characteristics of one wire/driver.

    Monte Carlo loops evaluate the stage map thousands of times; sampling
    the exact mode sum every time would dominate runtime.  This table
    samples the exact solver once on a log grid of input pulse widths and
    then answers queries by interpolation:

    * ``peak_ratio(w)`` — far-end peak per volt of drive;
    * ``width_out(w)`` — far-end half-max width;
    * ``t_peak(w)`` — far-end peak arrival time;
    * ``charge_in(w)`` — charge drawn from the driver per volt of drive
      during the pulse (the exact supply-energy integrand);
    * ``decay_tau`` — dominant discharge time constant through the
      *pull-down* path (pass the pull-down resistance as ``r_decay``).
    """

    N_GRID = 28

    def __init__(
        self,
        transfer: PulseTransfer,
        w_min: float = 10e-12,
        w_max: float = 500e-12,
        r_decay: float | None = None,
    ) -> None:
        if not 0.0 < w_min < w_max:
            raise ConfigurationError("need 0 < w_min < w_max")
        self.transfer = transfer
        self._widths = np.geomspace(w_min, w_max, self.N_GRID)
        peaks = np.empty(self.N_GRID)
        wouts = np.empty(self.N_GRID)
        tpeaks = np.empty(self.N_GRID)
        charges = np.empty(self.N_GRID)
        # One response per width, at the two nodes read: the drive node
        # (supply charge) and the far node (the received pulse).
        nodes = [0, transfer.far_node]
        for i, w in enumerate(self._widths):
            times, v = transfer.waveforms(float(w), 1.0, nodes)
            v_near, v_far = v[:, 0], v[:, 1]
            i_peak = int(np.argmax(v_far))
            peaks[i] = v_far[i_peak]
            tpeaks[i] = times[i_peak]
            if v_far[i_peak] > 0.0:
                above = np.flatnonzero(v_far >= 0.5 * v_far[i_peak])
                wouts[i] = times[above[-1]] - times[above[0]]
            else:
                wouts[i] = 0.0
            # Supply charge: integral of driver current during the high
            # phase, i(t) = (1 - v_node0(t)) / r_up for unit amplitude.
            high = times <= w
            i_drv = (1.0 - v_near[high]) / transfer.r_drive
            charges[i] = float(np.trapezoid(i_drv, times[high]))
        self._peaks = peaks
        self._wouts = wouts
        self._tpeaks = tpeaks
        self._charges = charges
        # Plain-float copies for the scalar fast path: np.interp has ~4 us
        # of per-call overhead that dominates Monte Carlo loops.
        self._w_list = [float(w) for w in self._widths]
        self._tables_list = {
            id(peaks): [float(x) for x in peaks],
            id(wouts): [float(x) for x in wouts],
            id(tpeaks): [float(x) for x in tpeaks],
            id(charges): [float(x) for x in charges],
        }
        #: ``[N_GRID, 4]`` (peak, width_out, t_peak, charge_in) rows for
        #: the batched link kernel's one-gather interpolation.
        self.rows = np.stack([peaks, wouts, tpeaks, charges], axis=1)
        if r_decay is None:
            self.decay_tau = transfer.solver.slowest_time_constant
        else:
            net = build_ladder(transfer.segment, r_decay, transfer.c_load)
            self.decay_tau = TransientSolver(net).slowest_time_constant

    @property
    def w_min(self) -> float:
        return float(self._widths[0])

    @property
    def w_max(self) -> float:
        return float(self._widths[-1])

    def _interp(self, table: np.ndarray, width: float) -> float:
        ws = self._w_list
        ys = self._tables_list[id(table)]
        if width <= ws[0]:
            return ys[0]
        if width >= ws[-1]:
            return ys[-1]
        i = bisect_right(ws, width)
        w0, w1 = ws[i - 1], ws[i]
        y0, y1 = ys[i - 1], ys[i]
        return y0 + (y1 - y0) * (width - w0) / (w1 - w0)

    def peak_ratio(self, width: float) -> float:
        if width <= 0.0:
            return 0.0
        return self._interp(self._peaks, width)

    def width_out(self, width: float) -> float:
        if width <= 0.0:
            return 0.0
        return self._interp(self._wouts, width)

    def t_peak(self, width: float) -> float:
        return self._interp(self._tpeaks, max(width, self.w_min))

    def charge_in(self, width: float) -> float:
        if width <= 0.0:
            return 0.0
        return self._interp(self._charges, width)


def log_quantize(value: float, per_decade: int = 16) -> float:
    """Snap ``value`` to a logarithmic grid (``per_decade`` points/decade).

    Used to key transfer-table caches by driver resistance: Monte Carlo
    produces a continuum of resistances, but a 16-per-decade grid (+-7%
    rounding) keeps the cache small with negligible modeling error.

    The grid index is found in plain floats.  ``math.log10`` and
    ``np.log10`` may differ in the last bit, which can only change the
    index next to a half-step; there (and for non-finite input) the
    index comes from the numpy expression itself.  The grid value is
    computed once per index by the numpy expression, so the result is
    bitwise :func:`_numpy_log_quantize`.
    """
    if value <= 0.0:
        raise ConfigurationError(f"value must be positive, got {value}")
    step = math.log10(value) * per_decade
    if not math.isfinite(step) or abs(step - math.floor(step) - 0.5) < _HALF_STEP_GUARD:
        return _numpy_log_quantize(value, per_decade)
    return _grid_value(round(step), per_decade)


#: Distance from a half-step (in grid steps) below which
#: :func:`log_quantize` takes the numpy path: far above the last-bit
#: differences between log10 implementations.
_HALF_STEP_GUARD = 1e-9


def _numpy_log_quantize(value: float, per_decade: int) -> float:
    """The reference quantizer: the grid point of ``np.round(step)``."""
    step = np.log10(value) * per_decade
    return float(10.0 ** (np.round(step) / per_decade))


@lru_cache(maxsize=1024)
def _grid_value(index: int, per_decade: int) -> float:
    """Grid point ``index`` as the reference quantizer computes it."""
    return float(10.0 ** (np.float64(index) / per_decade))


@lru_cache(maxsize=256)
def _cached_table(
    tech: Technology,
    width: float,
    space: float,
    length: float,
    n_neighbors: int,
    r_drive: float,
    c_load: float,
    r_decay: float,
) -> AttenuationTable:
    segment = WireSegment(tech, WireGeometry(width, space), length, n_neighbors)
    transfer = PulseTransfer(segment, r_drive, c_load)
    return AttenuationTable(transfer, r_decay=r_decay)


def attenuation_table(
    segment: WireSegment,
    r_drive: float,
    c_load: float,
    r_decay: float,
    quantize: bool = True,
) -> AttenuationTable:
    """Cached :class:`AttenuationTable` with optional resistance quantization."""
    if quantize:
        r_drive = log_quantize(r_drive)
        r_decay = log_quantize(r_decay)
        c_load = log_quantize(c_load) if c_load > 0.0 else 0.0
    return _cached_table(
        segment.tech,
        segment.geometry.width,
        segment.geometry.space,
        segment.length,
        segment.n_neighbors,
        r_drive,
        c_load,
        r_decay,
    )
