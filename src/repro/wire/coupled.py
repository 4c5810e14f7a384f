"""Coupled two-wire model: crosstalk on the SRLR's single-ended wires.

Single-ended low-swing signaling trades the differential schemes' common-
mode rejection for density, so coupling noise from neighbors is the
robustness question to quantify (the paper notes crosstalk vulnerability
when criticizing long equalized links, and the SRLR's short 1 mm
segments + regenerative repeaters are its answer).

This module builds the exact two-line ladder — victim and aggressor with
distributed sidewall coupling capacitance — and solves it with a
generalized eigendecomposition (the coupling makes the capacitance matrix
non-diagonal), giving:

* the noise pulse a switching aggressor injects into a quiet victim, and
* the victim's received swing when the neighbor switches with or against
  it (the dynamic Miller effect).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.wire.ladder import DEFAULT_SECTIONS
from repro.wire.rc import WireSegment
from repro.wire.transient import TransientSolver, check_pulse_width


class CoupledSolver:
    """Exact transient solver for C dv/dt = -G v + B u with SPD C.

    Generalizes :class:`repro.wire.transient.TransientSolver` to a full
    (coupled) capacitance matrix and multiple inputs via the generalized
    eigenproblem G q = lambda C q.
    """

    def __init__(self, c: np.ndarray, g: np.ndarray, b: np.ndarray) -> None:
        # Imported here: scipy.linalg costs ~0.3 s per process, and only
        # crosstalk studies build coupled solvers.
        from scipy.linalg import eigh

        c = np.asarray(c, float)
        g = np.asarray(g, float)
        b = np.asarray(b, float)
        n = c.shape[0]
        if c.shape != (n, n) or g.shape != (n, n) or b.shape[0] != n:
            raise ConfigurationError("inconsistent matrix shapes")
        if not np.allclose(c, c.T) or not np.allclose(g, g.T):
            raise ConfigurationError("C and G must be symmetric")
        eigenvalues, q = eigh(g, c)  # G q = lambda C q, Q^T C Q = I
        if np.any(eigenvalues <= 0.0):
            raise SimulationError("network has a non-decaying mode")
        self.n_nodes = n
        self._lam = eigenvalues
        self._q = q
        self._ct = c
        self._g = g
        self._b = b

    @property
    def slowest_time_constant(self) -> float:
        return float(1.0 / np.min(self._lam))

    def steady_state(self, u: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self._g, self._b @ np.asarray(u, float))

    def evolve(self, v0: np.ndarray, u: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Node voltages at ``times`` with the inputs held at ``u``."""
        v0 = np.asarray(v0, float)
        times = np.asarray(times, float)
        v_ss = self.steady_state(u)
        modal0 = self._q.T @ (self._ct @ (v0 - v_ss))
        decay = TransientSolver.decay_grid(times, -self._lam)
        return v_ss[None, :] + (decay * modal0[None, :]) @ self._q.T


@dataclass
class CoupledPair:
    """Victim + aggressor wires of one geometry, exactly coupled.

    Node layout: victim nodes 0..N, aggressor nodes N+1..2N+1.  Inputs:
    u[0] drives the victim through ``r_victim``, u[1] the aggressor
    through ``r_aggressor``; both lines carry ``c_load`` at the far end.
    """

    segment: WireSegment
    r_victim: float
    r_aggressor: float
    c_load: float = 0.0
    n_sections: int = DEFAULT_SECTIONS

    def __post_init__(self) -> None:
        if self.r_victim <= 0.0 or self.r_aggressor <= 0.0:
            raise ConfigurationError("drive resistances must be positive")
        if self.n_sections < 1:
            raise ConfigurationError("n_sections must be >= 1")
        n = self.n_sections
        n_nodes = n + 1
        seg = self.segment
        r_sec = seg.resistance / n
        cg_sec = seg.c_ground_per_m * seg.length / n
        cc_sec = seg.c_coupling_per_m * seg.length / n

        total = 2 * n_nodes
        c = np.zeros((total, total))
        g = np.zeros((total, total))
        b = np.zeros((total, 2))

        def node(line: int, i: int) -> int:
            return line * n_nodes + i

        for line in range(2):
            for i in range(n_nodes):
                weight = 0.5 if i in (0, n) else 1.0
                c[node(line, i), node(line, i)] += weight * cg_sec
            c[node(line, n), node(line, n)] += self.c_load
            g_sec = 1.0 / r_sec
            for i in range(n):
                a, bb = node(line, i), node(line, i + 1)
                g[a, a] += g_sec
                g[bb, bb] += g_sec
                g[a, bb] -= g_sec
                g[bb, a] -= g_sec
        # Distributed sidewall coupling between corresponding nodes.
        for i in range(n_nodes):
            weight = 0.5 if i in (0, n) else 1.0
            va, ag = node(0, i), node(1, i)
            c[va, va] += weight * cc_sec
            c[ag, ag] += weight * cc_sec
            c[va, ag] -= weight * cc_sec
            c[ag, va] -= weight * cc_sec
        # Drivers.
        g[node(0, 0), node(0, 0)] += 1.0 / self.r_victim
        b[node(0, 0), 0] = 1.0 / self.r_victim
        g[node(1, 0), node(1, 0)] += 1.0 / self.r_aggressor
        b[node(1, 0), 1] = 1.0 / self.r_aggressor

        self.solver = CoupledSolver(c, g, b)
        self._victim_far = node(0, n)
        self._aggressor_far = node(1, n)

    def _times(self, width: float) -> np.ndarray:
        tau = self.solver.slowest_time_constant
        span = width + 6.0 * tau
        return np.linspace(0.0, span, 1200)

    def _pulse_both(
        self, width: float, v_amp: float, a_amp: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both lines driven with rectangular pulses of ``width``."""
        check_pulse_width(width)
        times = self._times(width)
        v0 = np.zeros(self.solver.n_nodes)
        u = np.array([v_amp, a_amp])
        v = self.solver.evolve(v0, u, times)
        # Superpose the falling edges (linearity): subtract the shifted
        # step responses where they have started.
        falling = times >= width
        if np.any(falling):
            v[falling] -= self.solver.evolve(v0, u, times[falling] - width)
        return times, v

    def victim_noise(self, width: float, aggressor_amplitude: float) -> float:
        """Peak far-end noise on a quiet (driven-low) victim, volts."""
        _, v = self._pulse_both(width, 0.0, aggressor_amplitude)
        return float(np.max(np.abs(v[:, self._victim_far])))

    def victim_far_peak(
        self, width: float, victim_amplitude: float, aggressor_amplitude: float
    ) -> float:
        """Victim far-end peak when both lines switch simultaneously.

        Pass a negative ``aggressor_amplitude`` for opposing transitions
        (worst-case dynamic Miller: the victim's received swing shrinks)
        or a positive one for in-phase switching (swing grows).
        """
        _, v = self._pulse_both(width, victim_amplitude, aggressor_amplitude)
        return float(np.max(v[:, self._victim_far]))


__all__ = ["CoupledPair", "CoupledSolver"]
