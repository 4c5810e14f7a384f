"""Exact transient solution of linear RC networks.

The network C dv/dt = -G v + b u(t) with diagonal C > 0 and symmetric
positive-definite G is solved by symmetrizing with W = diag(sqrt(C)):

    y = W v,   dy/dt = A y + W^{-1} b u,   A = -W^{-1} G W^{-1}

A is symmetric negative definite, so an eigendecomposition A = Q L Q^T with
all eigenvalues real and negative gives the exact response to any
piecewise-constant input as a finite sum of decaying exponentials:

    v(t) = v_ss + W^{-1} Q e^{L t} Q^T W (v0 - v_ss)

This replaces SPICE transient analysis for the (linear) wire portion of the
paper's circuits; it is exact, unconditionally stable, and fast enough to
sit inside Monte Carlo loops once the decomposition is cached.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.wire.ladder import LadderNetwork

#: Exponents at or below this give ``exp`` exactly +0.0 in float64: the
#: smallest subnormal, 2**-1074, is exp(-744.44), and every exponent
#: below about -745.13 rounds to zero.
UNDERFLOW_EXPONENT = -746.0


def check_pulse_width(width: float) -> None:
    """Refuse a pulse width that is not a positive, finite number."""
    if not (width > 0.0 and math.isfinite(width)):
        raise ConfigurationError(
            f"pulse width must be positive and finite, got {width}"
        )


@dataclass(frozen=True)
class _Modes:
    """Cached eigendecomposition of the symmetrized network."""

    eigenvalues: np.ndarray  # (n,), all < 0
    modes_fwd: np.ndarray  # W^{-1} Q, maps modal -> node voltages
    modes_inv: np.ndarray  # Q^T W, maps node voltages -> modal
    v_unit_ss: np.ndarray  # steady-state node voltages for u = 1


class TransientSolver:
    """Exact linear transient solver for one :class:`LadderNetwork`.

    The decomposition is computed once at construction; every subsequent
    response evaluation is a small dense matrix-vector product.
    """

    def __init__(self, network: LadderNetwork) -> None:
        self.network = network
        self._modes = self._decompose(network)

    @staticmethod
    def _decompose(network: LadderNetwork) -> _Modes:
        c = network.c
        if np.any(c <= 0.0):
            raise ConfigurationError("all node capacitances must be positive")
        w_inv = 1.0 / np.sqrt(c)
        a_sym = -(w_inv[:, None] * network.g * w_inv[None, :])
        eigenvalues, q = np.linalg.eigh(a_sym)
        if np.any(eigenvalues >= 0.0):
            # G must be strictly positive definite (driver conductance pins
            # the DC point); a zero eigenvalue means a floating network.
            raise SimulationError(
                "network has a non-decaying mode; is the driver connected?"
            )
        v_unit_ss = np.linalg.solve(network.g, network.b)
        modes_fwd = w_inv[:, None] * q
        modes_inv = q.T * np.sqrt(c)[None, :]
        return _Modes(eigenvalues, modes_fwd, modes_inv, v_unit_ss)

    @property
    def slowest_time_constant(self) -> float:
        """1/|lambda_min|: the dominant settling time constant, seconds."""
        return float(-1.0 / np.max(self._modes.eigenvalues))

    def steady_state(self, u: float) -> np.ndarray:
        """Node voltages after the input has been held at ``u`` forever."""
        return self._modes.v_unit_ss * u

    @staticmethod
    def decay_grid(times: np.ndarray, rates: np.ndarray) -> np.ndarray:
        """``exp(outer(times, rates))``, without evaluating ``exp`` where it
        underflows.

        Entries whose exponent is at or below :data:`UNDERFLOW_EXPONENT`
        are exactly the +0.0 that ``exp`` would return, so the grid is
        bitwise ``np.exp(np.outer(times, rates))``; on the long time
        grids of pulse tables most entries are there, and ``exp`` is an
        order of magnitude slower on them than on ordinary arguments.

        The grid is returned as the transpose of a mode-major array, so
        elementwise work on it runs along the long time axis.
        """
        x = np.outer(rates, times)
        under = x <= UNDERFLOW_EXPONENT
        np.exp(x, out=x, where=~under)
        x[under] = 0.0
        return x.T

    def evolve(
        self,
        v0: np.ndarray,
        u: float,
        times: np.ndarray,
        nodes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Node voltages at each time in ``times`` with input held at ``u``.

        Returns an array of shape (len(times), n_nodes), or
        (len(times), len(nodes)) with the columns of ``nodes`` only.
        ``times`` are measured from the moment the input steps to ``u``
        with the network at state ``v0``.
        """
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (self.network.n_nodes,):
            raise ConfigurationError(
                f"v0 must have shape ({self.network.n_nodes},), got {v0.shape}"
            )
        times = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ConfigurationError("times must be finite")
        if np.any(times < 0.0):
            raise ConfigurationError("times must be non-negative")
        m = self._modes
        v_ss = m.v_unit_ss * u
        modal0 = m.modes_inv @ (v0 - v_ss)
        weighted = self.decay_grid(times, m.eigenvalues)  # (t, n)
        weighted *= modal0
        if nodes is None:
            return v_ss[None, :] + weighted @ m.modes_fwd.T
        # One column would send the product to BLAS gemv, which sums the
        # modes in another order than the full response's gemm (last-bit
        # differences); asking for the node twice keeps it on gemm.
        cols = list(nodes) * 2 if len(nodes) == 1 else list(nodes)
        v = v_ss[cols][None, :] + weighted @ m.modes_fwd[cols].T
        return v[:, : len(nodes)]

    def step_response(
        self,
        times: np.ndarray,
        amplitude: float = 1.0,
        nodes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Response from rest to a step of ``amplitude`` at t = 0."""
        v0 = np.zeros(self.network.n_nodes)
        return self.evolve(v0, amplitude, times, nodes)

    def pulse_response(
        self,
        times: np.ndarray,
        width: float,
        amplitude: float = 1.0,
        nodes: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Response from rest to a rectangular pulse of ``width`` seconds.

        By linearity this is step(t) - step(t - width); the falling step
        is evaluated only at the times where it has started.
        """
        check_pulse_width(width)
        times = np.asarray(times, dtype=float)
        v = self.step_response(times, amplitude, nodes)
        falling = times >= width
        if np.any(falling):
            v[falling] -= self.step_response(times[falling] - width, amplitude, nodes)
        return v
