"""Bit-error-rate estimation with statistical confidence.

The paper's measurement claim is "BER less than 1e-9" — the standard
statement that an error counter saw zero (or few) errors over enough bits
to bound the rate.  This module provides that machinery: long-run BER
measurement of a link at a noise level, and Clopper-Pearson exact
confidence bounds for zero/low error counts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.circuit.link import SRLRLink
from repro.circuit.prbs import PrbsGenerator


def ber_upper_bound(errors: int, transmitted: int, confidence: float = 0.95) -> float:
    """Clopper-Pearson upper confidence bound on the bit error rate.

    The ``confidence`` quantile of Beta(errors + 1, transmitted -
    errors): the inverse regularized incomplete beta function
    ``scipy.special.betaincinv``.  With zero observed errors this
    reduces to the familiar ``-ln(1-confidence)/n`` rule (~3/n at 95%).
    """
    if transmitted <= 0:
        raise ConfigurationError(f"transmitted must be positive, got {transmitted}")
    if not 0 <= errors <= transmitted:
        raise ConfigurationError("errors must lie in [0, transmitted]")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    if errors == transmitted:
        return 1.0
    from scipy.special import betaincinv

    return float(betaincinv(errors + 1, transmitted - errors, confidence))


def ber_upper_bound_many(
    errors: np.ndarray | Sequence[int],
    transmitted: np.ndarray | Sequence[int],
    confidence: float = 0.95,
) -> np.ndarray:
    """Vectorized :func:`ber_upper_bound` over arrays of (errors, transmitted).

    One ``scipy.special.betaincinv`` call (the Beta quantile) bounds
    every link of a fault campaign at once instead of one Python-level
    call per link; the results match the scalar function exactly (same
    special case for ``errors == transmitted``).
    """
    errors = np.asarray(errors, dtype=np.int64)
    transmitted = np.asarray(transmitted, dtype=np.int64)
    if errors.shape != transmitted.shape:
        raise ConfigurationError(
            f"shape mismatch: errors {errors.shape} vs transmitted "
            f"{transmitted.shape}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must lie in (0, 1), got {confidence}")
    if errors.size == 0:
        return np.empty(errors.shape, dtype=np.float64)
    if np.any(transmitted <= 0):
        raise ConfigurationError("transmitted must be positive")
    if np.any(errors < 0) or np.any(errors > transmitted):
        raise ConfigurationError("errors must lie in [0, transmitted]")
    # The special-function ufunc, not scipy's distribution module: the
    # same doubles without ~0.9 s and ~46 MB more of imports in every
    # process, and every fault campaign point bounds its links' BERs.
    from scipy.special import betaincinv

    saturated = errors == transmitted
    # Neutral arguments where saturated keep the quantile finite; the
    # result there is overwritten with the exact value 1.0.
    a = np.where(saturated, 1, errors + 1).astype(np.float64)
    b = np.where(saturated, 1, transmitted - errors).astype(np.float64)
    bounds = betaincinv(a, b, confidence)
    return np.where(saturated, 1.0, bounds)


@dataclass(frozen=True)
class BerMeasurement:
    """Outcome of a long PRBS error-count run."""

    transmitted: int
    errors: int
    confidence: float = 0.95

    @property
    def observed_ber(self) -> float:
        return self.errors / self.transmitted if self.transmitted else 0.0

    @property
    def upper_bound(self) -> float:
        return ber_upper_bound(self.errors, self.transmitted, self.confidence)

    def meets(self, target: float) -> bool:
        """True when the measured upper bound is below ``target``."""
        return self.upper_bound < target


def measure_ber(
    link: SRLRLink,
    bit_period: float,
    n_bits: int = 100_000,
    noise_sigma: float = 0.004,
    prbs_order: int = 15,
    chunk: int = 1024,
    seed: int = 45,
    confidence: float = 0.95,
) -> BerMeasurement:
    """Run PRBS traffic through ``link`` and count errors.

    Mirrors the on-chip test setup: a PRBS generator feeds the link and a
    comparator counts mismatches.  ``noise_sigma`` is the per-bit received
    voltage noise (thermal + supply); without it a working behavioral link
    would measure exactly zero errors and BER would be a trivial bound.

    Bits are processed in chunks so each chunk's residual-state transient
    is realistic while memory stays bounded.
    """
    if n_bits < 1:
        raise ConfigurationError(f"n_bits must be >= 1, got {n_bits}")
    if chunk < 1:
        raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
    rng = np.random.default_rng(seed)
    gen = PrbsGenerator(prbs_order)
    remaining = n_bits
    errors = 0
    while remaining > 0:
        n = min(chunk, remaining)
        bits = gen.bits(n)
        outcome = link.transmit(bits, bit_period, noise_sigma=noise_sigma, rng=rng)
        errors += outcome.n_errors
        remaining -= n
    return BerMeasurement(transmitted=n_bits, errors=errors, confidence=confidence)


def q_factor_ber(margin: float, noise_sigma: float) -> float:
    """Analytic Gaussian-noise BER for a voltage ``margin`` (Q-function).

    Complements the Monte Carlo measurement: for a swing margin m and
    noise sigma s, BER = Q(m/s).  Used to extrapolate below what counting
    can resolve (the standard practice for 1e-9-class claims).
    """
    if noise_sigma <= 0.0:
        raise ConfigurationError(
            f"noise_sigma must be positive, got {noise_sigma}"
        )
    q = margin / noise_sigma
    return 0.5 * math.erfc(q / math.sqrt(2.0))


__all__ = [
    "BerMeasurement",
    "ber_upper_bound",
    "ber_upper_bound_many",
    "measure_ber",
    "q_factor_ber",
]
