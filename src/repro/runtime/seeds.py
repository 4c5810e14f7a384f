"""Deterministic per-task seed streams for parallel execution.

Two streams cover the repo's needs:

* ``sequential_seeds`` — the paper's scheme (``base_seed + i``), which
  the Monte Carlo engine uses for its dies.  Individual failing dies
  replay from their integer seed, and designs run with the same base
  seed see the same dies (``sweep_swing`` compares designs that way).
* ``derived_seed`` — one content-addressed seed per ``(base_seed,
  token)``, for work identified by *what* it is rather than by its
  position (DSE candidates, fault-campaign links and points).

Both depend only on their inputs — never on the worker that happens to
execute the task — so any ``n_jobs``, any chunking and any completion
order produce the same per-task randomness.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError


def sequential_seeds(base_seed: int, n: int) -> list[int]:
    """The ``base_seed + i`` stream (paper-parity Monte Carlo dies)."""
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    return [base_seed + i for i in range(n)]


def derived_seed(base_seed: int, token: str) -> int:
    """One 64-bit seed derived from ``(base_seed, token)``.

    Content-addressed rather than positional: the same token always maps
    to the same seed under a given base seed, no matter when (or in which
    order) it is requested.  This is what lets a resumed design-space
    search replay stored evaluations bit-for-bit — a candidate's
    randomness depends only on *what* it is, not on where in the search
    it was first proposed.
    """
    digest = hashlib.sha256(token.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    ss = np.random.SeedSequence([base_seed & 0xFFFFFFFF, *words])
    return int(ss.generate_state(2, np.uint64)[0])


__all__ = [
    "derived_seed",
    "sequential_seeds",
]
