"""Local (within-die) mismatch and the combined variation sample.

Local variation follows the Pelgrom model: the threshold mismatch of a
device with gate area W*L has standard deviation

    sigma_dVth = A_vt / sqrt(W * L)

and is independent device to device.  A :class:`VariationSample` bundles one
die's global corner with a per-device local draw stream, so a circuit model
can ask for the effective Vth of each named device and get a reproducible
answer for a given seed.

A fresh sample draws one scalar per device, in the order the devices are
first asked for.  :func:`planned_build` draws a whole build's devices in
one vector call instead, from the draw plan recorded at the first build
of the same kind, and gives the same values and the same generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.tech.corners import GlobalCorner, sample_global, typical
from repro.tech.technology import Technology


def sigma_vth_local(tech: Technology, width: float, length: float | None = None) -> float:
    """Pelgrom mismatch sigma for a device of ``width`` (and ``length``) meters.

    ``length`` defaults to the technology feature size (minimum-length
    devices, the common case for datapath transistors).
    """
    if width <= 0.0:
        raise ConfigurationError(f"width must be positive, got {width}")
    length = tech.feature_size if length is None else length
    if length <= 0.0:
        raise ConfigurationError(f"length must be positive, got {length}")
    return tech.avt_mismatch / math.sqrt(width * length)


@dataclass
class VariationSample:
    """One die's worth of process variation.

    The global corner is shared by every device; local draws are memoized by
    device name so that repeated queries for the same device (e.g. the same
    SRLR stage's M1 during different bits) return the same shift.  A
    sample without local mismatch never draws, so its ``rng`` may be None.
    """

    tech: Technology
    global_corner: GlobalCorner
    rng: np.random.Generator | None
    local_enabled: bool = True
    _local_cache: dict[str, float] = field(default_factory=dict)
    #: Shifts drawn ahead by :func:`planned_build`, not yet asked for.
    _planned: dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: While :func:`planned_build` records a plan: (name, sigma) per draw.
    _recording: list[tuple[str, float]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.local_enabled and self.rng is None:
            raise ConfigurationError("a sample with local mismatch needs an rng")

    def vth(self, name: str, polarity: str, width: float) -> float:
        """Effective threshold magnitude for the named device."""
        if polarity == "n":
            base = self.tech.vth_n + self.global_corner.dvth_n
        elif polarity == "p":
            base = self.tech.vth_p + self.global_corner.dvth_p
        else:
            raise ConfigurationError(f"polarity must be 'n' or 'p', got {polarity!r}")
        return base + self.local_shift(name, width)

    def local_shift(self, name: str, width: float) -> float:
        """Memoized local mismatch draw for the named device."""
        if not self.local_enabled:
            return 0.0
        shift = self._local_cache.get(name)
        if shift is None:
            if name in self._planned:
                shift = self._planned.pop(name)
            else:
                sigma = sigma_vth_local(self.tech, width)
                shift = float(self.rng.normal(0.0, sigma))
                if self._recording is not None:
                    self._recording.append((name, sigma))
            self._local_cache[name] = shift
        return shift


#: Draw plans by build key: the device names a fresh sample drew, in
#: order, and their mismatch sigmas.
_PLANS: dict[Hashable, tuple[tuple[str, ...], np.ndarray]] = {}

#: Plans kept at most; the oldest is dropped first.
_MAX_PLANS = 32

_T = TypeVar("_T")


def planned_build(sample: VariationSample, key: Hashable, build: Callable[[], _T]) -> _T:
    """Run ``build()``, drawing a fresh sample's mismatch in one call.

    ``key`` must determine which devices ``build`` asks ``sample`` for,
    in which order and at which widths (for an SRLR link: the design,
    the sample's technology and the name prefix).  The first build of a
    key on a fresh sample draws one device at a time and records the
    draw plan: (name, sigma) per draw, in order.  Later fresh samples
    draw the whole plan with one ``standard_normal(n)`` and scale it by
    the sigmas.  ``normal(0, sigma)`` is ``0 + sigma * z`` of the same
    standard-normal stream, so every shift and the generator's end state
    are those of the scalar draws.  A build that asks for devices in any
    other order, or for others, or raises, is rolled back and rerun with
    scalar draws.  A sample that already holds draws, has no local
    mismatch or draws from a legacy ``RandomState`` always draws scalar.
    """
    if (
        not sample.local_enabled
        or not isinstance(sample.rng, np.random.Generator)
        or sample._local_cache
        or sample._planned
        or sample._recording is not None
    ):
        return build()
    try:
        plan = _PLANS.get(key)
    except TypeError:  # an unhashable key: no plan
        return build()
    if plan is None:
        sample._recording = []
        try:
            value = build()
            recorded = sample._recording
        finally:
            sample._recording = None
        if len(_PLANS) >= _MAX_PLANS:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = (
            tuple(name for name, _ in recorded),
            np.array([sigma for _, sigma in recorded]),
        )
        return value
    names, sigmas = plan
    state = sample.rng.bit_generator.state
    shifts = 0.0 + sigmas * sample.rng.standard_normal(len(names))
    sample._planned = dict(zip(names, shifts.tolist()))
    try:
        value = build()
        followed = tuple(sample._local_cache) == names
    except Exception:
        followed = False
    finally:
        sample._planned = {}
    if followed:
        return value
    sample.rng.bit_generator.state = state
    sample._local_cache.clear()
    return build()


def nominal_sample(tech: Technology) -> VariationSample:
    """A variation-free sample (typical corner, no mismatch)."""
    return VariationSample(
        tech=tech, global_corner=typical(), rng=None, local_enabled=False
    )


def corner_sample(tech: Technology, corner: GlobalCorner) -> VariationSample:
    """A deterministic corner-only sample (no local mismatch)."""
    return VariationSample(
        tech=tech, global_corner=corner, rng=None, local_enabled=False
    )


def monte_carlo_sample(
    tech: Technology,
    seed: int | np.random.Generator,
    nmos_pmos_correlation: float = 0.6,
    local_enabled: bool = True,
) -> VariationSample:
    """A full Monte Carlo sample: random global corner + local mismatch stream."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    corner = sample_global(tech, rng, nmos_pmos_correlation)
    return VariationSample(
        tech=tech, global_corner=corner, rng=rng, local_enabled=local_enabled
    )
