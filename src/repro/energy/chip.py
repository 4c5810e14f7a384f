"""Chip-scale NoC power: scaling the router model to a many-core die.

Section I's motivation: "NoCs are becoming increasingly power-constrained"
— the datapath share of NoC power grows with bandwidth demand and with
technology scaling (control/storage scale, wires do not).  This module
scales the calibrated router model to a k x k chip and quantifies what
the SRLR datapath buys at the chip level, including against a total chip
power budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.energy.router import RouterConfig, RouterPowerModel, default_router_config
from repro.circuit.bias import BIAS_GENERATOR_POWER


@dataclass(frozen=True)
class ChipNocPower:
    """NoC power of a k x k chip at one utilization."""

    k: int
    utilization: float
    datapath_style: str
    buffers: float
    control: float
    datapath: float
    bias: float

    @property
    def total(self) -> float:
        return self.buffers + self.control + self.datapath + self.bias

    @property
    def datapath_fraction(self) -> float:
        return self.datapath / self.total if self.total > 0 else 0.0

def chip_noc_power(
    k: int,
    utilization: float = 0.3,
    datapath: str = "srlr",
    config: RouterConfig | None = None,
) -> ChipNocPower:
    """Aggregate NoC power of a k x k mesh chip.

    One router per tile; one shared bias generator per router when the
    SRLR datapath is used (the paper amortizes it across a router's
    parallel links).  Edge routers have fewer active links; the (k-1)/k
    link-population factor corrects the datapath term.
    """
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    model = RouterPowerModel(config or default_router_config())
    per_router = model.power_breakdown(utilization, datapath)
    n = k * k
    # Directed links present vs the 4 every router's datapath assumes.
    link_population = (4.0 * k * (k - 1)) / (2.0 * n)  # out-links per router / 2
    bias = n * BIAS_GENERATOR_POWER if datapath == "srlr" else 0.0
    return ChipNocPower(
        k=k,
        utilization=utilization,
        datapath_style=datapath,
        buffers=n * per_router.buffers,
        control=n * per_router.control,
        datapath=n * per_router.datapath * link_population / 2.0,
        bias=bias,
    )


@dataclass(frozen=True)
class ChipComparison:
    """SRLR vs full-swing datapath at chip scale."""

    srlr: ChipNocPower
    full_swing: ChipNocPower

    @property
    def saving_w(self) -> float:
        return self.full_swing.total - self.srlr.total

    @property
    def noc_power_reduction(self) -> float:
        if self.full_swing.total <= 0:
            return 0.0
        return self.saving_w / self.full_swing.total


def compare_chip(
    k: int, utilization: float = 0.3, config: RouterConfig | None = None
) -> ChipComparison:
    """The chip-level payoff of embedding SRLRs in every router."""
    return ChipComparison(
        srlr=chip_noc_power(k, utilization, "srlr", config),
        full_swing=chip_noc_power(k, utilization, "full_swing", config),
    )


__all__ = ["ChipComparison", "ChipNocPower", "chip_noc_power", "compare_chip"]
