"""Energy and power models: wires, links, prior works, routers."""

from repro.energy.baselines import (
    KIM2010_DRIVER_AREA,
    InterconnectDesign,
    kim2010,
    mensink2010,
    park2012,
    seo2010,
    table1_designs,
    this_work,
)
from repro.energy.link_energy import (
    BiasOverheadReport,
    LinkEnergyReport,
    bias_overhead,
    full_swing_link_energy,
    srlr_link_energy,
)
from repro.energy.router import (
    CROSSPOINTS_5PORT,
    PUBLISHED_NOC_BREAKDOWNS,
    SRLR_AREA,
    RouterArea,
    RouterConfig,
    RouterPower,
    RouterPowerModel,
    datapath_share,
    default_router_config,
)
from repro.energy.chip import ChipComparison, ChipNocPower, chip_noc_power, compare_chip
from repro.energy.scaling import VddPoint, sweep_vdd

__all__ = [
    "BiasOverheadReport",
    "ChipComparison",
    "ChipNocPower",
    "VddPoint",
    "chip_noc_power",
    "compare_chip",
    "sweep_vdd",
    "CROSSPOINTS_5PORT",
    "InterconnectDesign",
    "KIM2010_DRIVER_AREA",
    "LinkEnergyReport",
    "PUBLISHED_NOC_BREAKDOWNS",
    "RouterArea",
    "RouterConfig",
    "RouterPower",
    "RouterPowerModel",
    "SRLR_AREA",
    "bias_overhead",
    "datapath_share",
    "default_router_config",
    "full_swing_link_energy",
    "kim2010",
    "mensink2010",
    "park2012",
    "seo2010",
    "srlr_link_energy",
    "table1_designs",
    "this_work",
]
