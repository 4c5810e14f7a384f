"""Workloads as a first-class experiment axis.

Everything the simulators consume as "traffic" is built here from a
small declarative vocabulary — the same one
:class:`repro.fault.campaign.FaultCampaignConfig` hashes into campaign
identity:

* ``workload`` — :data:`WORKLOADS`: the Bernoulli synthetics
  (``"synthetic"``), Markov on/off bursts (``"bursty"``),
  multicast-heavy collectives (``"collective"``), or a recorded trace
  replay (``"trace"``).
* ``payload_mode`` — :data:`PAYLOAD_MODES`: what bits the flits carry,
  which is what the data-dependent link energy model
  (:mod:`repro.workload.energy`) prices.  Traces carry their own
  recorded bits; generated workloads draw random words from a
  content-addressed RNG stream or synthesize the all-toggle worst case.

:func:`build_traffic` is the one factory the campaign layer, the CLI,
and the DSE evaluators all share, so a workload spec means the same
packet stream everywhere it appears.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import WorkloadConfigError
from repro.noc.topology import Topology
from repro.noc.trace import cached_trace, topology_spec
from repro.noc.traffic import SyntheticTraffic
from repro.workload.energy import (
    coupling_miller_fraction,
    payload_datapath_energy,
)
from repro.workload.generators import (
    COLLECTIVES,
    BurstyTraffic,
    CollectiveTraffic,
)
from repro.workload.payload import (
    PAYLOAD_MODES,
    PayloadedTraffic,
    attach_payloads,
)

#: Workload families accepted by :func:`build_traffic` and the campaign
#: config.
WORKLOADS = ("synthetic", "bursty", "collective", "trace")

def build_traffic(
    topology: Topology | None,
    workload: str = "synthetic",
    *,
    injection_rate: float = 0.1,
    pattern: str = "uniform",
    size_flits: int = 1,
    multicast_fraction: float = 0.0,
    multicast_degree: int = 4,
    seed: int = 7,
    burst_on: float = 0.05,
    burst_off: float = 0.15,
    collective_fraction: float = 0.25,
    collective: str = "row",
    trace_path: str | Path | None = None,
    payload_mode: str = "constant",
    flit_bits: int = 64,
):
    """Build the traffic source for a declarative workload spec.

    The single factory behind the fault campaign, the service CLI, and
    the DSE workload axis.  ``topology`` may be None only for
    ``workload="trace"`` (the trace carries its own); when given with a
    trace it must match the recorded topology — campaign configs name
    both, and a silent mismatch would replay nonsense.  A trace workload
    is a fresh replay of the file's one cached parse
    (:func:`~repro.noc.trace.cached_trace`).
    """
    if workload not in WORKLOADS:
        raise WorkloadConfigError(
            f"workload must be one of {WORKLOADS}, got {workload!r}"
        )
    if workload == "trace":
        if trace_path is None:
            raise WorkloadConfigError("workload='trace' needs a trace_path")
        traffic = cached_trace(trace_path).replay()
        if topology is not None and topology != traffic.topology:
            raise WorkloadConfigError(
                f"trace {trace_path} was recorded on "
                f"{topology_spec(traffic.topology)} but the config asks "
                f"for {topology_spec(topology)}"
            )
        if payload_mode != "constant":
            raise WorkloadConfigError(
                "trace replay carries its own recorded payload; "
                f"payload_mode={payload_mode!r} does not apply"
            )
        return traffic
    if topology is None:
        raise WorkloadConfigError(f"workload={workload!r} needs a topology")
    if workload == "synthetic":
        traffic = SyntheticTraffic(
            topology,
            injection_rate,
            pattern=pattern,
            size_flits=size_flits,
            multicast_fraction=multicast_fraction,
            multicast_degree=multicast_degree,
            seed=seed,
        )
    elif workload == "bursty":
        if multicast_fraction != 0.0:
            raise WorkloadConfigError(
                "bursty traffic is unicast-only; "
                f"multicast_fraction={multicast_fraction} does not apply"
            )
        traffic = BurstyTraffic(
            topology,
            injection_rate,
            pattern=pattern,
            size_flits=size_flits,
            burst_on=burst_on,
            burst_off=burst_off,
            seed=seed,
        )
    else:  # collective
        traffic = CollectiveTraffic(
            topology,
            injection_rate,
            collective_fraction=collective_fraction,
            collective=collective,
            size_flits=size_flits,
            multicast_degree=multicast_degree,
            seed=seed,
        )
    if payload_mode != "constant":
        traffic = PayloadedTraffic(traffic, mode=payload_mode, flit_bits=flit_bits)
    return traffic


__all__ = [
    "COLLECTIVES",
    "PAYLOAD_MODES",
    "WORKLOADS",
    "BurstyTraffic",
    "CollectiveTraffic",
    "PayloadedTraffic",
    "attach_payloads",
    "build_traffic",
    "coupling_miller_fraction",
    "payload_datapath_energy",
]
