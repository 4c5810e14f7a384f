"""The fault campaign: effective fJ/bit/mm and goodput vs raw link BER.

One campaign sweeps a grid of (raw per-bit error rate) x (protection
scheme), running the cycle-level NoC under fault injection at each point
and reporting, per point:

* **goodput** — intact (packet, destination) deliveries per node per
  cycle in the measurement window (end-to-end points count *completed
  transfers*, since a retried packet's delivery record carries the retry
  injection cycle);
* **effective fJ/bit/mm** — total energy including protection overheads
  divided by intact payload bit-mm (:mod:`repro.fault.energy`);
* raw protocol counters and per-link Clopper-Pearson BER bounds
  (:func:`repro.mc.ber.ber_upper_bound_many`) recovered from the
  injected error counts — closing the loop back to the circuit-layer
  measurement methodology.

Reproducibility contract: every RNG stream is derived with
:func:`repro.runtime.seeds.derived_seed` from the campaign seed and a
content token (link identity, campaign point), so per-link fault counts
and all summary statistics are bitwise identical for ``--jobs 1`` and
``--jobs N``.  The worker is a module-level function over picklable
frozen configs, so :class:`repro.runtime.ParallelExecutor` runs it in
processes without a serial fallback.
"""

from __future__ import annotations

import argparse
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro.config import check_fields, checked
from repro.errors import ConfigurationError, LivelockError, WorkloadConfigError
from repro.fault.energy import price_fault_run
from repro.fault.injector import FaultLayer
from repro.fault.models import UniformBer
from repro.fault.protection import PROTOCOLS, ProtectionConfig
from repro.mc.ber import ber_upper_bound_many
from repro.noc import trace as noc_trace
from repro.noc.simulator import (
    ENGINES,
    EngineFallbackWarning,
    NocSimulator,
    engine_for_traffic,
)
from repro.noc.topology import TOPOLOGY_KINDS, Topology, build_topology
from repro.noc.trace import (
    TraceTraffic,
    cached_trace,
    topology_spec,
    trace_file_hash,
)
from repro.noc.traffic import PATTERNS
from repro.workload import COLLECTIVES, PAYLOAD_MODES, WORKLOADS, build_traffic
from repro.runtime import (
    TaskFailure,
    checkpoint_store,
    driver_executor,
    run_checkpointed,
)
from repro.runtime.cache import content_key
from repro.runtime.executor import ParallelExecutor
from repro.runtime.seeds import derived_seed


def _flag(default, help: str, choices=None, **checks):
    """A config field with a command-line flag (:func:`add_config_flags`);
    ``checks`` are :func:`~repro.config.check_fields` metadata."""
    return checked(default, help=help, choices=choices, **checks)


@dataclass(frozen=True)
class FaultCampaignConfig:
    """Grid and simulation parameters of one fault campaign.

    Every field but ``stall_window`` and ``flit_bits`` is a command-line
    flag; its help text is the ``_flag`` string beside it.
    """

    topology: str = _flag("mesh", "topology family", sorted(TOPOLOGY_KINDS))
    k: int = _flag(
        4, "router-grid radix (per chiplet for --topology chiplet)",
        interval="[2, inf)",
    )
    concentration: int = _flag(1, "cores per router (--topology cmesh)")
    chiplets_x: int = _flag(1, "chiplet grid width (--topology chiplet)")
    chiplets_y: int = _flag(1, "chiplet grid height (--topology chiplet)")
    noi_scale: float = _flag(
        2.0, "NoI link length relative to 1 mm NoC links (--topology chiplet)"
    )
    injection_rate: float = _flag(
        0.05, "injection rate, packets/node/cycle", interval="(0, 1]"
    )
    pattern: str = _flag("uniform", "traffic pattern")
    size_flits: int = _flag(2, "flits per packet")
    warmup: int = _flag(100, "cycles before the measurement window")
    measure: int = _flag(400, "measurement window, cycles")
    drain_limit: int = _flag(20_000, "cycles allowed to drain the network")
    stall_window: int = 500
    bers: tuple[float, ...] = _flag(
        (1e-6, 1e-4, 1e-3, 1e-2), "raw per-bit error rates to sweep",
        interval="[0, 1]",
    )
    protocols: tuple[str, ...] = _flag(PROTOCOLS, "protection schemes", PROTOCOLS)
    flit_bits: int = 64
    datapath: str = _flag("srlr", "datapath energy model", ("srlr", "full_swing"))
    seed: int = _flag(7, "base seed")
    #: Cycle-loop implementation ("fast" or "reference"); both produce
    #: identical results — see tests/test_noc_fastsim_parity.py.  A
    #: multicast mix forces the reference engine (the fast engine is
    #: unicast-only) with an :class:`EngineFallbackWarning`.
    engine: str = _flag("fast", "NoC cycle-loop engine", sorted(ENGINES))
    #: Share of injected packets that are multicast (single-flit, random
    #: destination set of ``multicast_degree``); 0 keeps pure unicast.
    multicast_fraction: float = _flag(
        0.0, "share of multicast packets", interval="[0, 1]"
    )
    multicast_degree: int = _flag(4, "destinations per multicast packet")
    #: Workload family (:data:`repro.workload.WORKLOADS`): the Bernoulli
    #: synthetics, Markov on/off bursts, multicast collectives, or a
    #: recorded trace replay.  Fields that do not apply to the selected
    #: workload must stay at their defaults — mixing refuses loudly with
    #: a :class:`~repro.errors.WorkloadConfigError`.
    workload: str = _flag(
        "synthetic", "workload family", sorted(WORKLOADS),
        error=WorkloadConfigError,
    )
    #: Trace file (JSON or text format) for workload="trace".  Campaign
    #: identity hashes the trace's *content*, not this path.
    trace_path: str | None = _flag(None, "trace file to replay (--workload trace)")
    burst_on: float = _flag(0.05, "Markov P(off->on) per cycle (--workload bursty)")
    burst_off: float = _flag(0.15, "Markov P(on->off) per cycle (--workload bursty)")
    collective_fraction: float = _flag(
        0.25, "multicast share (--workload collective)"
    )
    collective: str = _flag(
        "row", "destination set (--workload collective)", sorted(COLLECTIVES),
        error=WorkloadConfigError,
    )
    #: What bits flits carry (:data:`repro.workload.PAYLOAD_MODES`):
    #: "constant" keeps the worst-case per-bit price, "random" /
    #: "worst_case" switch link pricing to counted bit transitions.
    #: Traces carry their own recorded bits.
    payload_mode: str = _flag(
        "constant", "what bits flits carry", sorted(PAYLOAD_MODES),
        error=WorkloadConfigError,
    )
    #: Include the coupled-line Miller surcharge in data-dependent
    #: pricing; only meaningful when payload bits are being counted.
    coupling: bool = _flag(True, "drop the crosstalk term from data-dependent pricing")

    def __post_init__(self) -> None:
        check_fields(self)
        # JSON configs carry lists; the frozen config must stay hashable
        # (it keys the per-process traffic tape memo).
        object.__setattr__(self, "bers", tuple(self.bers))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        # Build once to fail fast with the builder's named-parameter
        # errors (bad concentration, chiplet grid, noi_scale).
        topo = self.build_topology()
        if self.multicast_fraction > 0.0 and not topo.grid_endpoints:
            raise ConfigurationError(
                "multicast_fraction > 0 requires a grid-endpoint topology "
                f"(mesh, torus); got topology={self.topology!r}"
            )
        if self.pattern not in PATTERNS:
            raise ConfigurationError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERNS}"
            )
        self._validate_workload(topo)

    def _validate_workload(self, topo: Topology) -> None:
        """Refuse workload/traffic field combinations that do not apply.

        Mirrors :func:`~repro.noc.topology.build_topology`'s named-flag
        guards: a knob the selected workload would silently ignore is a
        :class:`~repro.errors.WorkloadConfigError` naming the offending
        combination, never a quiet no-op.
        """
        for workload, names in (
            ("trace", ("trace_path",)),
            ("bursty", ("burst_on", "burst_off")),
            ("collective", ("collective_fraction", "collective")),
        ):
            offending = self._off_default(*names)
            if offending and self.workload != workload:
                raise WorkloadConfigError(
                    f"{', '.join(offending)} apply only to workload="
                    f"{workload!r} (got workload={self.workload!r})"
                )
        if self.workload == "bursty" and self._off_default("multicast_fraction"):
            raise WorkloadConfigError(
                f"workload='bursty' is unicast-only; "
                f"multicast_fraction={self.multicast_fraction} does not apply"
            )
        if self.workload == "collective" and self._off_default(
            "multicast_fraction"
        ):
            raise WorkloadConfigError(
                "workload='collective' mixes multicast via "
                f"collective_fraction; multicast_fraction="
                f"{self.multicast_fraction} does not apply"
            )
        if not self.coupling and self.payload_mode == "constant" and (
            self.workload != "trace"
        ):
            raise WorkloadConfigError(
                "coupling=False only affects data-dependent pricing; "
                "select payload_mode='random'/'worst_case' or a payload-"
                "carrying trace"
            )
        if self.workload == "trace":
            if self.trace_path is None:
                raise WorkloadConfigError("workload='trace' needs a trace_path")
            if self._off_default("payload_mode"):
                raise WorkloadConfigError(
                    "trace replay carries its own recorded payload; "
                    f"payload_mode={self.payload_mode!r} does not apply"
                )
            offending = self._off_default(
                "injection_rate", "pattern", "size_flits",
                "multicast_fraction", "multicast_degree",
            )
            if offending:
                raise WorkloadConfigError(
                    "trace replay defines its own packet stream; generator "
                    f"knobs do not apply: {', '.join(offending)}"
                )
            trace = cached_trace(self.trace_path)
            if trace.topology != topo:
                raise WorkloadConfigError(
                    f"trace {self.trace_path} was recorded on "
                    f"{topology_spec(trace.topology)} but the campaign "
                    f"asks for {topology_spec(topo)}"
                )

    def _off_default(self, *names: str) -> list[str]:
        """``name=value`` of each named field that is off its default."""
        defaults = {f.name: f.default for f in fields(self)}
        return [
            f"{n}={getattr(self, n)!r}" for n in names
            if getattr(self, n) != defaults[n]
        ]

    def build_topology(self) -> Topology:
        """The topology instance this campaign simulates over."""
        return build_topology(
            self.topology,
            self.k,
            concentration=self.concentration,
            chiplets_x=self.chiplets_x,
            chiplets_y=self.chiplets_y,
            noi_scale=self.noi_scale,
        )

    def describe(self) -> str:
        """Short human topology label for reports."""
        if self.topology == "cmesh":
            return f"{self.k}x{self.k} cmesh (c={self.concentration})"
        if self.topology == "chiplet":
            return (
                f"{self.chiplets_x}x{self.chiplets_y} chiplets of "
                f"{self.k}x{self.k} (NoI x{self.noi_scale:g})"
            )
        return f"{self.k}x{self.k} {self.topology}"

    def content_hash(self) -> str:
        """The content-hash identity of this campaign configuration.

        A trace campaign's identity follows the trace's *content*: the
        path is replaced by :func:`~repro.noc.trace.trace_file_hash`, so
        the same trace at two paths (or in two encodings) is the same
        campaign, and an edited trace file is a different one.
        """
        # v2: topology-class parameters joined the config identity.
        # v3: the workload axis joined; trace_path hashes by content.
        fields = asdict(self)
        if self.workload == "trace":
            fields["trace_path"] = trace_file_hash(self.trace_path)
        return content_key("fault-campaign/v3", fields)

    def workload_multicast_fraction(self) -> float:
        """The multicast share the selected workload will inject."""
        if self.multicast_fraction > 0.0:
            return self.multicast_fraction
        if self.workload == "collective":
            return self.collective_fraction
        if self.workload == "trace":
            return cached_trace(self.trace_path).multicast_fraction
        return 0.0

    def effective_engine(self, warn: bool = True) -> str:
        """The engine a point will actually run on.

        The fast engine is unicast-only; a multicast mix falls back to
        the reference oracle.  The fallback is *loud* — an
        :class:`EngineFallbackWarning` naming the cause and the
        campaign's config hash — so a surprisingly slow campaign is
        attributable, never a bare silent reference-engine run.
        """
        multicast = self.workload_multicast_fraction()
        engine = engine_for_traffic(self.engine, multicast)
        if warn and engine != self.engine:
            warnings.warn(
                f"campaign {self.content_hash()[:16]}: engine='fast' "
                f"does not support multicast traffic "
                f"(workload={self.workload!r} injects a multicast "
                f"fraction of {multicast:g}); "
                f"falling back to the reference engine",
                EngineFallbackWarning,
                stacklevel=3,
            )
        return engine

    def tasks(self) -> list[tuple["FaultCampaignConfig", float, str]]:
        return [
            (self, ber, protocol)
            for ber in self.bers
            for protocol in self.protocols
        ]


#: Flags that keep their historical names instead of ``--<field>``.
_FLAG_NAMES = {"injection_rate": "--rate", "coupling": "--no-coupling"}


def config_flag(name: str) -> str:
    """The command-line flag of :class:`FaultCampaignConfig` field ``name``."""
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))


def add_config_flags(parser, names=None) -> None:
    """Add one flag per named :class:`FaultCampaignConfig` field (default:
    every ``_flag`` field) to a parser or argument group.

    The field's default sets the flag's type, and a tuple default takes
    one or more values; help and choices come from the field metadata.
    Each flag defaults to :data:`argparse.SUPPRESS`, so a flag left off
    sets nothing and the dataclass default applies.
    """
    flagged = {f.name: f for f in fields(FaultCampaignConfig) if f.metadata}
    for name in names or flagged:
        f = flagged[name]
        kwargs = {"default": argparse.SUPPRESS, "help": f.metadata["help"]}
        if isinstance(f.default, bool):
            # --no-coupling: given, it stores the field's value, False.
            kwargs["action"] = "store_false"
        else:
            sample, shown = f.default, f.default
            if isinstance(f.default, tuple):
                kwargs["nargs"] = "+"
                sample, shown = f.default[0], " ".join(map(str, f.default))
            if type(sample) in (int, float):
                kwargs["type"] = type(sample)
            kwargs["choices"] = f.metadata["choices"]
            kwargs["help"] += f" (default: {shown})"
        parser.add_argument(config_flag(name), **kwargs)


def config_flag_values(args: argparse.Namespace) -> dict:
    """The fields whose :func:`add_config_flags` flags were given, in
    declaration order."""
    given = vars(args)
    return {
        f.name: given[dest]
        for f in fields(FaultCampaignConfig)
        if (dest := config_flag(f.name)[2:].replace("-", "_")) in given
    }


@dataclass(frozen=True)
class FaultPointResult:
    """Summary of one (BER, protocol) campaign point.

    Deliberately free of packet ids and timestamps: every field is a
    pure function of (config, ber, protocol), which is what makes the
    jobs-parity acceptance test meaningful.
    """

    ber: float
    protocol: str
    delivered: int
    clean_delivered: int
    corrupted_delivered: int
    goodput: float
    avg_latency: float
    effective_fj_per_bit_mm: float
    overhead_fraction: float
    raw_faults: int
    retransmissions: int
    crc_giveups: int
    flits_dropped: int
    links_disabled: int
    undeliverable_packets: int
    packet_retries: int
    completed_transfers: int
    failed_transfers: int
    #: (link token, faulty attempts, transmitted flits), sorted by token.
    per_link_errors: tuple[tuple[str, int, int], ...]
    #: 95% Clopper-Pearson upper BER bound per link (same order).
    per_link_ber_bounds: tuple[float, ...]
    #: Set when the run aborted in a livelock; counters are partial.
    livelocked: bool = False


def _traffic_seed(config: FaultCampaignConfig) -> int:
    """The seed of a campaign's traffic stream (and the NIC RNGs).

    The token names no BER and no protocol: every point of a campaign
    sees the same offered packets, so scheme comparisons see identical
    load.  The mesh token predates the topology zoo and stays unchanged
    so mesh campaigns remain bitwise identical to their golden runs;
    the synthetic tokens likewise predate the workload axis.
    """
    if config.workload == "synthetic":
        if config.topology == "mesh":
            token = f"fault/campaign/traffic/{config.k}"
        else:
            token = f"fault/campaign/traffic/{config.topology}/{config.k}"
    else:
        token = (
            f"fault/campaign/traffic/{config.workload}/"
            f"{config.topology}/{config.k}"
        )
    return derived_seed(config.seed, token)


def _build_campaign_traffic(config: FaultCampaignConfig, topology: Topology):
    """A live traffic source for ``config`` (the stream a tape records)."""
    return build_traffic(
        topology,
        config.workload,
        injection_rate=config.injection_rate,
        pattern=config.pattern,
        size_flits=config.size_flits,
        multicast_fraction=config.multicast_fraction,
        multicast_degree=config.multicast_degree,
        seed=_traffic_seed(config),
        burst_on=config.burst_on,
        burst_off=config.burst_off,
        collective_fraction=config.collective_fraction,
        collective=config.collective,
        trace_path=config.trace_path,
        payload_mode=config.payload_mode,
        flit_bits=config.flit_bits,
    )


#: Campaigns whose recorded packet stream is kept, most recent last.
_TAPE_MEMO_SIZE = 4
_tapes: dict[FaultCampaignConfig, TraceTraffic] = {}


def _campaign_tape(config: FaultCampaignConfig) -> TraceTraffic:
    """The campaign's packet stream, recorded once per process.

    Every point of a campaign shares its config, so the serial map, each
    worker process and the service adapter all record the stream once
    and replay it at every (BER, protocol) point.  Keyed by the whole
    frozen config: campaigns that differ in any field (seed included)
    never share a recording.  A trace workload's stream is the trace
    file's cached parse, which an edited file invalidates.
    """
    if config.workload == "trace":
        return cached_trace(config.trace_path)
    tape = _tapes.pop(config, None)
    if tape is None:
        # Through the module, so a probe on noc.trace.record_trace sees it.
        tape = noc_trace.record_trace(
            _build_campaign_traffic(config, config.build_topology()),
            config.warmup + config.measure,
        )
        if len(_tapes) >= _TAPE_MEMO_SIZE:
            del _tapes[next(iter(_tapes))]
    _tapes[config] = tape
    return tape


def _evaluate_point(
    task: tuple[FaultCampaignConfig, float, str]
) -> FaultPointResult:
    """Run one campaign point (module-level: picklable for workers)."""
    config, ber, protocol = task
    topology = config.build_topology()
    sim_seed = _traffic_seed(config)
    traffic = _campaign_tape(config).replay()
    # warn=False: the campaign driver already warned once in the parent;
    # worker processes would emit invisible duplicates.
    sim = NocSimulator(
        topology,
        traffic=traffic,
        seed=sim_seed,
        engine=config.effective_engine(warn=False),
    )
    protection = ProtectionConfig(protocol=protocol)
    layer = FaultLayer(
        UniformBer(ber),
        protection,
        seed=derived_seed(config.seed, f"fault/campaign/ber/{ber:.9e}"),
        flit_bits=config.flit_bits,
    ).attach(sim)

    livelocked = False
    try:
        sim.run(
            warmup=config.warmup,
            measure=config.measure,
            drain_limit=config.drain_limit,
            stall_window=config.stall_window,
        )
    except LivelockError:
        livelocked = True

    stats, fstats = sim.stats, layer.stats
    window = config.measure
    # Goodput normalizes per *endpoint* (= per router on the flat mesh
    # and torus, per core elsewhere).
    n_nodes = len(topology.endpoints())

    if protocol == "e2e":
        # Completed transfers whose first injection fell in the window.
        records = [
            r
            for r in fstats.transfer_records
            if stats.measure_start <= r.first_inject < stats.measure_end
        ]
        clean = sum(len(r.dests) for r in records)
        latencies = [r.latency for r in records]
        useful = [(r.src, d) for r in records for d in r.dests]
    else:
        measured = stats.clean_measured()
        clean = len(measured)
        latencies = [r.latency for r in measured]
        useful = None

    report = price_fault_run(
        stats,
        fstats,
        sim.topology,
        protection,
        size_flits=config.size_flits,
        datapath=config.datapath,
        n_cycles=sim.cycle,
        useful_deliveries=useful,
        links=sim.links,
        coupling=config.coupling,
    )
    counts = fstats.per_link_error_counts()
    tokens = sorted(counts)
    errors = [counts[t][0] for t in tokens]
    transmitted = [max(counts[t][1], 1) for t in tokens]
    bounds = ber_upper_bound_many(errors, transmitted)
    return FaultPointResult(
        ber=ber,
        protocol=protocol,
        delivered=stats.delivered_count,
        clean_delivered=clean,
        corrupted_delivered=stats.corrupted_deliveries,
        goodput=clean / (window * n_nodes),
        avg_latency=(
            sum(latencies) / len(latencies) if latencies else float("nan")
        ),
        effective_fj_per_bit_mm=report.effective_fj_per_bit_mm,
        overhead_fraction=report.overhead_fraction,
        raw_faults=fstats.raw_faults,
        retransmissions=fstats.retransmissions,
        crc_giveups=fstats.crc_giveups,
        flits_dropped=fstats.flits_dropped,
        links_disabled=fstats.links_disabled,
        undeliverable_packets=fstats.undeliverable_packets,
        packet_retries=fstats.packet_retries,
        completed_transfers=fstats.completed_transfers,
        failed_transfers=fstats.failed_transfers,
        per_link_errors=tuple(
            (t, counts[t][0], counts[t][1]) for t in tokens
        ),
        per_link_ber_bounds=tuple(float(b) for b in bounds),
        livelocked=livelocked,
    )


def config_identity(config: dict) -> dict:
    """A campaign's stored identity: ``config`` (``asdict`` of a
    :class:`FaultCampaignConfig`) plus, for a trace workload, the trace's
    content hash.  Identity follows the trace's *content*: an edited
    trace file under the same path is a different campaign, so neither
    a checkpoint nor a service campaign attaches across the edit."""
    if config["workload"] != "trace":
        return config
    return {**config, "trace_hash": trace_file_hash(config["trace_path"])}


def point_key(ber: float, protocol: str) -> str:
    """The checkpoint-record key of one campaign point."""
    return f"{ber!r}/{protocol}"


def point_payload(point: FaultPointResult) -> dict:
    """JSON checkpoint payload (floats round-trip exactly)."""
    return asdict(point)


def point_from_payload(payload: dict) -> FaultPointResult:
    fields = dict(payload)
    fields["per_link_errors"] = tuple(
        (str(t), int(e), int(n)) for t, e, n in fields["per_link_errors"]
    )
    fields["per_link_ber_bounds"] = tuple(
        float(b) for b in fields["per_link_ber_bounds"]
    )
    return FaultPointResult(**fields)


@dataclass(frozen=True)
class FaultCampaignResult:
    """All points of one campaign, in task order.

    Points whose simulation task exhausted its retry budget under a
    non-strict :class:`~repro.runtime.ResilienceConfig` are absent from
    ``points`` and recorded in ``failures`` instead (``point()`` raises
    for them).
    """

    config: FaultCampaignConfig
    points: tuple[FaultPointResult, ...]
    failures: tuple[TaskFailure, ...] = ()

    @classmethod
    def from_values(
        cls,
        config: FaultCampaignConfig,
        values: list[FaultPointResult | TaskFailure],
    ) -> "FaultCampaignResult":
        """The result of task-ordered point outcomes; a
        :class:`TaskFailure` slot goes to ``failures``."""
        return cls(
            config=config,
            points=tuple(v for v in values if not isinstance(v, TaskFailure)),
            failures=tuple(v for v in values if isinstance(v, TaskFailure)),
        )

    def point(self, ber: float, protocol: str) -> FaultPointResult:
        for p in self.points:
            if p.ber == ber and p.protocol == protocol:
                return p
        raise ConfigurationError(f"no campaign point ({ber}, {protocol!r})")

    def best_protocol(self, ber: float) -> str:
        """Protection scheme with the lowest effective energy at ``ber``."""
        candidates = [p for p in self.points if p.ber == ber]
        if not candidates:
            raise ConfigurationError(f"no campaign points at ber={ber}")
        return min(candidates, key=lambda p: p.effective_fj_per_bit_mm).protocol


def run_fault_campaign(
    config: FaultCampaignConfig | None = None,
    n_jobs: int | None = 1,
    executor: ParallelExecutor | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> FaultCampaignResult:
    """Evaluate the full (BER x protocol) grid, optionally in parallel.

    ``n_jobs`` fans the points across worker processes; a pre-built
    ``executor`` replaces it (passing both is a
    :class:`~repro.errors.ConfigurationError`).  An executor with a
    :class:`~repro.runtime.ResilienceConfig` opts points into the
    fault-tolerant task layer: timeouts, deterministic retries,
    worker-crash recovery, and (unless ``strict=True``) quarantine of
    points that exhaust their budget into ``result.failures``.
    ``checkpoint``/``resume`` persist each completed point to a
    crash-safe JSONL store bound to this exact campaign configuration —
    a campaign killed mid-run resumes to the bitwise result of an
    uninterrupted one, because every point's RNG streams derive only
    from (campaign seed, point identity).
    """
    config = config or FaultCampaignConfig()
    config.effective_engine()  # warn (once, in the parent) on a fallback
    tasks = config.tasks()
    executor = driver_executor(executor, n_jobs)
    store_config = {
        "kind": "fault-campaign/v3",
        "config": config_identity(asdict(config)),
    }
    with checkpoint_store(checkpoint, store_config, resume) as store:
        values = run_checkpointed(
            executor,
            _evaluate_point,
            tasks,
            [point_key(ber, protocol) for _, ber, protocol in tasks],
            store,
            encode=point_payload,
            decode=point_from_payload,
        )
    return FaultCampaignResult.from_values(config, values)


def protection_crossover(
    result: FaultCampaignResult, a: str, b: str
) -> float | None:
    """Lowest swept BER at which scheme ``a`` beats ``b`` on energy.

    The headline comparison: raw links ("none") win at vanishing BER —
    protection is pure overhead — and lose once corrupted deliveries
    erode the useful bit-mm.  Returns None if ``a`` never wins.
    """
    for protocol in (a, b):
        if protocol not in result.config.protocols:
            raise ConfigurationError(f"{protocol!r} was not part of the campaign")
    for ber in sorted(result.config.bers):
        try:
            pa = result.point(ber, a)
            pb = result.point(ber, b)
        except ConfigurationError:
            # One side of the comparison was quarantined at this BER.
            continue
        if pa.effective_fj_per_bit_mm < pb.effective_fj_per_bit_mm:
            return ber
    return None


def format_fault_report(result: FaultCampaignResult) -> str:
    """Human-readable campaign table (the CLI's output)."""
    config = result.config
    lines = [
        f"fault campaign: {config.describe()}, "
        f"{config.pattern} @ {config.injection_rate} flits/node/cycle, "
        f"{config.size_flits}-flit packets, seed {config.seed}",
        "",
        f"{'BER':>9}  {'protocol':<8} {'goodput':>8} {'clean':>6} "
        f"{'eff fJ/b/mm':>11} {'ovhd':>5} {'retx':>6} {'giveup':>6} "
        f"{'drop':>5} {'dead':>4} {'retry':>5} {'fail':>4}",
    ]
    for p in result.points:
        eff = (
            f"{p.effective_fj_per_bit_mm:11.1f}"
            if p.effective_fj_per_bit_mm != float("inf")
            else f"{'inf':>11}"
        )
        flag = " LIVELOCK" if p.livelocked else ""
        lines.append(
            f"{p.ber:9.1e}  {p.protocol:<8} {p.goodput:8.4f} "
            f"{p.clean_delivered:6d} {eff} {p.overhead_fraction:5.2f} "
            f"{p.retransmissions:6d} {p.crc_giveups:6d} "
            f"{p.flits_dropped:5d} {p.links_disabled:4d} "
            f"{p.packet_retries:5d} {p.failed_transfers:4d}{flag}"
        )
    if result.failures:
        lines.append("")
        lines.append(f"{len(result.failures)} point(s) failed and were quarantined:")
        for failure in result.failures:
            lines.append(f"  {failure.summary()}")
    lines.append("")
    for ber in sorted(config.bers):
        if not any(p.ber == ber for p in result.points):
            lines.append(f"best protection at BER {ber:.1e}: n/a (all points failed)")
            continue
        lines.append(
            f"best protection at BER {ber:.1e}: {result.best_protocol(ber)}"
        )
    if "none" in config.protocols:
        for protocol in config.protocols:
            if protocol == "none":
                continue
            crossover = protection_crossover(result, protocol, "none")
            where = f"BER >= {crossover:.1e}" if crossover is not None else "never"
            lines.append(f"{protocol} beats raw links: {where}")
    return "\n".join(lines)


__all__ = [
    "EngineFallbackWarning",
    "FaultCampaignConfig",
    "FaultCampaignResult",
    "FaultPointResult",
    "add_config_flags",
    "config_flag",
    "config_flag_values",
    "config_identity",
    "format_fault_report",
    "point_from_payload",
    "point_key",
    "point_payload",
    "protection_crossover",
    "run_fault_campaign",
]
