"""Trace-driven traffic: record, ingest, save, and replay packet streams.

Synthetic patterns answer "what if"; traces answer "what happened".  This
module lets a workload be captured once (from a synthetic run, a bursty
generator, an external simulator dump, or built by hand) and replayed
deterministically against different router/datapath configurations — the
methodology used for the SRLR-vs-full-swing and taps-vs-no-taps
comparisons, where both sides must see *identical* traffic.
:class:`TraceTraffic` is the one recorded-stream source: the fault
campaign records each campaign's generated stream with
:func:`record_trace` once per process and replays it at every point.

Two interchangeable on-disk forms:

* **JSON** (``save``/``load``): portable, diffable, carries the topology
  spec inline.
* **Text lines** (``save_text``/``load_text``): the gem5/Netrace-style
  ingestion format — header directives, then one packet per line,

  .. code-block:: text

     # comment
     topology torus k=4
     flit_bits 32
     <cycle> <src_x>,<src_y> <dx,dy[;dx,dy...]> <size_flits> [hexword ...]

  with one optional hex payload word per flit (LSB = wire 0).  A trace
  without the ``flit_bits`` directive (an external dump) has 64-bit
  flits.  Text traces are parsed **streaming**: :func:`iter_trace_text`
  yields entries line by line in constant memory, so multi-million-packet
  dumps ingest without materializing the file.

Traces are content-addressed: :meth:`TraceTraffic.content_hash` is a
stable digest of the topology spec and every entry (payload included),
and :func:`trace_file_hash` maps a trace *file* to that same logical
digest, so a trace slots into the campaign service and ResultCache
exactly like any other config — two copies of the same trace hash
identically regardless of path or format.  :func:`cached_trace` parses
and validates each version of a trace file once per process; the hash
and every replay of the file read that one parse.
"""

from __future__ import annotations

import copy
import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import ConfigurationError, WorkloadConfigError
from repro.noc.packet import Packet, check_packet, unicast_packet
from repro.noc.topology import NodeId, Topology, build_topology
from repro.runtime.cache import content_key


def topology_spec(topology: Topology) -> dict:
    """The ``build_topology`` keyword form of a topology (JSON-safe)."""
    kind = topology.kind
    if kind == "mesh":
        return {"kind": "mesh", "k": topology.k}
    if kind == "torus":
        return {"kind": "torus", "k": topology.k}
    if kind == "cmesh":
        return {"kind": "cmesh", "k": topology.k, "concentration": topology.c}
    if kind == "chiplet":
        return {
            "kind": "chiplet",
            "k": topology.chiplet_k,
            "chiplets_x": topology.chiplets_x,
            "chiplets_y": topology.chiplets_y,
            "noi_scale": topology.noi_scale,
        }
    raise ConfigurationError(f"cannot serialize topology kind {kind!r}")


def topology_from_spec(spec: dict) -> Topology:
    kwargs = dict(spec)
    kind = kwargs.pop("kind")
    k = kwargs.pop("k")
    return build_topology(kind, k, **kwargs)


@dataclass(frozen=True)
class TraceEntry:
    """One packet generation event."""

    cycle: int
    src: NodeId
    dests: tuple[NodeId, ...]
    size_flits: int
    #: Per-flit payload words (empty = payload not recorded).
    payload: tuple[int, ...] = ()


def format_trace_line(entry: TraceEntry) -> str:
    """One text-format line for ``entry`` (no newline)."""
    dests = ";".join(f"{x},{y}" for x, y in entry.dests)
    line = (
        f"{entry.cycle} {entry.src[0]},{entry.src[1]} {dests} "
        f"{entry.size_flits}"
    )
    if entry.payload:
        line += " " + " ".join(f"{w:x}" for w in entry.payload)
    return line


def parse_trace_line(line: str) -> TraceEntry:
    """Parse one text-format line into a :class:`TraceEntry`."""
    parts = line.split()
    if len(parts) < 4:
        raise ConfigurationError(f"malformed trace line: {line!r}")
    try:
        cycle = int(parts[0])
        sx, sy = parts[1].split(",")
        src = (int(sx), int(sy))
        dests = []
        for d in parts[2].split(";"):
            dx, dy = d.split(",")
            dests.append((int(dx), int(dy)))
        size_flits = int(parts[3])
        payload = tuple(int(w, 16) for w in parts[4:])
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(
            f"malformed trace line: {line!r} ({exc})"
        ) from exc
    return TraceEntry(
        cycle=cycle,
        src=src,
        dests=tuple(dests),
        size_flits=size_flits,
        payload=payload,
    )


def _parse_header(line: str) -> dict:
    """Parse a ``topology <kind> key=value ...`` header directive."""
    parts = line.split()
    spec: dict = {"kind": parts[1]}
    for kv in parts[2:]:
        key, _, value = kv.partition("=")
        spec[key] = float(value) if "." in value else int(value)
    return spec


def _parse_flit_bits(line: str) -> int:
    """Parse a ``flit_bits <n>`` header directive."""
    try:
        _, value = line.split()
        return int(value)
    except ValueError as exc:
        raise ConfigurationError(f"malformed flit_bits directive: {line!r}") from exc


def iter_trace_text(path: str | Path) -> Iterator[dict | TraceEntry]:
    """Stream a text trace: the header dict first, then entries.

    The header is ``{"topology": <build_topology spec>, "flit_bits": n}``,
    from the ``topology`` directive and the optional ``flit_bits``
    directive (64 when absent); both precede the first entry.
    Constant-memory: one line is parsed at a time, so arbitrarily large
    dumps ingest without loading the file.  Blank lines and ``#``
    comments are skipped.
    """
    header: dict = {"topology": None, "flit_bits": 64}
    seen: set[str] = set()
    in_header = True
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name = line.split(maxsplit=1)[0]
            if name in ("topology", "flit_bits"):
                if name in seen:
                    raise ConfigurationError(f"duplicate {name} directive in {path}")
                if not in_header:
                    raise ConfigurationError(
                        f"{path}: {name} directive after the first entry"
                    )
                seen.add(name)
                parse = _parse_header if name == "topology" else _parse_flit_bits
                header[name] = parse(line)
                continue
            if in_header:
                if header["topology"] is None:
                    raise ConfigurationError(
                        f"{path}: trace entries before the topology directive"
                    )
                in_header = False
                yield header
            yield parse_trace_line(line)
    if header["topology"] is None:
        raise ConfigurationError(f"{path}: no topology directive found")
    if in_header:
        yield header


@dataclass
class TraceTraffic:
    """A recorded packet stream, replayable as a traffic source.

    API-compatible with ``SyntheticTraffic`` and works over the full
    :class:`~repro.noc.topology.Topology` family: the trace stores a
    topology *spec*.  Construction checks every entry against the
    topology and against :class:`~repro.noc.packet.Packet`'s rules, so a
    trace that loads also replays.  The recording (``entries`` and the
    per-cycle index built from them) is immutable; each :meth:`replay`
    is a fresh source over it with its own drain state.  Replay builds
    new packets lazily, cycle by cycle, so their ids interleave with
    packets the simulation makes itself (end-to-end retries) exactly as
    under live generation.  A draining trace returns no packets and
    draws nothing (``silent_drain``).
    """

    silent_drain = True

    topology: Topology
    entries: list[TraceEntry]
    #: Payload word width in bits; bounds every recorded payload word
    #: and sizes the data-dependent transition counting on the links.
    flit_bits: int = field(default=64)
    #: Recorded from a ``payload_mode="worst_case"`` source: no words
    #: are stored, and every link drives the complement of its previous
    #: word at each traversal.  Neither file format carries the mode.
    worst_case: bool = False
    #: The recorded packets' own destination sets, one per entry
    #: (default: ``frozenset(entry.dests)``).  Replayed packets reuse
    #: them, so multicast destinations iterate in the order live
    #: generation produced; a set rebuilt from the sorted ``dests``
    #: tuple may iterate differently.
    dest_sets: InitVar[Sequence[frozenset[NodeId]] | None] = None

    def __post_init__(self, dest_sets) -> None:
        if self.flit_bits < 1:
            raise ConfigurationError(
                f"flit_bits must be >= 1, got {self.flit_bits}"
            )
        if dest_sets is None:
            dest_sets = [frozenset(e.dests) for e in self.entries]
        elif len(dest_sets) != len(self.entries) or any(
            s != frozenset(e.dests) for s, e in zip(dest_sets, self.entries)
        ):
            raise ConfigurationError(
                "dest_sets must hold each entry's destination set"
            )
        limit = 1 << self.flit_bits
        self._draining = False
        self._content_hash: str | None = None
        self._has_payload = False
        self._n_multicast = 0
        #: cycle -> (src, dests, size_flits, payload, is unicast) rows.
        self._cycles: dict[int, list[tuple]] = {}
        for entry, dests in zip(self.entries, dest_sets):
            if entry.cycle < 0:
                raise ConfigurationError(f"negative cycle in trace: {entry}")
            try:
                check_packet(entry.src, dests, entry.size_flits,
                             payload=entry.payload)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"trace entry at cycle {entry.cycle}: {exc}"
                ) from exc
            for node in (entry.src, *dests):
                if not self.topology.contains(node):
                    raise ConfigurationError(
                        f"trace node {node} outside the "
                        f"{self.topology.kind} topology"
                    )
            if any(w >= limit for w in entry.payload):
                raise ConfigurationError(
                    f"payload word wider than flit_bits={self.flit_bits} "
                    f"at cycle {entry.cycle}"
                )
            self._has_payload = self._has_payload or bool(entry.payload)
            self._n_multicast += len(dests) > 1
            self._cycles.setdefault(entry.cycle, []).append(
                (entry.src, dests, entry.size_flits, entry.payload,
                 len(dests) == 1)
            )
        if self.worst_case and self._has_payload:
            raise ConfigurationError(
                "a worst_case recording carries no payload words"
            )

    def replay(self) -> "TraceTraffic":
        """A fresh source over the same recording (own drain state)."""
        fresh = copy.copy(self)
        fresh._draining = False
        return fresh

    # --- traffic-source protocol -------------------------------------------------------

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        if self._draining:
            return []
        # Entries were checked against Packet's rules when the trace was
        # built, so unicasts take the unvalidated constructor.
        return [
            unicast_packet(src, dests, size_flits, cycle, payload)
            if unicast
            else Packet(src, dests, size_flits, cycle, payload=payload)
            for src, dests, size_flits, payload, unicast
            in self._cycles.get(cycle, ())
        ]

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        if self._draining:
            raise ConfigurationError("begin_drain() while already draining")
        self._draining = True

    def end_drain(self) -> None:
        if not self._draining:
            raise ConfigurationError("end_drain() without begin_drain()")
        self._draining = False

    @property
    def multicast_fraction(self) -> float:
        """Share of entries with more than one destination.

        Nonzero forces the reference engine, exactly as it does for
        ``SyntheticTraffic`` — the fast engine's unicast-only guard
        reads this attribute.
        """
        if not self.entries:
            return 0.0
        return self._n_multicast / len(self.entries)

    @property
    def payload_mode(self) -> str:
        """``"worst_case"`` for a worst-case recording, ``"trace"`` when
        payload words were recorded, else ``"constant"``."""
        if self.worst_case:
            return "worst_case"
        return "trace" if self._has_payload else "constant"

    @property
    def payload_bits(self) -> int:
        return self.flit_bits

    @property
    def n_packets(self) -> int:
        return len(self.entries)

    # --- identity ----------------------------------------------------------------------

    def content_hash(self) -> str:
        """Stable content digest over the topology spec and every entry.

        Format-independent: a trace saved as JSON and re-saved as text
        hashes identically, so campaign identity follows the workload's
        *content*, not its file encoding or path.  Computed once per
        recording (the recording is immutable).
        """
        if self._content_hash is None:
            parts = (
                "noc-trace/v1",
                topology_spec(self.topology),
                self.flit_bits,
                tuple(self.entries),
            )
            if self.worst_case:
                parts += ("worst_case",)
            self._content_hash = content_key(*parts)
        return self._content_hash

    # --- persistence -------------------------------------------------------------------

    def _check_saveable(self) -> None:
        if self.worst_case:
            raise ConfigurationError(
                "cannot save a payload_mode='worst_case' recording: "
                "neither trace file format carries the mode"
            )

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON (portable, diffable)."""
        self._check_saveable()
        payload = {
            "format": "noc-trace/v1",
            "topology": topology_spec(self.topology),
            "flit_bits": self.flit_bits,
            "entries": [
                {
                    "cycle": e.cycle,
                    "src": list(e.src),
                    "dests": [list(d) for d in e.dests],
                    "size_flits": e.size_flits,
                    **(
                        {"payload": [f"{w:x}" for w in e.payload]}
                        if e.payload
                        else {}
                    ),
                }
                for e in self.entries
            ],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: str | Path) -> "TraceTraffic":
        payload = json.loads(Path(path).read_text())
        if "topology" in payload:
            topology = topology_from_spec(payload["topology"])
        else:
            # Legacy pre-family JSON: a bare mesh radix.
            topology = build_topology("mesh", payload["k"])
        entries = [
            TraceEntry(
                cycle=e["cycle"],
                src=tuple(e["src"]),
                dests=tuple(tuple(d) for d in e["dests"]),
                size_flits=e["size_flits"],
                payload=tuple(int(w, 16) for w in e.get("payload", ())),
            )
            for e in payload["entries"]
        ]
        return cls(
            topology=topology,
            entries=entries,
            flit_bits=payload.get("flit_bits", 64),
        )

    def save_text(self, path: str | Path) -> None:
        """Write the gem5/Netrace-style line format."""
        self._check_saveable()
        spec = topology_spec(self.topology)
        kind = spec.pop("kind")
        k = spec.pop("k")
        header = f"topology {kind} k={k}"
        for key, value in spec.items():
            header += f" {key}={value}"
        with open(path, "w") as fh:
            fh.write("# noc-trace/v1 text format\n")
            fh.write(header + "\n")
            fh.write(f"flit_bits {self.flit_bits}\n")
            for entry in self.entries:
                fh.write(format_trace_line(entry) + "\n")

    @classmethod
    def load_text(cls, path: str | Path) -> "TraceTraffic":
        """Ingest a text trace via the streaming line parser."""
        stream = iter_trace_text(path)
        header = next(stream)
        return cls(
            topology=topology_from_spec(header["topology"]),
            entries=list(stream),
            flit_bits=header["flit_bits"],
        )

    @classmethod
    def load_any(cls, path: str | Path) -> "TraceTraffic":
        """Load a trace file in either format (sniffed, not by suffix)."""
        with open(path) as fh:
            head = fh.read(1)
        if head == "{":
            return cls.load(path)
        return cls.load_text(path)


#: resolved path -> ((size, mtime_ns), parsed trace): the one trace-file
#: cache.  An edited file misses and is parsed again.
_trace_files: dict[str, tuple[tuple[int, int], TraceTraffic]] = {}


def cached_trace(path: str | Path) -> TraceTraffic:
    """The trace in file ``path`` (either format), parsed once.

    Cached on (resolved path, size, mtime_ns), so every campaign point,
    config hash and workload build of one trace file version shares one
    parse and one validation.  The recording is shared: drive a
    :meth:`~TraceTraffic.replay` of it, never the recording itself.
    """
    p = Path(path)
    try:
        stat = p.stat()
    except OSError as exc:
        raise WorkloadConfigError(
            f"trace file unreadable: {p} ({exc})"
        ) from exc
    key = str(p.resolve())
    stamp = (stat.st_size, stat.st_mtime_ns)
    cached = _trace_files.get(key)
    if cached is None or cached[0] != stamp:
        cached = _trace_files[key] = (stamp, TraceTraffic.load_any(p))
    return cached[1]


def trace_file_hash(path: str | Path) -> str:
    """The logical content hash of a trace file (either format).

    Hashes the parsed *trace*, not the bytes, so the JSON and text
    encodings of the same workload — and copies at different paths —
    share one identity.  Reads the :func:`cached_trace` parse.
    """
    return cached_trace(path).content_hash()


def record_trace(generator, n_cycles: int) -> TraceTraffic:
    """Capture ``n_cycles`` of any traffic generator into a trace.

    Works with ``SyntheticTraffic`` and the :mod:`repro.workload`
    generators alike — anything with ``topology`` and
    ``packets_for_cycle``.  Payload words attached by the generator are
    captured per entry, a worst-case payload source records as
    ``worst_case``, and each packet's own destination set is kept for
    replay.  Replay equals live generation whenever the run stops
    generating at ``n_cycles``: an open-loop source's stream does not
    depend on the network, and a drained source runs at rate 0, so its
    later draws never make a packet.
    """
    if n_cycles < 1:
        raise ConfigurationError(f"n_cycles must be >= 1, got {n_cycles}")
    entries: list[TraceEntry] = []
    dest_sets: list[frozenset[NodeId]] = []
    for cycle in range(n_cycles):
        for packet in generator.packets_for_cycle(cycle):
            entries.append(
                TraceEntry(
                    cycle=cycle,
                    src=packet.src,
                    dests=tuple(sorted(packet.dests)),
                    size_flits=packet.size_flits,
                    payload=packet.payload,
                )
            )
            dest_sets.append(packet.dests)
    return TraceTraffic(
        topology=generator.topology,
        entries=entries,
        flit_bits=getattr(generator, "payload_bits", 64),
        worst_case=getattr(generator, "payload_mode", None) == "worst_case",
        dest_sets=dest_sets,
    )


__all__ = [
    "TraceEntry",
    "TraceTraffic",
    "cached_trace",
    "format_trace_line",
    "iter_trace_text",
    "parse_trace_line",
    "record_trace",
    "topology_from_spec",
    "topology_spec",
    "trace_file_hash",
]
