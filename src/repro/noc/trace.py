"""Trace-driven traffic: record, ingest, save, and replay packet streams.

Synthetic patterns answer "what if"; traces answer "what happened".  This
module lets a workload be captured once (from a synthetic run, a bursty
generator, an external simulator dump, or built by hand) and replayed
deterministically against different router/datapath configurations — the
methodology used for the SRLR-vs-full-swing and taps-vs-no-taps
comparisons, where both sides must see *identical* traffic.

Two interchangeable on-disk forms:

* **JSON** (``save``/``load``): portable, diffable, carries the topology
  spec inline.
* **Text lines** (``save_text``/``load_text``): the gem5/Netrace-style
  ingestion format — one packet per line,

  .. code-block:: text

     # comment
     topology torus k=4
     <cycle> <src_x>,<src_y> <dx,dy[;dx,dy...]> <size_flits> [hexword ...]

  with one optional hex payload word per flit (LSB = wire 0).  Text
  traces are parsed **streaming**: :func:`iter_trace_text` yields entries
  line by line in constant memory, so multi-million-packet dumps ingest
  without materializing the file.

Traces are content-addressed: :meth:`TraceTraffic.content_hash` is a
stable digest of the topology spec and every entry (payload included),
and :func:`trace_file_hash` maps a trace *file* to that same logical
digest (cached on (size, mtime)), so a trace slots into the campaign
service and ResultCache exactly like any other config — two copies of
the same trace hash identically regardless of path or format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigurationError
from repro.noc.packet import Packet
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

    def to_packet(self) -> Packet:
        return Packet(
            src=self.src,
            dests=frozenset(self.dests),
            size_flits=self.size_flits,
            inject_cycle=self.cycle,
            payload=self.payload,
        )


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


def iter_trace_text(path: str | Path) -> Iterator[dict | TraceEntry]:
    """Stream a text trace: the topology spec dict first, then entries.

    Constant-memory: one line is parsed at a time, so arbitrarily large
    dumps ingest without loading the file.  Blank lines and ``#``
    comments are skipped; the ``topology`` directive must precede the
    first entry.
    """
    spec: dict | None = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("topology "):
                if spec is not None:
                    raise ConfigurationError(
                        f"duplicate topology directive in {path}"
                    )
                spec = _parse_header(line)
                yield spec
                continue
            if spec is None:
                raise ConfigurationError(
                    f"{path}: trace entries before the topology directive"
                )
            yield parse_trace_line(line)
    if spec is None:
        raise ConfigurationError(f"{path}: no topology directive found")


@dataclass
class TraceTraffic:
    """A replayable packet trace, API-compatible with SyntheticTraffic.

    Works over the full :class:`~repro.noc.topology.Topology` family —
    the trace stores a topology *spec*, and replay validates every node
    against whatever family member it was recorded on.  Replay drains
    through the explicit protocol (:meth:`begin_drain`/:meth:`end_drain`)
    shared with ``SyntheticTraffic`` instead of the old
    ``injection_rate = 1.0`` compatibility hack.  A draining trace
    returns no packets and draws nothing (``silent_drain``).
    """

    silent_drain = True

    topology: Topology
    entries: list[TraceEntry]
    #: Payload word width in bits; bounds every recorded payload word
    #: and sizes the data-dependent transition counting on the links.
    flit_bits: int = field(default=64)

    def __post_init__(self) -> None:
        if self.flit_bits < 1:
            raise ConfigurationError(
                f"flit_bits must be >= 1, got {self.flit_bits}"
            )
        limit = 1 << self.flit_bits
        self._draining = False
        self._has_payload = False
        self._n_multicast = 0
        self._by_cycle: dict[int, list[TraceEntry]] = {}
        for entry in self.entries:
            if entry.cycle < 0:
                raise ConfigurationError(f"negative cycle in trace: {entry}")
            for node in (entry.src, *entry.dests):
                if not self.topology.contains(node):
                    raise ConfigurationError(
                        f"trace node {node} outside the "
                        f"{self.topology.kind} topology"
                    )
            if entry.payload:
                if len(entry.payload) != entry.size_flits:
                    raise ConfigurationError(
                        f"entry at cycle {entry.cycle} carries "
                        f"{len(entry.payload)} payload words for "
                        f"{entry.size_flits} flits"
                    )
                if any(not 0 <= w < limit for w in entry.payload):
                    raise ConfigurationError(
                        f"payload word wider than flit_bits={self.flit_bits} "
                        f"at cycle {entry.cycle}"
                    )
                self._has_payload = True
            if len(entry.dests) > 1:
                self._n_multicast += 1
            self._by_cycle.setdefault(entry.cycle, []).append(entry)

    # --- traffic-source protocol -------------------------------------------------------

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        if self._draining:
            return []
        return [e.to_packet() for e in self._by_cycle.get(cycle, [])]

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
        """``"trace"`` when payload bits were recorded, else constant."""
        return "trace" if self._has_payload else "constant"

    @property
    def payload_bits(self) -> int:
        return self.flit_bits

    @property
    def n_packets(self) -> int:
        return len(self.entries)

    @property
    def last_cycle(self) -> int:
        return max((e.cycle for e in self.entries), default=0)

    # --- identity ----------------------------------------------------------------------

    def content_hash(self) -> str:
        """Stable content digest over the topology spec and every entry.

        Format-independent: a trace saved as JSON and re-saved as text
        hashes identically, so campaign identity follows the workload's
        *content*, not its file encoding or path.
        """
        return content_key(
            "noc-trace/v1",
            topology_spec(self.topology),
            self.flit_bits,
            tuple(self.entries),
        )

    # --- persistence -------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON (portable, diffable)."""
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
        spec = topology_spec(self.topology)
        kind = spec.pop("kind")
        k = spec.pop("k")
        header = f"topology {kind} k={k}"
        for key, value in spec.items():
            header += f" {key}={value}"
        with open(path, "w") as fh:
            fh.write(f"# noc-trace/v1 text format, flit_bits={self.flit_bits}\n")
            fh.write(header + "\n")
            for entry in self.entries:
                fh.write(format_trace_line(entry) + "\n")

    @classmethod
    def load_text(
        cls, path: str | Path, flit_bits: int = 64
    ) -> "TraceTraffic":
        """Ingest a text trace via the streaming line parser."""
        stream = iter_trace_text(path)
        spec = next(stream)
        topology = topology_from_spec(spec)
        return cls(
            topology=topology,
            entries=list(stream),
            flit_bits=flit_bits,
        )

    @classmethod
    def load_any(cls, path: str | Path, flit_bits: int = 64) -> "TraceTraffic":
        """Load a trace file in either format (sniffed, not by suffix)."""
        with open(path) as fh:
            head = fh.read(1)
        if head == "{":
            return cls.load(path)
        return cls.load_text(path, flit_bits=flit_bits)


#: (resolved path, size, mtime_ns) -> logical content hash.
_file_hash_cache: dict[tuple[str, int, int], str] = {}


def trace_file_hash(path: str | Path) -> str:
    """The logical content hash of a trace file (either format).

    Parses the file and hashes the *trace*, not the bytes, so the JSON
    and text encodings of the same workload — and copies at different
    paths — share one identity.  Cached on (path, size, mtime) so
    campaign-config hashing stays cheap.
    """
    p = Path(path)
    try:
        stat = p.stat()
    except OSError as exc:
        raise ConfigurationError(f"trace file unreadable: {p} ({exc})") from exc
    key = (str(p.resolve()), stat.st_size, stat.st_mtime_ns)
    cached = _file_hash_cache.get(key)
    if cached is None:
        cached = TraceTraffic.load_any(p).content_hash()
        _file_hash_cache[key] = cached
    return cached


def record_trace(generator, n_cycles: int) -> TraceTraffic:
    """Capture ``n_cycles`` of any traffic generator into a trace.

    Works with ``SyntheticTraffic`` and the :mod:`repro.workload`
    generators alike — anything with ``topology`` and
    ``packets_for_cycle``.  Payload words attached by the generator are
    captured per entry.
    """
    if n_cycles < 1:
        raise ConfigurationError(f"n_cycles must be >= 1, got {n_cycles}")
    entries: list[TraceEntry] = []
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
    return TraceTraffic(
        topology=generator.topology,
        entries=entries,
        flit_bits=getattr(generator, "payload_bits", 64),
    )


__all__ = [
    "TraceEntry",
    "TraceTraffic",
    "format_trace_line",
    "iter_trace_text",
    "parse_trace_line",
    "record_trace",
    "topology_from_spec",
    "topology_spec",
    "trace_file_hash",
]
