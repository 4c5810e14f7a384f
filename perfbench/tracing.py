"""Spans around calls into each layer, recorded from the benchmark.

The traced run wraps public functions of the program's modules (the
``PROBES`` table) for the duration of a traced pass and restores them
afterwards; the program itself carries no tracing code.  Spans (name,
start, end, parent, pass id) stay in memory and are written out when the
run ends.  A span's *self time* is its duration minus the durations of
its child spans, so a layer that calls another (``srlr_link_energy``
builds an ``SRLRLink``) is charged only for its own work.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in ``Tracer.spans``; -1 for a root.
    parent: int
    pass_id: object


class Tracer:
    """In-memory span recorder for the thread that created it.

    Calls made from other threads (the service worker's heartbeat) pass
    through unrecorded, so the span stack is never interleaved.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (pass id, counter name) -> value, for counts spans cannot give.
        self.counts: dict[tuple[object, str], float] = defaultdict(float)
        self.pass_id: object = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def begin(self, name: str) -> int | None:
        if threading.get_ident() != self._thread:
            return None
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.pass_id)
        self.spans.append(span)
        # A signal handler (the calibration sampler) may have appended a
        # span after ours: find ours from the end.
        index = len(self.spans) - 1
        while self.spans[index] is not span:
            index -= 1
        self._stack.append(index)
        return index

    def end(self, index: int | None) -> None:
        if index is None:
            return
        self._stack.pop()
        self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished leaf span under the innermost open span."""
        if threading.get_ident() == self._thread:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, start, end, parent, self.pass_id))

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.pass_id, name)] += value

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, start, end, parent, pass_id]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.pass_id] for s in self.spans]
        path.write_text(json.dumps({"spans": rows}, separators=(",", ":")))


def self_times(spans: list[Span], pass_id: object) -> dict[str, float]:
    """Self time (s) per span name over the spans of one pass."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span.pass_id == pass_id:
            totals[span.name] += span.end - span.start - children[index]
    return dict(totals)


def span_counts(spans: list[Span], pass_id: object) -> dict[str, int]:
    """Number of spans per name in one pass."""
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        if span.pass_id == pass_id:
            totals[span.name] += 1
    return dict(totals)


def inclusive_times(spans: list[Span], pass_id: object, name: str) -> float:
    """Total duration of the outermost spans called ``name`` in a pass."""
    total = 0.0
    for span in spans:
        if span.pass_id == pass_id and span.name == name:
            if span.parent < 0 or spans[span.parent].name != name:
                total += span.end - span.start
    return total


def _noc_run_done(tracer: Tracer, sim, *args, **kwargs) -> None:
    # Which simulator class actually ran, whatever engine was requested.
    tracer.count("noc.cycles", sim.cycle)
    fast = type(sim).__name__ == "FastNocSimulator"
    tracer.count("noc.fast_runs" if fast else "noc.reference_runs")


#: (module, attribute path, span name, hook called after the call).
PROBES = [
    ("repro.wire.attenuation", "AttenuationTable.__init__", "wire.table_build", None),
    ("repro.circuit.link", "SRLRLink.__init__", "circuit.link_build", None),
    ("repro.circuit.link", "SRLRLink.transmit", "circuit.transmit", None),
    ("repro.mc.engine", "monte_carlo_sample", "tech.sample", None),
    ("repro.mc.engine", "run_monte_carlo", "mc.run", None),
    ("repro.runtime.executor", "ParallelExecutor.map", "runtime.map", None),
    ("repro.noc.simulator", "NocSimulator.__init__", "noc.build", None),
    ("repro.noc.fastsim", "FastNocSimulator.__init__", "noc.build", None),
    ("repro.noc.simulator", "NocSimulator.run", "noc.run", _noc_run_done),
    ("repro.fault.campaign", "run_fault_campaign", "fault.campaign", None),
    ("repro.fault.campaign", "build_traffic", "workload.build_traffic", None),
    ("repro.fault.campaign", "price_fault_run", "fault.price", None),
    ("repro.fault.injector", "FaultLayer.attach", "fault.attach", None),
    ("repro.service.db", "CampaignDB.__init__", "service.open", None),
    ("repro.service.db", "CampaignDB.submit", "service.submit", None),
    ("repro.service.db", "CampaignDB.lease", "service.lease", None),
    ("repro.service.db", "CampaignDB.complete", "service.complete", None),
    ("repro.service.db", "CampaignDB.record_worker", "service.record_worker", None),
    ("repro.service.adapters", "SweepGridAdapter.merge", "service.merge", None),
    ("repro.service.adapters", "robust_design", "circuit.design", None),
    ("repro.service.adapters", "srlr_link_energy", "energy.link_energy", None),
    ("repro.service.worker", "run_worker", "service.worker", None),
    ("repro.service.worker", "execute_task", "service.execute", None),
]


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
            if hook is not None and index is not None:
                hook(tracer, *args, **kwargs)

    return traced


class Instrumentation:
    """Installs and removes the ``PROBES`` wrappers for one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for module, path, name, hook in PROBES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                # A later refactor moved the function: trace the rest.
                self.missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, original, name, hook))
        if self.missing:
            print(f"trace: probes not found: {self.missing}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
