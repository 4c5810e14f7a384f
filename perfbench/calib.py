"""Drift correction: a fixed calibration kernel sampled inside every pass.

On a shared host the speed of one vCPU drifts by tens of percent, and
flips between fast and slow states within a tenth of a second; process
CPU time drifts with wall time, so no statistic of raw pass times
removes it.  Timing the kernel just before and after a pass is not
enough either: the state changes during the pass.  So the harness times
the kernel *during* the pass.  A CPU-time interval timer
(``ITIMER_VIRTUAL``) interrupts the pass every ``INTERVAL_S`` of CPU
time and the signal handler times one run of the kernel.  The pass time
is then converted into *reference-host seconds*::

    t_ref = (t_pass - t_sampling) * (T_KERNEL_REF / mean(kernel times)) ** a

where ``t_sampling`` is the time the handler itself took,
``T_KERNEL_REF`` is the kernel's time on the reference host and ``a`` is
the workload's *sensitivity*.  A pass that ran while the host was slow
saw a slow kernel at the same moments, so the ratio cancels the host's
speed and leaves the program's.  The mean (not the median) of the
samples weights each moment of the pass equally, as the pass time does.

Workloads do not slow down exactly as much as the kernel: the host has
several speed states, and between the fastest and the slowest seen the
kernel's time grows ~2.7x, the Monte Carlo's ~2.4x and the fast NoC
engine's ~2.2x.  ``a`` is the slope of log run rate against log kernel
time *across runs* made in different host states (:func:`fit_runs`, or
``python3 perfbench/calib.py perfbench/out/host-*.json``).  The slope
*within* a run, over passes of one pool entry (:func:`fit_sensitivity`,
reported by every run as ``sensitivity_fit``), is biased low, because
the kernel mean of one pass is a noisy estimate of the host's speed
during it; for the fast NoC engine it reads 0.56 where the runs give
0.81.  Set-up (imports, input construction) has its own slope,
``SETUP_SENSITIVITY``.

The kernel mixes a pure-Python loop (dict stores, float arithmetic) with
small-array numpy calls, the same mix as the Monte Carlo and NoC hot
loops.  It lives in the benchmark so that no change to the program can
move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: Kernel iterations per sample (~0.5 ms on the reference host).
KERNEL_N = 2000

#: Kernel time (s) on the reference host: a 2-vCPU Intel Xeon VM with
#: Python 3.11 and numpy 2.4, in its fast state.  Fixed once; every
#: reported time is expressed in seconds of this host.
T_KERNEL_REF = 0.00046

#: CPU time between two samples; sampling costs ~4% of a pass.
INTERVAL_S = 0.02

#: Sensitivity of the set-up time (fitted across runs like the
#: workloads' own: 0.90-0.95 on every workload).
SETUP_SENSITIVITY = 0.93


def kernel(n: int = KERNEL_N) -> float:
    """The fixed calibration workload."""
    x = np.linspace(0.0, 1.0, 32)
    acc = 0.0
    slots: dict[int, float] = {}
    for i in range(n):
        acc += (i % 7) * 0.5
        slots[i & 63] = acc
        if i % 16 == 0:
            x = np.sqrt(x * x + 1e-3)
            acc += float(x[3])
    return acc + sum(slots.values())


def corrected(
    host_s: float, sampling_s: float, samples: list[float], sensitivity: float = 1.0
) -> float:
    """Reference-host seconds of an interval that took ``host_s`` wall
    seconds, ``sampling_s`` of them in the sampler, while the kernel
    took ``samples`` seconds per run."""
    if not samples or min(samples) <= 0.0:
        raise ValueError("calibration needs positive kernel times")
    speed = T_KERNEL_REF / statistics.fmean(samples)
    return (host_s - sampling_s) * speed**sensitivity


def fit_sensitivity(
    host_s: list[float], kernel_mean_s: list[float], groups: list[object]
) -> float | None:
    """Slope of log ``host_s`` on log ``kernel_mean_s`` within groups of
    equal work (passes over one pool entry); None without variation."""
    by_group: dict[object, list[tuple[float, float]]] = {}
    for t, k, g in zip(host_s, kernel_mean_s, groups):
        by_group.setdefault(g, []).append((math.log(k), math.log(t)))
    sxx = sxy = 0.0
    for points in by_group.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx if sxx > 0.0 else None


def fit_runs(records: list[dict]) -> dict[str, tuple[float | None, float | None]]:
    """Per workload, the across-run slopes (passes, set-up) of untraced
    host records (see :mod:`perfbench.run`): log raw time against the
    log of the median over passes of their mean kernel time."""
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        if record.get("trace") == 0 and any(record.get("pass_kernel_mean_s", ())):
            by_workload.setdefault(record["workload"], []).append(record)
    fits = {}
    for workload, runs in sorted(by_workload.items()):
        kernel = [
            statistics.median(k for k in r["pass_kernel_mean_s"] if k) for r in runs
        ]
        one = [0] * len(runs)
        fits[workload] = (
            fit_sensitivity([1.0 / r["raw_items_per_s"] for r in runs], kernel, one),
            fit_sensitivity(
                [statistics.median(r["setup_host_s"]) for r in runs], kernel, one
            ),
        )
    return fits


class Sampler:
    """Times the kernel on a CPU-time timer while a block runs::

        with Sampler() as sampler:
            work()
        t_ref = sampler.reference_s

    Main thread only (signal handlers run there).  One sample is always
    taken on exit, so a block shorter than the interval still has one.
    ``on_sample(start, end)`` is told the wall-clock interval of every
    sample taken inside the block (the traced run records it as a span).
    """

    def __init__(self, sensitivity: float = 1.0, on_sample=None) -> None:
        self.sensitivity = sensitivity
        self.on_sample = on_sample
        self.samples: list[float] = []
        #: Wall seconds spent in the sampler (subtracted from the block).
        self.sampling_s = 0.0
        #: Wall seconds of the whole block, sampling included.
        self.host_s = 0.0
        self._start = 0.0
        self._busy = False
        self._previous = None

    def _time_kernel(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def _sample(self, *_args) -> None:
        if self._busy:  # a signal that landed inside the handler
            return
        self._busy = True
        start = time.perf_counter()
        self._time_kernel()
        end = time.perf_counter()
        self.sampling_s += end - start
        if self.on_sample is not None:
            self.on_sample(start, end)
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.samples, self.sampling_s, self._busy = [], 0.0, False
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        self.host_s = time.perf_counter() - self._start
        signal.signal(signal.SIGVTALRM, self._previous)
        self._time_kernel()

    @property
    def program_s(self) -> float:
        """Host seconds of the block without the sampler's own time."""
        return self.host_s - self.sampling_s

    @property
    def reference_s(self) -> float:
        """The block's time in reference-host seconds."""
        return corrected(self.host_s, self.sampling_s, self.samples, self.sensitivity)


if __name__ == "__main__":
    import json
    import sys

    runs = [json.loads(open(path).read()) for path in sys.argv[1:]]
    for name, (passes, setup) in fit_runs(runs).items():
        print(f"{name}: passes {passes}, set-up {setup}")
