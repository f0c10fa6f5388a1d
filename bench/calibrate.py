"""Machine-speed calibration for timings taken on shared hardware.

On a shared 2-vCPU sandbox other tenants slow every process by up to about
1.7x for stretches of a fraction of a second to minutes, with no steal time
showing.  A fixed probe measures how fast the machine is at a given moment,
and timings are scaled to the speed at which the probe takes
:data:`REFERENCE_S`.  The slowdown hits pure-Python code and numpy calls
differently: over 20 s windows, scaling by a pure-Python integer loop cut
the spread of ``release-desk``'s median round time from 0.11-0.19 to 0.05,
but widened the twenty-strata sweep's from 0.08 to 0.11, while scaling by
numpy generator constructions cut the sweep's to 0.06.  The probe therefore
does both, in about equal shares.  The probes' own time is never counted in
a measured interval.

Set-up is scaled by a reference process instead: ``python3 calibrate.py``
imports numpy and runs the probe :data:`REFERENCE_PROBES` times.  A set-up
process's CPU time divided by that of the reference processes run just
before and after it was 3-4 times steadier than the set-up time alone or
scaled by the in-process probe, which is too short to follow a one-second
process.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

# Probe time on an undisturbed 2-vCPU sandbox; scaled timings read as if
# measured at that speed.
REFERENCE_S = 0.0085
# Longest stretch of measured work between two probes.
INTERVAL_S = 0.2
# Probes run by one reference process, and the process's CPU time (user +
# system) on an undisturbed 2-vCPU sandbox.
REFERENCE_PROBES = 12
REFERENCE_PROCESS_S = 0.23

_KEY = np.zeros(2, dtype=np.uint64)


def probe() -> float:
    """Seconds a fixed integer loop plus fixed numpy generator work take now."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    for i in range(300):
        _KEY[1] = i
        np.random.Generator(np.random.Philox(key=_KEY)).standard_normal()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for work done between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)


class ScaledClock:
    """Measures spans of work in seconds at the reference machine speed.

    A span, from :meth:`start` to :meth:`stop`, is cut into segments of at
    most :data:`INTERVAL_S`, each scaled by
    ``REFERENCE_S / mean(probe before, probe after)``; the span's raw and
    scaled seconds land in ``raw`` and ``scaled``.  Call :meth:`record` for
    each timed call during a span; it probes once the segment is long
    enough.  Latencies are scaled by their segment's factor once the segment
    closes and kept per kind until :meth:`take_p50`.
    """

    def __init__(self) -> None:
        self._pending: list[tuple[int, int]] = []
        self._latencies: dict[int, list[float]] = {}
        self._last = probe()
        self._start = time.perf_counter()
        self.raw = 0.0
        self.scaled = 0.0

    def _close(self, now: float) -> None:
        after = probe()
        scale = factor(self._last, after)
        self.scaled += (now - self._start) * scale
        self.raw += now - self._start
        for ns, kind in self._pending:
            self._latencies.setdefault(kind, []).append(ns * scale / 1000.0)
        self._pending.clear()
        self._last = after
        self._start = time.perf_counter()

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._pending.clear()
        self._start = time.perf_counter()

    def record(self, latency_ns: int, kind: int) -> None:
        """One timed call of a given kind (a small integer naming what was called)."""
        self._pending.append((latency_ns, kind))
        now = time.perf_counter()
        if now - self._start >= INTERVAL_S:
            self._close(now)

    def stop(self) -> None:
        self._close(time.perf_counter())

    def take_p50(self) -> float:
        """Mean over kinds of each kind's median latency (us) since the last call."""
        value = statistics.fmean(statistics.median(v) for v in self._latencies.values())
        self._latencies.clear()
        return value


if __name__ == "__main__":
    for _ in range(REFERENCE_PROBES):
        probe()
    sys.exit(0)
