"""Host speed probe: times scaled to a reference host speed.

The benchmark's shared hosts run the same code at speeds up to about
2x apart, switching every few seconds to minutes (another tenant on the
same physical core: no steal time, CPU time equals wall time).  Host
seconds of a pass therefore spread more from run to run than any bound
a regression check could use.

A :class:`Meter` takes out most of that.  It times a fixed probe — the
fastest of three runs of an interpreter loop plus a small numpy Newton
solve, 8-12 ms each, none of it program code — at the start and end of
a measured stretch and at every
segment boundary the workload marks.  The time between two probes is
scaled by ``REFERENCE_S`` over the mean of the two probe times, so
``scaled_s`` reads the seconds the stretch would take at the reference
speed.  The probe runs only between stretches, never alongside the
program, so it shares neither the interpreter lock nor a CPU with it;
probe time is left out of both ``host_s`` and ``scaled_s``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict

import numpy as np

#: Probe time, in seconds, of the 2-vCPU Xeon host (2.1 GHz) the
#: benchmark was written on, in its fast state.  It only sets the unit
#: of scaled seconds: comparisons on one host do not depend on it.
REFERENCE_S = 0.008

#: A stretch shorter than this is scaled at the last probe's speed
#: instead of being closed by a probe of its own.
MIN_STRETCH_S = 0.005

_N = 40
_CONDUCTANCE = (np.eye(_N) * 2e-3 - np.eye(_N, k=1) * 1e-3
                - np.eye(_N, k=-1) * 1e-3)
_DRIVE = np.full(_N, 1e-3)


def _kernel() -> float:
    """Seconds for one fixed unit of work: integer arithmetic in the
    interpreter, then Newton iterations on a diode ladder."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    x = np.zeros(_N)
    for _ in range(30):
        e = np.exp(np.clip(x, -1.0, 0.8) / 0.025)
        jacobian = _CONDUCTANCE + np.diag(4e-13 * e)
        residual = _CONDUCTANCE @ x + 1e-14 * (e - 1.0) - _DRIVE
        x = x + np.clip(np.linalg.solve(jacobian, -residual), -0.1, 0.1)
        for a in range(_N):
            total += x[a] > x[(a + 1) % _N]
    return time.perf_counter() - start


def probe() -> float:
    """Fastest of three kernel runs: the host's current speed, in
    seconds per kernel."""
    return min(_kernel() for _ in range(3))


class Meter:
    """Host and reference-scaled seconds of one measured stretch.

    Create it just before the stretch, give :meth:`span` to the workload
    as its segment marker, and call :meth:`finish` right after.
    ``segments`` holds the scaled seconds of each named segment.
    """

    def __init__(self):
        self.host_s = 0.0
        self.scaled_s = 0.0
        self.segments: Dict[str, float] = {}
        self._speed = probe()
        self._mark = time.perf_counter()

    def _close_stretch(self) -> None:
        """Account the time since the last mark, probing the host if the
        stretch is long enough to need a speed of its own."""
        elapsed = time.perf_counter() - self._mark
        if elapsed >= MIN_STRETCH_S:
            speed = probe()
            factor = 2.0 * REFERENCE_S / (self._speed + speed)
            self._speed = speed
        else:
            factor = REFERENCE_S / self._speed
        self.host_s += elapsed
        self.scaled_s += elapsed * factor
        self._mark = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        self._close_stretch()
        start = self.scaled_s
        try:
            yield
        finally:
            self._close_stretch()
            self.segments[name] = (self.segments.get(name, 0.0)
                                   + self.scaled_s - start)

    def finish(self) -> None:
        self._close_stretch()

    @property
    def slowdown(self) -> float:
        """Host seconds per reference second over the stretch."""
        return self.host_s / self.scaled_s
