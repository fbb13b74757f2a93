"""Host speed, sampled while sessions run.

On the shared VMs this benchmark runs on, the host slows the whole guest:
it switches between a fast and a slow mode about 1.6-1.8x apart, a mode
lasting from seconds to many minutes (NOTES.md). CPU time tracks wall
time, so a process sees a slow mode only by timing something, and no
estimator over a run's wall times removes a mode that outlasts the run.

:class:`Sampler` times the host while sessions run. Its thread wakes
every :data:`PERIOD_S` and times a fixed probe: integer arithmetic that
allocates nothing and imports nothing from the program, so no change to
the program can move it. A session's *slowdown* is the mean probe time
inside the session's window over :data:`PROBE_S`, and the harness divides
the session's times by it. Reported times are thus seconds at the host
speed at which the probe takes :data:`PROBE_S`.

The probe holds the interpreter lock for about a millisecond per period,
under 1% of a session, the same on every commit.
"""

from __future__ import annotations

import statistics
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter

#: Seconds the probe takes on the 2-core VM the NOTES.md figures come
#: from, in that host's fast mode.
PROBE_S = 0.00145

#: Seconds between probes.
PERIOD_S = 0.2

_ROUNDS = 20_000


def _probe() -> float:
    start = perf_counter()
    x = 0
    for i in range(_ROUNDS):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - start


class Sampler:
    """Probes the host from a thread while the ``with`` block runs."""

    def __init__(self) -> None:
        self._ends: list[float] = []
        self._times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            took = _probe()
            self._times.append(took)
            self._ends.append(perf_counter())

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time within ``[start, end]`` over :data:`PROBE_S`.

        Read after the ``with`` block. A window too short to hold a probe
        (the smoke run's sessions) reads 1.0.
        """
        window = self._times[bisect_left(self._ends, start) : bisect_right(self._ends, end)]
        return statistics.fmean(window) / PROBE_S if window else 1.0
