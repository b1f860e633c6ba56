"""How fast the host runs Python right now, from a fixed reference loop.

On a shared host the same pure-Python code runs at different speeds that
switch every few seconds. On the 2-core machine of the reference figures one
fixed loop took 1.25 ms or 1.75 ms a call, in stretches of 5-25 s, so a
fixed loop timed over 8 s windows spread by 10% (interquartile range over the
median), and two sets of ten identical benchmark runs differed by up to 26%
in their medians. A benchmark run is as long as those stretches, so no
statistic within one run can remove this.

So the benchmark times the program on the wall clock and, between program
calls, times this probe: at most every ``PROBE_EVERY_S`` seconds, and right
after any longer call. Each probe reading is weighted by the program time
around it, and the run's program time is rescaled to the host speed at which
the probe takes ``REFERENCE_S``:

    reference seconds = wall seconds * REFERENCE_S / weighted mean probe time

The probe does what the package's hot paths do (reads a dict keyed by
tuples, unpacks tuples, does integer arithmetic) and nothing in it depends on
the package, so a faster program still reads faster while a slower host no
longer reads as a slower program. Rescaled per call it made runs noisier:
single readings jitter, and garbage collection does not slow down in step.
Rescaled per run it halved the spread of ten identical runs (small-graphs:
8.1% to 3.7%).
"""

from __future__ import annotations

from time import perf_counter

# About the probe's median time on the reference machine, so that reference
# seconds read close to wall seconds there.
REFERENCE_S = 100e-6
PROBE_EVERY_S = 0.05

_KEYS = [(i, i & 7) for i in range(400)]
_TABLE = {k: (k[0], -k[0]) for k in _KEYS}


def _loop() -> int:
    # reads only: allocating containers here would run the garbage collector
    # over the program's heap and time that instead of the interpreter
    total = 0
    for _ in range(2):
        for k in _KEYS:
            v = _TABLE[k]
            total += v[0] ^ k[1]
    return total


def probe() -> float:
    """Median of five runs of the reference loop, in seconds."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        _loop()
        times.append(perf_counter() - t0)
    times.sort()
    return times[2]


class SpeedLog:
    """Probe readings over a stretch of program time, weighted by that time."""

    def __init__(self) -> None:
        self.program_s = 0.0     # wall seconds of program time seen so far
        self._weighted = 0.0     # sum of program seconds * probe seconds
        self._pending = 0.0      # program seconds since the last probe
        self._last: float | None = None
        self._last_at = 0.0

    def tick(self, program_s: float = 0.0, force: bool = False) -> None:
        """Add program time; probe when one is due (or ``force``)."""
        self._pending += program_s
        if not force and self._last is not None and perf_counter() - self._last_at < PROBE_EVERY_S:
            return
        p = probe()
        if self._last is not None:
            self._weighted += self._pending * (self._last + p) / 2
            self.program_s += self._pending
            self._pending = 0.0
        self._last, self._last_at = p, perf_counter()

    def scale(self) -> float:
        """Factor turning this log's wall seconds into reference seconds."""
        return REFERENCE_S * self.program_s / self._weighted if self._weighted else 1.0
