"""A fixed kernel that measures how fast the CPU is running right now.

The hosts this benchmark runs on are shared: the speed of one core drifts
by up to half over seconds to minutes, with the process's CPU time
drifting as much as its wall time, so a wall-clock figure measures the
neighbours as much as the program.  The benchmark therefore times this
kernel at both ends of every timed stretch and scales the stretch by
``REFERENCE_S`` over the kernel's mean time at its ends: a scaled time is
the time the stretch would have taken with the kernel at ``REFERENCE_S``.
A long call is cut into stretches by a timer signal (``Clock``).

The kernel is interpreted complex arithmetic, the kind of work the
program's amplitude model does.  Of the kernels tried (this one, small
numpy arrays, slotted objects, string formatting, numpy scalar draws),
its speed tracked the program's best on a shared host.  It never calls
into ``cqca``, so a change to the program does not move it.  Raw times
are recorded next to the scaled ones.
"""

from __future__ import annotations

import signal
import time

#: The kernel's time on a full-speed core of the 2-vCPU host the figures
#: were first taken on (Python 3.11).
REFERENCE_S = 0.0065


def kernel() -> complex:
    state = 0.6 + 0.8j
    acc = 0j
    u = 0.5
    for _ in range(20000):
        u = (u * 3.9) % 1.0
        z = complex(u, 1.0 - u) * state
        acc += z * z.conjugate()
    return acc


def timed() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a raw time bracketed by two kernel timings into a
    scaled one."""
    return REFERENCE_S / ((before + after) / 2.0)


class Clock:
    """Scaled timing of calls, one at a time, in the main thread.

    With ``tick_s`` set, a SIGALRM handler times the kernel every
    ``tick_s`` seconds inside the call, so a call of several seconds is
    scaled stretch by stretch; the handler's own time is left out of the
    call's.  Without it, only the two ends are timed (a traced run, whose
    spans would otherwise take in the handler's time).  The kernel timing
    that ends one call also starts the next.
    """

    def __init__(self, tick_s: float | None):
        self.tick_s = tick_s
        self.cal = timed()
        self.raw = self.scaled = self.mark = 0.0
        if tick_s:
            signal.signal(signal.SIGALRM, self._tick)

    def _stretch(self) -> None:
        now = time.perf_counter()
        cal = timed()
        self.raw += now - self.mark
        self.scaled += (now - self.mark) * scale(self.cal, cal)
        self.cal = cal
        self.mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        self._stretch()

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        self.mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(raw, scaled) seconds of the call since ``start``."""
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._stretch()
        return self.raw, self.scaled
