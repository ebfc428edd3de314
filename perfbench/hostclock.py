"""Host speed, sampled all through a run, so that times can be read at one speed.

The machine's speed drifts by up to 2x for stretches of seconds to minutes.
A ``HostClock`` times a fixed reference computation every ``PERIOD_S``
seconds, from a SIGALRM handler, so the samples also fall inside long calls
into the program (the handler runs between the program's bytecodes).  A
timed interval is then scaled by ``REF_MS`` over the mean reference time
sampled during it and one period either side; the handler's own time inside
the interval is taken out of it first.

Over slow and fast stretches of the host, the workloads' times moved in
proportion to this reference's, and more than those of a BLAS product or a
memory stream, which is why it is made of small numpy calls.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

# about the reference's time on the machine the README's figures come from,
# when it runs at full speed: a scaled time is the time at that speed
REF_MS = 6.0
PERIOD_S = 0.25

_SQUARE = np.eye(6) + 0.1
_TALL = np.linspace(0.0, 1.0, 30 * 6).reshape(30, 6)
_ROW = np.linspace(0.0, 1.0, 48)


def host_reference_ms():
    """Time of a fixed loop of small numpy calls (about 6 ms at full speed).

    300 rounds of a 6x6 solve, a small matrix-vector product, a reduction, a
    ``where`` and a finiteness test: interpreter and call overhead more than
    arithmetic, like most of flowcast's work at these sizes.
    """
    start = perf_counter()
    for _ in range(300):
        y = np.linalg.solve(_SQUARE, _TALL[:6].T @ _ROW[:6])
        z = (_TALL * y[None, 0]).sum(axis=0)
        w = np.where(_ROW > 0.5, _ROW, z.mean())
        np.isfinite(w).all()
    return (perf_counter() - start) * 1e3


class HostClock:
    """Reference samples ``(time, ms)`` taken every ``PERIOD_S`` while running."""

    def __init__(self):
        self.times, self.ms = [], []
        self.spent_s = 0.0  # handler time, to be taken out of timed intervals

    def sample(self):
        start = perf_counter()
        ms = host_reference_ms()
        self.times.append(start)
        self.ms.append(ms)
        self.spent_s += perf_counter() - start

    def _tick(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def factor(self, start, end):
        """REF_MS over the mean reference time sampled in [start, end], padded by a period."""
        lo = bisect.bisect_left(self.times, start - PERIOD_S)
        hi = bisect.bisect_right(self.times, end + PERIOD_S)
        near = self.ms[lo:hi]
        if not near:  # no sample that close: the nearest one on either side
            near = self.ms[max(lo - 1, 0):lo + 1]
        return REF_MS * len(near) / sum(near)
