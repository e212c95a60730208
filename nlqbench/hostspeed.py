"""Host speed, sampled through a timed run, to put call times on one scale.

On a shared 2-core host, single-thread speed drifts by up to 1.9x in phases
of seconds to minutes, and every phase of a run moves with it: across ten
runs, train, predict, rerank and eval throughput rose and fell together by
up to 50% around their medians.  A fixed pure-Python loop, timed every
`INTERVAL` seconds by a SIGALRM handler in the main thread, follows that
drift: closely for predict, rerank and eval, less so for numpy-heavy
training.  A call's seconds times `REF_S` over the median loop time around the
call is the call's time at the reference speed.  The handler's own time is
taken out of the call's seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

LOOP = 10_000  # iterations of the calibration loop
REF_S = 0.0007  # the loop's time at the reference speed: about its median on a 2-core Xeon
INTERVAL = 0.25  # seconds between samples
WINDOW = 1.0  # a call's speed: samples from WINDOW s before its start to its end


def loop_seconds() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOP):
        x += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager: samples the loop while active."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.loops: list[float] = []  # its loop seconds
        self.spent = 0.0  # seconds spent in the handler

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # restart system calls the signal lands in, so C code under test
        # that does not retry on EINTR is not disturbed
        signal.siginterrupt(signal.SIGALRM, False)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        seconds = loop_seconds()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.loops.append(seconds)
        self.spent += t1 - t0

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median loop time of the samples from WINDOW s
        before `start` to `end`, or of the last sample before `end`."""
        hi = bisect.bisect_right(self.times, end)
        window = self.loops[bisect.bisect_left(self.times, start - WINDOW):hi] or self.loops[hi - 1:hi]
        return REF_S / statistics.median(window)

    def summary(self) -> dict:
        q = statistics.quantiles(self.loops, n=10) if len(self.loops) > 1 else self.loops * 9
        return {"samples": len(self.loops), "loop_s_p10": q[0], "loop_s_p50": statistics.median(self.loops),
                "loop_s_p90": q[-1], "ref_s": REF_S}
