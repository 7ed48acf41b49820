"""Timing of the program calls, in wall seconds and at a fixed reference speed.

The host this benchmark was written on is a KVM guest whose cores change
speed by up to a factor of two from one second to the next and drift over
minutes, far more than a regression bound worth having. So, while a round
runs, a wall-clock timer interrupts it every ``SAMPLE_EVERY_S`` and times a
fixed piece of reference work; a piece is also timed when the clock starts
and when the round finishes. The time the pieces take is not program time.
Each stretch of program time is scaled by ``REFERENCE_S`` over the mean of
the two pieces around it, so a stretch run while the machine was slow counts
for what it would have taken at the reference speed.

Traced rounds are not interrupted, because the pause would be charged to
whatever traced function was running; their figure is scaled only by the
pieces at the start and the end.
"""
from __future__ import annotations

import bisect
import contextlib
import gc
import signal
from fractions import Fraction
from time import perf_counter

# median seconds of reference() on the 2-core KVM Xeon the README's figures come from
REFERENCE_S = 0.037
SAMPLE_EVERY_S = 0.3


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the program's.

    It builds tuples, lists and dicts and adds Fractions, and never touches
    partic. The cyclic collector is off while it runs, so a large heap left
    behind by the program cannot slow it down and hide the program's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        seen: dict = {}
        acc = Fraction(0)
        for i in range(40_000):
            lst = [i % 13, i % 7, i % 5, i % 3]
            lst[i % 4] += 1
            key = tuple(lst)
            seen[key] = seen.get(key, 0) + 1
            if i % 8 == 0:
                acc += Fraction(i % 11, 1 + i % 5)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Sums the wall time of the calls made inside ``program()``; traces them when given a tracer.

    After ``finish()``, ``seconds`` is the program's wall time, without the
    reference pieces, and ``scaled`` is the same time at the reference speed.
    The timer handler only appends to ``_samples``; all the arithmetic runs in
    ``finish()``, so a signal arriving anywhere cannot double-count a stretch.
    Only the main thread can own a sampling clock, since it takes over
    SIGALRM until ``finish()``.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self.scaled = 0.0
        self._calls: list[tuple[float, float]] = []
        self._samples: list[tuple[float, float, float]] = []  # (start, end, reference seconds)
        self._sample()
        self._sampling = tracer is None
        if self._sampling:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self) -> None:
        start = perf_counter()
        ref = reference()
        self._samples.append((start, perf_counter(), ref))

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling:
            self._sample()

    @contextlib.contextmanager
    def program(self):
        if self.tracer is not None:
            self.tracer.active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            if self.tracer is not None:
                self.tracer.active = False
            self._calls.append((start, end))

    def finish(self) -> None:
        if self._sampling:
            # stop sampling before the handler goes, so that an alarm already
            # raised finds a handler that does nothing
            self._sampling = False
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()
        starts = [s for s, _, _ in self._samples]
        ends = [e for _, e, _ in self._samples]
        for start, end in self._calls:
            # split the call at the pieces that interrupted it
            i = bisect.bisect_right(ends, start)
            while i < len(self._samples) and starts[i] < end:
                self._add(start, starts[i], i)
                start = ends[i]
                i += 1
            self._add(start, end, i)

    def _add(self, start: float, end: float, after: int) -> None:
        """Count the stretch [start, end], which lies between samples ``after - 1`` and ``after``."""
        if end <= start:
            return
        ref = (self._samples[after - 1][2] + self._samples[after][2]) / 2
        self.seconds += end - start
        self.scaled += (end - start) * REFERENCE_S / ref
