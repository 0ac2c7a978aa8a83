"""Host speed reference for the benchmark's timings.

The benchmark runs on a share of a machine whose CPU speed moves with
the load of other tenants: on a 2-vCPU x86-64 VM a fixed pure-Python
loop took 1.6 times longer in one minute than in the next, and swung by
a third within seconds. That is wider than the bounds a change is judged
by, and no amount of averaging inside one run removes a swing that lasts
minutes.

So a fixed reference task runs every ``EVERY_S`` while ops are timed,
and every timing is scaled by ``REF_S`` over the reference's own time
around it: timings are reported as they would be on a host where the
reference task takes ``REF_S``. A change to the program moves the op
times and not the reference, so it shows in the scaled figures in full.
The raw timings are printed beside them.
"""

from __future__ import annotations

import bisect
import functools
import random
import signal
import statistics
import time

REF_S = 8e-4  # the reference task's time on the host the figures are scaled to
EVERY_S = 0.05  # seconds from one reference run to the next
SMOOTH = 5  # reference runs in the running mean a scale is taken from


@functools.lru_cache(maxsize=None)
def _data():
    import numpy as np

    rng = random.Random(1605)
    table = {k: rng.random() for k in range(20_000)}
    keys = [rng.randrange(20_000) for _ in range(600)]
    return table, keys, np.random.default_rng(1605).random(2_000)


def reference_task() -> float:
    """Fixed work of the kinds the program does: an interpreter loop,
    small tuples built, looked up and sorted, and calls into numpy on
    small arrays. Each kind takes about a third of the time."""
    table, keys, array = _data()
    acc = 0
    store: dict[int, int] = {}
    for i in range(1_500):
        acc = (acc + i * i) % 1_000_003
        store[i & 63] = acc
    rows = [(k, table[k], str(k)) for k in keys]
    rows.sort(key=lambda row: row[1])
    total = 0.0
    for r in range(24):
        part = array[r : r + 1_000].copy()
        part.sort()
        total += float(part[500]) + float(array.sum())
    return acc + len(store) + rows[0][1] + total


def time_reference() -> float:
    # the op before has pushed the task's data out of the caches; a cold
    # run would time that op's memory use as much as the host's speed
    reference_task()
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


class Track:
    """Reference runs through a timed phase, and the scale of each op.

    Used as a context manager, it runs the reference on an interval
    timer, so a long op is sampled in its middle too; the op's timing
    must then leave out ``spent``, the time the reference runs took.
    Without the timer (``timer=False``) the caller runs ``sample``
    between ops when ``due``, as a traced phase must: a reference run
    inside an op would count in the self time of the span it lands in.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.ends: list[float] = []  # when each reference run ended
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None
        self._smoothed: list[float] | None = None

    def __enter__(self) -> Track:
        self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # every op has a reference run after it

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def clock(self) -> float:
        """perf_counter less the time the reference runs have taken."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:  # no reference run in between
                return now - spent

    def due(self, now: float) -> bool:
        return now - self.ends[-1] >= EVERY_S

    def sample(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        self.durations.append(time_reference())
        self.ends.append(time.perf_counter())
        self._smoothed = None
        self.spent += time.perf_counter() - t0
        self._busy = False

    def median_scale(self) -> float:
        return REF_S / statistics.median(self.durations)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean smoothed reference time of the runs from
        the last one before ``start`` to the first one after ``end``."""
        if self._smoothed is None:
            half = SMOOTH // 2
            d = self.durations
            self._smoothed = [
                statistics.fmean(d[max(0, k - half) : k + half + 1]) for k in range(len(d))
            ]
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = min(bisect.bisect_right(self.ends, end), len(self.ends) - 1)
        return REF_S / statistics.fmean(self._smoothed[first : last + 1])
