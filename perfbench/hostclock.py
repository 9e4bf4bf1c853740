"""Process CPU time, normalized for host speed.

On a shared virtual machine the same Python code runs at speeds that
drift by tens of percent over minutes. The benchmark times a fixed piece
of calibration work now and then, and scales measured CPU time by the
work's nominal cost over its measured cost. On a host that runs the
work in its nominal time, normalized times read as plain CPU seconds.

Host interference does not slow every kind of code alike, so there are
two calibration works:

* Token rounds move many small messages through large dicts. They track
  :func:`token_plane_work`, timed right before and right after each
  round (:meth:`TimedPhase.bracketed`).
* Building, converging and verifying a system create and call many
  small objects. They track :func:`control_plane_work`, through a
  :class:`HostClock` that follows the median of its last :data:`WINDOW`
  calibrations.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable, Dict, List, Tuple

#: CPU seconds either calibration work is taken to need on the nominal host.
NOMINAL_S = 0.010
#: Unsampled runs of a work before its first calibration: the first runs
#: also pay for fresh memory from the operating system.
WARMUP = 3
WINDOW = 5


def token_plane_work() -> int:
    """Tuple-keyed dict and list traffic over a large working set."""
    table: Dict[Tuple[int, int], int] = {}
    out: List[int] = []
    for i in range(25000):
        table[(i, i & 7)] = i
        out.append(table.get((i - 1, (i - 1) & 7), 0))
    return len(out)


class _Counter:
    __slots__ = ("key", "count")

    def __init__(self, key: Tuple[int, int]) -> None:
        self.key = key
        self.count = 0

    def bump(self) -> int:
        self.count += 1
        return self.count


def control_plane_work() -> int:
    """Small objects, method calls and a bounded heap."""
    counters: Dict[Tuple[int, int], _Counter] = {}
    heap: List[Tuple[int, int]] = []
    total = 0
    for i in range(13000):
        key = (i & 255, i & 3)
        counter = counters.get(key)
        if counter is None:
            counter = counters[key] = _Counter(key)
        total += counter.bump()
        heapq.heappush(heap, (i * 7 % 101, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class HostClock:
    """A monotonic clock of normalized CPU seconds. The calibrations'
    own time is not counted."""

    def __init__(self, work: Callable[[], int]) -> None:
        self.work = work
        self.scale = 1.0
        self.calibrations: List[float] = []
        for _ in range(WARMUP):
            work()
        self._mark = time.process_time()
        self._reading = 0.0

    def __call__(self) -> float:
        now = time.process_time()
        self._reading += (now - self._mark) * self.scale
        self._mark = now
        return self._reading

    def calibrate(self) -> None:
        self()
        # A collection would scan the program's live objects and make
        # the calibration depend on the heap it must be independent of.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            self.work()
            self.calibrations.append(time.process_time() - start)
        finally:
            if enabled:
                gc.enable()
        recent = sorted(self.calibrations[-WINDOW:])
        self.scale = NOMINAL_S / recent[len(recent) // 2]
        self._mark = time.process_time()


class TimedPhase:
    """Accumulates raw and control-plane-normalized CPU time, and wall
    time, over ``with`` blocks; turns an optional span recorder on only
    inside them."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.plane = HostClock(token_plane_work)
        self.control = HostClock(control_plane_work)
        self.raw_s = 0.0
        self.control_s = 0.0
        self.wall_s = 0.0

    def calibrate(self) -> None:
        self.plane.calibrate()
        self.control.calibrate()

    def bracketed(self, raw_s: float) -> float:
        """Normalize ``raw_s`` CPU seconds of token rounds run between
        the last two calibrations by the mean of their measured costs."""
        before, after = self.plane.calibrations[-2:]
        return raw_s * NOMINAL_S / ((before + after) / 2.0)

    def __enter__(self) -> "TimedPhase":
        self._wall = time.perf_counter()
        self._control = self.control()
        self._raw = time.process_time()
        if self.recorder is not None:
            self.recorder.active = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self.recorder is not None:
            self.recorder.active = False
        self.raw_s += time.process_time() - self._raw
        self.control_s += self.control() - self._control
        self.wall_s += time.perf_counter() - self._wall
