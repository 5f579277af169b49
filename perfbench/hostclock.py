"""Host time measured against a fixed reference loop.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts: the same simulated round ran 1.5x faster
or slower within a minute.  Every host-time metric is therefore also
measured in **reference seconds**.  A short, fixed piece of pure-Python
work, the reference slice, is run right after each stretch of measured
work (a replay step, a deploy, an invocation).  The host's speed at
that moment is the slice's nominal duration over its measured duration,
and a stretch lasting ``t`` host seconds counts as ``t * speed``
reference seconds.

The reference slice is a small generator-driven event loop over
slotted objects, dicts and a heap: the same kind of work the simulator
does, and none of its code, so a change to the program under test
cannot change the yardstick.  The slices' own time is excluded from
every measured phase.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Jobs in one reference slice.
SLICE_JOBS = 500

#: Nominal duration of one slice (host seconds on an unloaded 2-core
#: Xeon VM); it fixes the size of a reference second.
SLICE_NOMINAL_S = 0.0025


class _Job:
    __slots__ = ("ident", "left", "log")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.left = ident % 7 + 3
        self.log: dict[int, int] = {}


def _steps(job: _Job):
    while job.left:
        job.left -= 1
        job.log[job.left] = job.ident * job.left
        yield job.left % 3 + 1


def reference_slice() -> float:
    """Run one reference slice; its host duration in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    try:
        heap = [(0, ident, _steps(_Job(ident)))
                for ident in range(SLICE_JOBS)]
        heapq.heapify(heap)
        while heap:
            when, ident, steps = heapq.heappop(heap)
            for delay in steps:
                heapq.heappush(heap, (when + delay, ident, steps))
                break
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Stretches of one measured phase, each followed by a reference slice.

    Time a stretch of the phase's work and pass it to :meth:`add`, or
    let :meth:`measure` do both.  :attr:`speed` is the phase's host
    speed, weighted by the time of its stretches: convert the phase's
    host time (its elapsed time minus :attr:`slice_s`) with it.
    """

    def __init__(self) -> None:
        self.host_s = 0.0
        self.reference_s = 0.0
        self.slice_s = 0.0
        self.slices = 0

    def add(self, host_s: float) -> None:
        """Count a stretch of ``host_s`` and probe the host's speed."""
        slice_s = reference_slice()
        self.slice_s += slice_s
        self.slices += 1
        self.host_s += host_s
        self.reference_s += host_s * SLICE_NOMINAL_S / slice_s

    def measure(self, work, *args, **kwargs):
        """Call ``work`` as one stretch; return its result."""
        started = time.perf_counter()
        result = work(*args, **kwargs)
        self.add(time.perf_counter() - started)
        return result

    @property
    def speed(self) -> float:
        """Host speed relative to the nominal one (1.0 when unloaded).

        Without stretches, the plain mean over the probes so far.
        """
        if self.host_s > 0:
            return self.reference_s / self.host_s
        if self.slices:
            return self.slices * SLICE_NOMINAL_S / self.slice_s
        return 1.0
