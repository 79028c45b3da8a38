"""Host speed probe: scale host seconds to a fixed reference speed.

Shared virtual machines change speed under the benchmark: on the
2-CPU reference host a fixed pure-Python loop took anywhere from 4.5
to 8.6 ms in back-to-back 0.7 s windows, and process CPU time moved
with wall time, so the slowdown is the host's, not scheduling inside
the guest.  Raw host times of identical work then spread by 25% from
run to run, more than any useful regression bound.

:class:`SpeedProbe` measures the current speed alongside the work: a
background thread per CPU times a small fixed Python chunk every
:data:`PERIOD_S`.  :meth:`SpeedProbe.reference_seconds` scales each
:data:`SLICE_S` slice of a measured interval by
``REFERENCE_CHUNK_S / median(chunk time)`` in that slice, i.e. it
reports how long the interval would have taken on a host where the
chunk takes exactly :data:`REFERENCE_CHUNK_S`.  A faster program gives
proportionally fewer reference seconds; a slower or faster host does
not move them.  The probe costs the work about one chunk per CPU per
period (~1%), the same on every run; :meth:`SpeedProbe.cpu_seconds`
reports that cost so CPU-time metrics can leave it out.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

#: seconds between probe samples.
PERIOD_S = 0.02
#: the chunk's duration on the reference host, by definition.
REFERENCE_CHUNK_S = 100e-6
#: fewest samples a scale factor is taken from; short intervals borrow
#: the nearest samples on both sides.
MIN_SAMPLES = 7
#: longer intervals are scaled slice by slice, following speed changes.
SLICE_S = 0.25


def chunk() -> int:
    """Fixed interpreter work: dict updates, int arithmetic, str building."""
    table: dict[int, int] = {}
    total = 0
    for i in range(400):
        table[i & 63] = table.get(i & 63, 0) + i
        total += len(str(i))
    return total


class SpeedProbe:
    """Samples the chunk's duration on every usable CPU until stopped.

    One daemon thread per CPU, each pinned to its CPU: the two vCPUs of
    the reference host slow down independently, and a pooled workload
    runs on both.  The scale factor is the mean of the per-CPU factors.
    """

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        #: per CPU, (end time, chunk seconds) appended by its thread.
        self.samples: dict[int, list[tuple[float, float]]] = {
            cpu: [] for cpu in cpus
        }
        #: per CPU, its thread's CPU seconds so far, updated every sample.
        self._cpu_s: dict[int, float] = {cpu: 0.0 for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._loop, args=(cpu,), name=f"speed-probe-{cpu}",
                daemon=True,
            )
            for cpu in cpus
        ]

    def start(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # on Linux, this thread only
        samples = self.samples[cpu]
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            began = clock()
            chunk()
            ended = clock()
            samples.append((ended, ended - began))
            self._cpu_s[cpu] = time.thread_time()

    def cpu_seconds(self) -> float:
        """CPU seconds the probe threads have used so far, all together."""
        return sum(self._cpu_s.values())

    def factor(self, start: float, end: float) -> float:
        """Reference chunk time over the median chunk time in [start, end]."""
        return statistics.fmean(
            _factor(samples[:], start, end)  # the threads keep appending
            for samples in self.samples.values()
        )

    def reference_seconds(self, start: float, end: float) -> float:
        """Host seconds from *start* to *end*, at the reference speed."""
        slices = max(1, round((end - start) / SLICE_S))
        width = (end - start) / slices
        return sum(
            width * self.factor(start + i * width, start + (i + 1) * width)
            for i in range(slices)
        )


def _factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    if not samples:
        raise RuntimeError("speed probe has no samples yet")
    times = [t for t, _ in samples]
    low = bisect.bisect_left(times, start)
    high = bisect.bisect_right(times, end)
    while high - low < MIN_SAMPLES and (low > 0 or high < len(samples)):
        low = max(0, low - 1)
        high = min(len(samples), high + 1)
    return REFERENCE_CHUNK_S / statistics.median(d for _, d in samples[low:high])
