"""A lightweight wall-clock profiler for simulation phases.

The timing model's work falls into four recurring phases --
*nominate* (``Router.nominate``: the LA stage and its routing),
*arbitrate* (``Router.resolve``: the GA stage and grant application),
*traversal* (hop arrivals) and *delivery* (local-port sinks) -- and
the useful question is usually "where did the wall time go", not a
full call-graph profile.
:class:`PhaseProfiler` answers it with two ``perf_counter`` calls per
sample and one dict update, cheap enough to leave on for whole sweeps.

Disabled profilers keep the same API so call sites need no branching
beyond the ``telemetry.profiling`` flag they already check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class PhaseSummary:
    """Aggregated samples of one phase."""

    name: str
    seconds: float
    samples: int

    @property
    def mean_us(self) -> float:
        """Mean microseconds per sample."""
        return (self.seconds / self.samples) * 1e6 if self.samples else 0.0


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase."""

    __slots__ = ("enabled", "_seconds", "_samples")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._seconds: dict[str, float] = {}
        self._samples: dict[str, int] = {}

    def begin(self) -> float:
        """A timestamp for a later :meth:`add` (no-op when disabled)."""
        return time.perf_counter() if self.enabled else 0.0

    def add(self, phase: str, began: float) -> None:
        """Record one sample of *phase* started at *began*."""
        if not self.enabled:
            return
        elapsed = time.perf_counter() - began
        self._seconds[phase] = self._seconds.get(phase, 0.0) + elapsed
        self._samples[phase] = self._samples.get(phase, 0) + 1

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's accumulated samples into this one.

        Bookkeeping, not sampling: it works regardless of either
        profiler's ``enabled`` flag, so a parent can aggregate worker
        profiles into a merged attribution (parallel sweeps, bench
        records) without arming its own sampling hooks.
        """
        for name, seconds in other._seconds.items():
            self._seconds[name] = self._seconds.get(name, 0.0) + seconds
            self._samples[name] = (
                self._samples.get(name, 0) + other._samples[name]
            )

    def merge_record(self, record: dict) -> None:
        """Fold a serialized ``profile`` record (see :meth:`to_record`) in.

        This is how phase attribution crosses a process boundary: a
        sweep worker serializes its profiler into the trace/result and
        the parent merges the record, no live object required.
        """
        for entry in record.get("phases", ()):
            name = str(entry["name"])
            self._seconds[name] = self._seconds.get(name, 0.0) + float(
                entry.get("seconds", 0.0)
            )
            self._samples[name] = self._samples.get(name, 0) + int(
                entry.get("samples", 0)
            )

    @classmethod
    def from_record(cls, record: dict) -> "PhaseProfiler":
        """Rebuild a profiler from its ``profile`` record (inverse of
        :meth:`to_record`, up to phase ordering)."""
        profiler = cls(enabled=False)
        profiler.merge_record(record)
        return profiler

    def summaries(self) -> list[PhaseSummary]:
        """Phases sorted by descending total wall time."""
        return sorted(
            (
                PhaseSummary(name, self._seconds[name], self._samples[name])
                for name in self._seconds
            ),
            key=lambda s: -s.seconds,
        )

    def total_seconds(self) -> float:
        return sum(self._seconds.values())

    def to_record(self) -> dict:
        """The trace's ``profile`` record."""
        return {
            "kind": "profile",
            "phases": [
                {
                    "name": summary.name,
                    "seconds": summary.seconds,
                    "samples": summary.samples,
                }
                for summary in self.summaries()
            ],
        }

    def reset(self) -> None:
        self._seconds.clear()
        self._samples.clear()
