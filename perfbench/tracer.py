"""Outside-in layer tracing: wrap the program's entry points, not its code.

:class:`Tracer` times spans at layer boundaries and keeps, per layer,
the call count, the total span time and the *self* time -- the span
minus the time its child spans cover.  Spans are aggregated as they
close rather than stored one by one: a traced timing point makes
millions of routing calls.  Every wrapped span nests inside one root
span, so the self times of all layers plus the root's own self time
(reported as ``other``) add up exactly to the root span's duration.

:func:`install` wraps the public entry points of each ``repro`` module
in place and returns a :class:`Patches` that puts the originals back.
Nothing under ``src/`` changes.  Spawned worker processes re-import the
program and so run unwrapped: on pooled workloads only the parent's
layers are traced.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: ``EventQueue`` callback name -> event kind counted by the tracer.
EVENT_KINDS = {
    "_try_launch": "try_launch",
    "_resolve": "resolve",
    "_arrive": "arrive",
    "_link_arrival": "arrive",
    "_delivered": "delivered",
    "_injection_attempt": "injection",
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span timer with per-layer self time and free-form counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        self.counts: dict[str, int] = {}
        #: child-time accumulators of the open spans, innermost last.
        self._open: list[float] = []

    def layer(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats()
        return stats

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _close(self, stats: LayerStats, elapsed: float) -> None:
        child = self._open.pop()
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - child
        if self._open:
            self._open[-1] += elapsed

    @contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span of layer *name*."""
        stats = self.layer(name)
        self._open.append(0.0)
        began = self.clock()
        try:
            yield
        finally:
            self._close(stats, self.clock() - began)

    def wrap(self, name: str, fn, on_result=None):
        """*fn* timed as a span of layer *name*.

        ``on_result(result, args)`` runs after the span closes, so its
        cost lands in the caller's self time, not this layer's.
        """
        stats = self.layer(name)
        clock = self.clock
        open_spans = self._open
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stats, clock() - began)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced


class Patches:
    """Attribute replacements that :meth:`restore` undoes."""

    def __init__(self) -> None:
        #: (owner, attribute, original value), in replacement order.
        self.replaced: list[tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, value) -> None:
        self.replaced.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self.replaced:
            owner, attribute, original = self.replaced.pop()
            setattr(owner, attribute, original)


def _event_kind(callback) -> str:
    target = callback.func if isinstance(callback, functools.partial) else callback
    return EVENT_KINDS.get(getattr(target, "__name__", ""), "other")


def install(tracer: Tracer) -> Patches:
    """Wrap each layer's public entry points; returns the undo handle."""
    import repro.router.router as router_module
    from repro.coherence.protocol import CoherenceEngine
    from repro.core.islip import ISLIPArbiter
    from repro.core.mcm import MCMArbiter
    from repro.core.mwm import GreedyMWMArbiter
    from repro.core.opf import OPFArbiter
    from repro.core.pim import PIMArbiter
    from repro.core.spaa import SPAAArbiter
    from repro.core.wavefront import WavefrontArbiter
    from repro.kernels import matchers
    from repro.resilience.checkpoint import SweepJournal
    from repro.router.router import Router
    from repro.sim.engine import EventQueue
    from repro.sim.standalone import StandaloneRouterModel

    patches = Patches()
    count = tracer.count

    schedule_at = EventQueue.__dict__["schedule_at"]

    def counted_schedule_at(queue, time_, callback):
        count("engine.events")
        count("engine.events." + _event_kind(callback))
        return schedule_at(queue, time_, callback)

    patches.replace(EventQueue, "schedule_at", counted_schedule_at)

    def on_nominate(launch, _args):
        if launch is None:
            count("router.nominate.empty")

    patches.replace(
        Router, "nominate",
        tracer.wrap("router.nominate", Router.__dict__["nominate"], on_nominate),
    )

    def on_resolve(dispatches, _args):
        count("router.dispatches", len(dispatches))

    patches.replace(
        Router, "resolve",
        tracer.wrap("router.resolve", Router.__dict__["resolve"], on_resolve),
    )
    # The routing functions as the router module bound them at import.
    for name in (
        "adaptive_candidates", "dimension_order_direction", "escape_vc_after_hop",
    ):
        patches.replace(
            router_module, name,
            tracer.wrap("routing", router_module.__dict__[name]),
        )

    def on_grants(grants, _args):
        count("core.grants", len(grants))

    for arbiter in (
        SPAAArbiter, WavefrontArbiter, PIMArbiter, OPFArbiter, ISLIPArbiter,
        GreedyMWMArbiter,
    ):
        patches.replace(
            arbiter, "arbitrate",
            tracer.wrap("core.arbitrate", arbiter.__dict__["arbitrate"], on_grants),
        )
    patches.replace(
        MCMArbiter, "arbitrate",
        tracer.wrap("core.mcm", MCMArbiter.__dict__["arbitrate"]),
    )

    def on_standalone(_stats, args):
        count("standalone.trials", args[0].config.trials)

    patches.replace(
        StandaloneRouterModel, "run",
        tracer.wrap("standalone", StandaloneRouterModel.__dict__["run"], on_standalone),
    )
    for name in ("wfa_kernel", "pim1_kernel", "opf_kernel", "spaa_kernel"):
        patches.replace(
            matchers, name, tracer.wrap("kernels", matchers.__dict__[name])
        )
    for name in ("try_start_transaction", "on_packet_delivered", "on_packet_dropped"):
        patches.replace(
            CoherenceEngine, name,
            tracer.wrap("coherence", CoherenceEngine.__dict__[name]),
        )
    for name in ("record_success", "record_failure", "record_quarantined"):
        patches.replace(
            SweepJournal, name,
            tracer.wrap("checkpoint", SweepJournal.__dict__[name]),
        )
    return patches
