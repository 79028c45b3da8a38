import pytest

import digests
import tracer as tracing
import workloads


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,6] > b [2,5];  root > c [7,8]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 5, 6, 7, 8, 10]))
    b = tracer.wrap("b", lambda: None)
    a = tracer.wrap("a", lambda: b())
    c = tracer.wrap("c", lambda: None)
    with tracer.span("root"):
        a()
        c()
    layers = tracer.layers
    assert (layers["b"].total_s, layers["b"].self_s) == (3, 3)
    assert (layers["a"].total_s, layers["a"].self_s) == (5, 2)
    assert (layers["c"].total_s, layers["c"].self_s) == (1, 1)
    assert (layers["root"].total_s, layers["root"].self_s) == (10, 4)
    assert sum(layer.self_s for layer in layers.values()) == 10


def test_repeated_layer_accumulates_and_exceptions_close_the_span():
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 4, 7, 9]))

    def boom():
        raise ValueError("boom")

    leaf = tracer.wrap("leaf", lambda: None)
    failing = tracer.wrap("leaf", boom)
    with tracer.span("root"):
        leaf()
        with pytest.raises(ValueError):
            failing()
    assert tracer.layers["leaf"].calls == 2
    assert tracer.layers["leaf"].self_s == 1 + 3
    assert tracer.layers["root"].self_s == 9 - 4


def test_on_result_sees_the_result_and_arguments():
    tracer = tracing.Tracer()
    seen = []
    double = tracer.wrap("f", lambda x: 2 * x, lambda r, args: seen.append((r, args)))
    assert double(3) == 6
    assert seen == [(6, (3,))]


def test_restore_puts_every_original_back():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    replaced = list(patches.replaced)
    assert len(replaced) > 10
    for owner, attribute, original in replaced:
        assert owner.__dict__[attribute] is not original
    patches.restore()
    for owner, attribute, original in replaced:
        assert owner.__dict__[attribute] is original
    assert patches.replaced == []


def test_traced_point_matches_the_untraced_point_and_counts_events():
    from dataclasses import replace

    from repro.sim.timing_model import NetworkSimulator

    config = replace(
        workloads.SweepWorkload(None).inputs(3)[0], warmup_cycles=50,
        measure_cycles=150,
    ).with_rate(0.02)

    def run():
        simulator = NetworkSimulator(config)
        return digests.timing_point(simulator.stats, simulator.bnf_point())

    untraced = run()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        with tracer.span("other"):
            traced = run()
    finally:
        patches.restore()
    assert traced == untraced
    counts = tracer.counts
    kinds = [k for k in counts if k.startswith("engine.events.")]
    assert counts["engine.events"] == sum(counts[k] for k in kinds) > 0
    assert counts["engine.events.try_launch"] > 0
    assert tracer.layers["router.nominate"].calls > 0
    assert tracer.layers["routing"].calls > 0
    total = sum(layer.self_s for layer in tracer.layers.values())
    assert total == pytest.approx(tracer.layers["other"].total_s)
