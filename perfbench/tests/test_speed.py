import time

import pytest

import speed


def probe_with(samples_per_cpu):
    probe = speed.SpeedProbe()  # threads never started
    probe.samples = {cpu: list(s) for cpu, s in enumerate(samples_per_cpu)}
    return probe


def steady(chunk_s, start=0.0, end=10.0, step=0.02):
    n = int((end - start) / step)
    return [(start + (i + 1) * step, chunk_s) for i in range(n)]


def test_reference_speed_leaves_seconds_unchanged():
    probe = probe_with([steady(speed.REFERENCE_CHUNK_S)])
    assert probe.reference_seconds(1.0, 4.0) == pytest.approx(3.0)


def test_a_host_twice_as_slow_gives_half_the_reference_seconds():
    probe = probe_with([steady(2 * speed.REFERENCE_CHUNK_S)])
    assert probe.reference_seconds(1.0, 4.0) == pytest.approx(1.5)


def test_slices_follow_a_speed_change_inside_the_interval():
    ref = speed.REFERENCE_CHUNK_S
    samples = steady(ref, 0.0, 5.0) + steady(2 * ref, 5.0, 10.0)
    probe = probe_with([samples])
    assert probe.reference_seconds(3.0, 7.0) == pytest.approx(2.0 + 1.0)


def test_factor_is_the_mean_over_cpus_and_short_intervals_borrow_samples():
    ref = speed.REFERENCE_CHUNK_S
    probe = probe_with([steady(ref), steady(2 * ref)])
    assert probe.factor(2.0, 2.001) == pytest.approx((1.0 + 0.5) / 2)


def test_a_running_probe_collects_samples():
    probe = speed.SpeedProbe().start()
    deadline = time.monotonic() + 10.0
    try:
        while not all(len(s) >= 3 for s in probe.samples.values()):
            assert time.monotonic() < deadline, "probe took no samples"
            time.sleep(0.01)
    finally:
        probe.stop()
    assert all(not thread.is_alive() for thread in probe._threads)
    assert probe.factor(0.0, 1e9) > 0
    assert probe.cpu_seconds() > 0
