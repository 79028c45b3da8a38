import math

import pytest

import digests
import workloads


def timing_result():
    latency = {"count": 12, "mean": 91.25, "variance": 3.5, "minimum": 80.0,
               "maximum": 101.5}
    return {
        "packets_delivered": 12,
        "flits_delivered": 40,
        "packet_latency_ns": dict(latency),
        "transaction_latency_ns": dict(latency, mean=180.0),
        "bnf": {"offered_rate": 0.01, "throughput": 0.18, "latency_ns": 91.25,
                "transaction_latency_ns": 180.0, "packets_delivered": 12},
    }


def leaves(result, path=()):
    for key, value in result.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def with_leaf(result, path, value):
    copy = {k: (with_leaf(v, path[1:], value) if k == path[0] and len(path) > 1
                else v) for k, v in result.items()}
    if len(path) == 1:
        copy[path[0]] = value
    return copy


def test_canonical_form_ignores_key_order():
    result = timing_result()
    reordered = dict(reversed(list(result.items())))
    assert digests.canonical_json(result) == digests.canonical_json(reordered)
    assert digests.digest(result) == digests.digest(reordered)


def test_canonical_form_is_pinned():
    # Pins written by one version must verify under the next.
    result = {"b": {"c": 0.1}, "a": [1, 2.5]}
    assert digests.canonical_json(result) == '{"a":[1,2.5],"b":{"c":0.1}}'
    assert digests.digest(result) == (
        "255294e9a1b33a03c24766e3db962908ad035e0cf3913b004a9d97771c2e7bd5"
    )


@pytest.mark.parametrize("path", list(leaves(timing_result())))
def test_one_field_change_changes_the_digest(path):
    result = timing_result()
    original = result
    for key in path:
        original = original[key]
    changed = with_leaf(result, path, original + 1 if isinstance(original, int)
                        else math.nextafter(original, math.inf))
    assert digests.digest(changed) != digests.digest(result)


def test_nan_fields_canonicalise():
    # A single-sample RunningStats has a NaN variance.
    assert digests.canonical_json({"variance": math.nan}) == '{"variance":NaN}'


def test_real_point_digest_repeats_and_matches_its_own_canonical_form():
    from repro.sim.metrics import RunningStats

    stats = RunningStats()
    for value in (1.0, 2.0, 4.0):
        stats.add(value)
    first = digests.standalone_point(stats)
    assert first == {"matches": {"count": 3, "mean": 7 / 3,
                                 "variance": stats.variance, "minimum": 1.0,
                                 "maximum": 4.0}}
    assert digests.digest(first) == digests.digest(digests.standalone_point(stats))


def test_pins_cover_the_default_and_held_out_seed_of_every_workload():
    pins = digests.load_pins()
    for name in workloads.NAMES:
        seeds = pins[name]
        assert set(seeds) == {str(workloads.DEFAULT_SEED),
                              str(workloads.HELD_OUT_SEED)}
        assert seeds[str(workloads.DEFAULT_SEED)].keys() == (
            seeds[str(workloads.HELD_OUT_SEED)].keys()
        )
