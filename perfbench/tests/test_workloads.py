import json
from pathlib import Path

import child
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_timing_inputs_repeat_for_a_seed():
    workload = workloads.TimingWorkload()
    assert workload.inputs(5) == workload.inputs(5)
    assert workload.inputs(5) != workload.inputs(6)
    assert len(workload.inputs(5)) == 11
    seeds = [c.seed for s in (5, 6) for _, c in workload.inputs(s)]
    assert len(set(seeds)) == len(seeds) == 22


def test_standalone_inputs_repeat_for_a_seed():
    workload = workloads.StandaloneWorkload()
    assert workload.inputs(5) == workload.inputs(5)
    assert workload.inputs(5) != workload.inputs(6)


def test_sweep_inputs_repeat_for_a_seed(tmp_path):
    workload = workloads.SweepWorkload(tmp_path)
    assert workload.inputs(5) == workload.inputs(5)
    assert workload.inputs(5) != workload.inputs(6)
    seeds = [c.seed for s in (5, 6) for c in workload.inputs(s)]
    assert len(set(seeds)) == len(seeds) == 2 * workloads.SWEEP_REPLICAS


def test_checker_counts_mismatches_raises_and_backend_differences():
    checker = child.Checker({"a": "x", "b": "y", "c": "z"})
    results = {
        "a": {"v": 1},
        "b": None,
        "k:object": {"v": 2},
        "k:vectorized": {"v": 3},
    }
    checker.check(results)
    assert checker.attempted == 5  # four results and the missing "c"
    assert any(f.startswith("a: digest") for f in checker.failures)
    assert "b: raised" in checker.failures
    assert "c: missing from the batch" in checker.failures
    assert "k:vectorized: differs from the object backend" in checker.failures


def test_unpinned_checker_requires_repeats_to_agree():
    checker = child.Checker(None)
    checker.check({"a": {"v": 1}})
    checker.check({"a": {"v": 1}})
    assert checker.failures == []
    checker.check({"a": {"v": 2}})
    assert len(checker.failures) == 1


def test_benchmark_json_lists_the_workloads_and_layer_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    tracer = tracing.Tracer()
    with tracer.span("other"):
        pass
    reported = child._layer_metrics(tracer, 1, 1.0, (0.0, 0.0), 0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
