"""One benchmark phase of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object on standard output.

* ``--phase setup`` sets the workload up and reports how long that took.
* ``--phase measure`` sets up, then runs the workload's batch of points
  until ``--seconds`` is spent (at least once), checks every point's
  digest and reports host times.
* ``--phase trace`` runs one untraced batch, then traced batches with
  every layer wrapped (see :mod:`tracer`), and reports per-layer
  counts and self times.  Process and worker CPU come from the
  untraced batch, without the speed probe's own CPU.

``--canary 1`` adds the pinned default-seed canary after the phase.

The entry point sits under ``if __name__ == "__main__"``: spawn-context
pool workers re-import this file and must not run a benchmark.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The program calls no BLAS routine, but importing numpy starts one
# OpenBLAS thread per CPU by default; on two CPUs they compete with the
# workload and the speed probe and spread the set-up time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import digests  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: journals of the pooled workload, inside the checkout.
SCRATCH = ROOT / ".perfbench_work"


class Checker:
    """Counts attempted and failed points against the expected digests.

    With pins for the seed, every point must match its pinned digest.
    Without, the first batch's digests become the expectation and every
    later batch must repeat them.  A vectorized standalone result must
    also equal its object-backend twin exactly.
    """

    def __init__(self, pinned: dict | None) -> None:
        self.pinned = pinned is not None
        self.expected = dict(pinned or {})
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, results: dict, complete: bool = True) -> None:
        if complete and self.pinned:
            for key in self.expected.keys() - results.keys():
                self.attempted += 1
                self.failures.append(f"{key}: missing from the batch")
        for key, result in results.items():
            self.attempted += 1
            if result is None:
                self.failures.append(f"{key}: raised")
                continue
            got = digests.digest(result)
            self.digests.setdefault(key, got)
            if key.endswith(":vectorized"):
                twin = results.get(key[: -len("vectorized")] + "object")
                if twin != result:
                    self.failures.append(f"{key}: differs from the object backend")
                    continue
            want = (
                self.expected.get(key)
                if self.pinned
                else self.expected.setdefault(key, got)
            )
            if want != got:
                self.failures.append(f"{key}: digest {got[:12]} != {str(want)[:12]}")


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        children.ru_utime + children.ru_stime,
    )


def _peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is in KiB on Linux; children report only their largest.
    return (own + workload.pool_workers * largest_child) / 1024.0


def _batches(workload, state, seconds, window_start, checker, on_point):
    """Run batches until another would end past *seconds*.

    Returns the batch windows, the first batch's results and the peak
    memory over set-up and the first batch, which is the same work on
    every run however many batches fit.
    """
    windows = []
    while True:
        began = time.perf_counter()
        results = workload.batch(state, on_point)
        ended = time.perf_counter()
        if not windows:
            first, peak_rss_mb = results, _peak_rss_mb(workload)
        windows.append((began, ended))
        checker.check(results)
        if ended - window_start + (ended - began) > seconds:
            return windows, first, peak_rss_mb


def _layer_metrics(tracer, batches, untraced_wall, cpu, pool_workers, scale):
    """Per-batch layer metrics; traced seconds are multiplied by *scale*.

    *untraced_wall* and *cpu*, the (process, workers) CPU seconds, are
    those of the untraced batch, already at the reference speed.
    """
    layers, counts = tracer.layers, tracer.counts

    def calls(name):
        return layers[name].calls / batches if name in layers else 0.0

    def self_s(name):
        return scale * layers[name].self_s / batches if name in layers else 0.0

    def per_batch(name):
        return counts.get(name, 0) / batches

    def ratio(num, den):
        return num / den if den else 0.0

    events = per_batch("engine.events")
    nominate = calls("router.nominate")
    wall = scale * layers["other"].total_s / batches
    parent_cpu, worker_cpu = cpu
    return {
        "engine.events": events,
        **{
            f"engine.events.{kind}": per_batch(f"engine.events.{kind}")
            for kind in ("try_launch", "resolve", "arrive", "delivered",
                         "injection", "other")
        },
        "engine.us_per_event": ratio(untraced_wall * 1e6, events),
        "router.nominate.calls": nominate,
        "router.nominate.empty": per_batch("router.nominate.empty"),
        "router.nominate.useful_ratio": ratio(
            nominate - per_batch("router.nominate.empty"), nominate
        ),
        "router.nominate.self_s": self_s("router.nominate"),
        "routing.calls": calls("routing"),
        "routing.self_s": self_s("routing"),
        "router.resolve.calls": calls("router.resolve"),
        "router.resolve.self_s": self_s("router.resolve"),
        "router.dispatches": per_batch("router.dispatches"),
        "router.resolve.grants_per_call": ratio(
            per_batch("router.dispatches"), calls("router.resolve")
        ),
        "core.arbitrate.calls": calls("core.arbitrate"),
        "core.arbitrate.self_s": self_s("core.arbitrate"),
        "core.grants_per_call": ratio(
            per_batch("core.grants"), calls("core.arbitrate")
        ),
        "core.mcm.self_s": self_s("core.mcm"),
        "standalone.trials": per_batch("standalone.trials"),
        "standalone.self_s": self_s("standalone"),
        "kernels.calls": calls("kernels"),
        "kernels.self_s": self_s("kernels"),
        "coherence.calls": calls("coherence"),
        "coherence.self_s": self_s("coherence"),
        "parallel.parent_cpu_s": parent_cpu,
        "parallel.worker_cpu_s": worker_cpu,
        "parallel.busy_fraction": ratio(worker_cpu, pool_workers * untraced_wall),
        "checkpoint.appends": calls("checkpoint"),
        "checkpoint.self_s": self_s("checkpoint"),
        "other.self_s": self_s("other"),
        "trace.wall_s": wall,
        "trace.overhead_fraction": ratio(wall, untraced_wall) - 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--canary", type=int, choices=(0, 1), default=0,
                        help="also run the pinned default-seed canary")
    args = parser.parse_args(argv)
    probe = SpeedProbe().start()
    try:
        out = run_phase(args, probe)
    finally:
        probe.stop()
    print(json.dumps(out))
    return 0


def run_phase(args, probe: SpeedProbe) -> dict:
    workload = workloads.make(args.workload, SCRATCH)
    state = workload.setup(args.seed)
    ready = time.perf_counter()
    out: dict = {
        "setup_s": probe.reference_seconds(STARTED, ready),
        "setup_raw_s": ready - STARTED,
    }
    if args.phase == "setup":
        return out

    pins = digests.load_pins().get(args.workload, {})
    checker = Checker(pins.get(str(args.seed)))
    points: list[tuple[str, float, float, float]] = []

    def on_point(key, began, ended, weight=1):
        points.append((key, began, ended, weight))

    window_start = time.perf_counter()
    if args.phase == "measure":
        windows, results, out["peak_rss_mb"] = _batches(
            workload, state, args.seconds, window_start, checker, on_point
        )
        out["batch_walls"] = [probe.reference_seconds(*w) for w in windows]
        out["batch_walls_raw"] = [ended - began for began, ended in windows]
        out["point_times"] = {}
        for key, began, ended, weight in points:
            out["point_times"].setdefault(key, []).append(
                weight * probe.reference_seconds(began, ended)
            )
        out["results"] = {
            key: [checker.digests.get(key), workload.describe(result)]
            for key, result in results.items()
            if result is not None
        }
    else:
        # CPU over the untraced batch: the wrappers would add their own
        # cost to the process's CPU, and the probe threads' is removed.
        cpu_before, probe_before = _cpu(), probe.cpu_seconds()
        checker.check(workload.batch(state, on_point))
        cpu_after, probe_after = _cpu(), probe.cpu_seconds()
        traced_start = time.perf_counter()
        untraced_wall = probe.reference_seconds(window_start, traced_start)
        untraced_scale = untraced_wall / (traced_start - window_start)
        probe_cpu = probe_after - probe_before
        cpu = (
            untraced_scale * (cpu_after[0] - cpu_before[0] - probe_cpu),
            untraced_scale * (cpu_after[1] - cpu_before[1]),
        )
        out["probe_cpu_s"] = untraced_scale * probe_cpu
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            traced = 0
            while True:
                began = time.perf_counter()
                with tracer.span("other"):
                    results = workload.batch(state, on_point)
                traced += 1
                checker.check(results)
                ended = time.perf_counter()
                if ended - window_start + (ended - began) > args.seconds:
                    break
        finally:
            patches.restore()
        out["layers"] = _layer_metrics(
            tracer, traced, untraced_wall, cpu, workload.pool_workers,
            probe.reference_seconds(traced_start, ended) / (ended - traced_start),
        )

    out["attempted"] = checker.attempted
    out["failures"] = checker.failures
    out["pinned"] = checker.pinned
    if args.canary:
        canary = Checker(pins.get(str(workloads.DEFAULT_SEED)))
        if not canary.pinned:
            canary.failures.append("no pinned digests for the default seed")
        canary.check(workload.canary(), complete=False)
        out["attempted"] += canary.attempted
        out["failures"] += [f"canary {f}" for f in canary.failures]
    return out


if __name__ == "__main__":
    sys.exit(main())
