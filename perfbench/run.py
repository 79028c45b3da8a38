"""The repository benchmark: host time of the simulators, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload timing-8x8 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  Two fresh processes only
set the workload up; three more share ``--seconds``, each setting up and
then running the workload's fixed batch of points as often as its share
allows.  ``setup_s`` is the median of the five set-ups, ``wall_s`` the
median over all batches, ``point_s_p50`` the median over points of each
point's median repeat, and ``peak_rss_mb`` the median of the measuring
processes' peaks.
``--trace 1`` is the separate traced run: every layer's entry points
are wrapped from outside and per-layer counts and self times are
reported instead.

Every point's simulated result is checked against a pinned sha256
digest (``pins.json``) or, for seeds without pins, against its repeats
in the run plus a pinned default-seed canary.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh processes that share a run's --seconds.  Their batches are
#: pooled, so one process's memory layout cannot set the median.
MEASURE_PROCESSES = 3
#: extra fresh-process set-ups per measured run; setup_s is the median
#: of these and the measuring processes' own set-ups.
SETUP_PROBES = 2
#: the whole run, all processes included, ends within this many seconds.
DEADLINE_S = 170.0
STARTED = time.monotonic()


class BenchmarkError(RuntimeError):
    pass


def fingerprint() -> dict:
    """The program's machine fingerprint, plus numpy and usable CPUs."""
    from repro.obs.perf import git_sha, machine_fingerprint

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    # Only the checkout's own SHA, never that of a repository around it.
    sha = git_sha(ROOT) if (ROOT / ".git").exists() else None
    return {
        **machine_fingerprint(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
        "git_sha": sha or "unknown (not a git checkout)",
    }


def run_child(
    workload: str, seed: int, seconds: float, phase: str, canary: bool = False
) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--phase", phase,
        "--canary", str(int(canary)),
    ]
    remaining = DEADLINE_S - (time.monotonic() - STARTED)
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{phase} process timed out") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{phase} process exited with code {done.returncode}"
        )
    return json.loads(lines[-1])


def report_points(child: dict, seed: int) -> None:
    check = (
        "pinned digests" if child["pinned"]
        else "repeats across batches and processes, and the pinned canary"
    )
    print(f"simulated results (seed {seed}; checked against {check}):")
    for key, (digest, described) in child["results"].items():
        print(f"  {key:<32} sha256={digest[:16]}  {described}")
    print(
        "  accuracy: the models have no hardware reference in this "
        "repository, so no accuracy error is claimed."
    )


def report_layers(child: dict) -> None:
    layers = child["layers"]
    parent_cpu = layers["parallel.parent_cpu_s"]
    print(f"speed probe: {child['probe_cpu_s']:.4f} s CPU in the untraced "
          f"batch, left out of parallel.parent_cpu_s ({parent_cpu:.4f} s; "
          f"{child['probe_cpu_s'] / (parent_cpu + child['probe_cpu_s']):.1%} "
          "of the process's CPU)")
    wall = layers["trace.wall_s"]
    print(f"layer self time per traced batch (wall {wall:.3f} s):")
    for name, value in layers.items():
        if name.endswith(".self_s") and value:
            print(f"  {name:<28} {value:9.4f} s  {value / wall:6.1%}")


def measure(args) -> tuple[dict, dict]:
    """(metrics, outcome) of one run; the outcome holds the check counts."""
    if args.trace:
        child = run_child(
            args.workload, args.seed, args.seconds, "trace", canary=True
        )
        report_layers(child)
        return child["layers"], child
    setups = [
        run_child(args.workload, args.seed, args.seconds, "setup")
        for _ in range(SETUP_PROBES)
    ]
    share = args.seconds / MEASURE_PROCESSES
    children = [
        run_child(args.workload, args.seed, share, "measure", canary=(i == 0))
        for i in range(MEASURE_PROCESSES)
    ]
    setups += children
    outcome = {
        "attempted": sum(c["attempted"] for c in children),
        "failures": [f for c in children for f in c["failures"]],
    }
    if not children[0]["pinned"]:
        # Without pins, each process checked only its own repeats.
        first = children[0]["results"]
        for other in children[1:]:
            for key, (digest, _) in other["results"].items():
                if first.get(key, [None])[0] != digest:
                    outcome["failures"].append(f"{key}: differs between processes")
    report_points(children[0], args.seed)
    walls = [w for c in children for w in c["batch_walls"]]
    # Each point's median over its repeats, so that the median over
    # points does not fall on one repeat of a point at a gap between
    # cheap and costly points.
    repeats: dict[str, list[float]] = {}
    for c in children:
        for key, times in c["point_times"].items():
            repeats.setdefault(key, []).extend(times)
    points = [statistics.median(times) for times in repeats.values()]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(walls),
        "point_s_p50": statistics.median(points),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    raw_setup = statistics.median(s["setup_raw_s"] for s in setups)
    raw_wall = statistics.median(
        w for c in children for w in c["batch_walls_raw"]
    )
    print("host seconds are scaled to the reference speed (see speed.py); "
          "raw host seconds in brackets")
    print(f"setup_s      = {metrics['setup_s']:.4f} s [{raw_setup:.4f}] "
          f"(median of {len(setups)} set-ups)")
    print(f"wall_s       = {metrics['wall_s']:.4f} s [{raw_wall:.4f}] "
          f"(median of {len(walls)} batches in {len(children)} processes)")
    print(f"point_s_p50  = {metrics['point_s_p50']:.4f} s (median of "
          f"{len(points)} points' medians over "
          f"{sum(map(len, repeats.values()))} samples)")
    print(f"peak_rss_mb  = {metrics['peak_rss_mb']:.1f} MB "
          f"(median of {len(children)} processes)")
    return metrics, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # BENCHMARK.json names the metrics to report and why each workload exists.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"fingerprint: {json.dumps(fingerprint(), sort_keys=True)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"why: {why[args.workload]}")
    try:
        metrics, outcome = measure(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        # Each process removes its own journals; leave the directory
        # only if another benchmark is still using it.
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    failures = outcome["failures"]
    for failure in failures:
        print(f"FAILED {failure}")
    attempted = outcome["attempted"]
    print(f"failed_fraction = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
