"""The benchmark's workloads: inputs from a seed, one batch of points each.

A workload builds its inputs from the benchmark seed in :meth:`setup`
and then runs the same fixed batch of points as often as the time
budget allows.  Each point's simulated result comes back as a
canonical dict (see :mod:`digests`); ``None`` marks a point that
raised.  The program sees only the generated configs.

The points use shortened simulation windows: they probe host time on
the paper's configurations and are not figure-quality data.  The
model has no hardware reference in this repository, so no accuracy
error is claimed for any of them.
"""

from __future__ import annotations

import shutil
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import digests

DEFAULT_SEED = 0
HELD_OUT_SEED = 1

#: Figure 10's 8x8 uniform panel at one pre- and one beyond-saturation
#: rate.  The warm-up is long enough for both rates to leave the fill
#: transient.  After 100 cycles (SPAA-base, seed 0) the network
#: delivered 0.05 flits/router/ns at rate 0.01 and 0.28 at 0.065.
#: After 500 it delivers 0.25, within 6% of a 1500 + 1000-cycle run,
#: and 0.47, past the peak of the saturated network, which a
#: 1500 + 500-cycle run shows settling to 0.41.
TIMING_RATES = (0.01, 0.065)
TIMING_CYCLES = (500, 200)
#: algorithms run at the beyond-saturation rate.  A saturated point
#: costs about seven light ones, so only SPAA-base, the paper's
#: algorithm and the ROADMAP's profile point, runs there; all five run
#: below it.
SATURATED_ALGORITHMS = ("SPAA-base",)
#: Each timing point has its own simulation seed, and the light rate
#: runs every algorithm at LIGHT_REPLICAS seeds.  Over a 200-cycle
#: window the seed moves a light point's delivered traffic, and with it
#: the point's host time, by up to 17%.  With one seed for all points
#: that moved point_s_p50 by 13% (interquartile range over median,
#: eight benchmark seeds), with a seed per point by 3-8%.
LIGHT_REPLICAS = 2
#: trials per standalone point (the paper uses 1000).
STANDALONE_TRIALS = 300
#: light 4x4 load: short points, so pool, journal and supervision
#: overheads are a large share of the time.
SWEEP_RATES = (0.002, 0.005, 0.01, 0.02)
SWEEP_CYCLES = (200, 400)
SWEEP_WORKERS = 2
#: sweeps per batch, each with its own simulation seed.  All points of
#: one sweep share a seed, and at these loads the seed alone moved a
#: sweep's delivered packets by 14% (interquartile range over median,
#: twelve seeds); averaging six seeds keeps that out of the host time.
SWEEP_REPLICAS = 6


def _timed(key, run, on_point, results) -> None:
    began = time.perf_counter()
    try:
        results[key] = run()
    except Exception:
        traceback.print_exc()
        results[key] = None
    on_point(key, began, time.perf_counter())


class TimingWorkload:
    """Serial, unguarded, null-telemetry timing-model points."""

    name = "timing-8x8"
    pool_workers = 0

    def inputs(self, seed: int) -> list:
        """(key, config) per point; of *n* points, point *i* has seed n*seed + i."""
        from repro.core.registry import TIMING_ALGORITHMS
        from repro.experiments.figure10 import PANELS, panel_config

        panel = next(p for p in PANELS if p.name == "8x8, Random Traffic")
        warmup, measure = TIMING_CYCLES
        light, saturated = TIMING_RATES
        points = [
            (light, a, r) for r in range(LIGHT_REPLICAS) for a in TIMING_ALGORITHMS
        ] + [(saturated, a, 0) for a in SATURATED_ALGORITHMS]
        return [
            (
                f"{algorithm}@{rate!r}:{replica}",
                replace(
                    panel_config(panel, seed=len(points) * seed + i),
                    warmup_cycles=warmup,
                    measure_cycles=measure,
                ).with_algorithm(algorithm).with_rate(rate),
            )
            for i, (rate, algorithm, replica) in enumerate(points)
        ]

    def setup(self, seed: int):
        from repro.sim.timing_model import NetworkSimulator

        points = self.inputs(seed)
        NetworkSimulator(points[0][1])  # model construction, discarded
        return points

    def batch(self, points, on_point) -> dict:
        from repro.sim.timing_model import NetworkSimulator

        def run(config):
            simulator = NetworkSimulator(config)
            point = simulator.bnf_point()
            return digests.timing_point(simulator.stats, point)

        results: dict = {}
        for key, config in points:
            _timed(key, lambda: run(config), on_point, results)
        return results

    def canary(self) -> dict:
        points = [p for p in self.inputs(DEFAULT_SEED) if p[0] == "SPAA-base@0.01:0"]
        return self.batch(points, lambda *point: None)

    @staticmethod
    def describe(result: dict) -> str:
        bnf = result["bnf"]
        return (
            f"thr={bnf['throughput']:.4f} flits/router/ns "
            f"lat={bnf['latency_ns']:.2f} ns"
        )


class StandaloneWorkload:
    """Figure 8 load points and Figure 9 occupancy points, both backends."""

    name = "standalone-figs"
    pool_workers = 0

    def inputs(self, seed: int):
        from repro.sim.standalone import StandaloneConfig

        return StandaloneConfig(trials=STANDALONE_TRIALS, seed=seed)

    def setup(self, seed: int):
        from repro import kernels
        from repro.core.registry import STANDALONE_ALGORITHMS
        from repro.sim.standalone import StandaloneRouterModel

        base = self.inputs(seed)
        warm = replace(base, trials=8)
        for algorithm in STANDALONE_ALGORITHMS:
            config = replace(warm, algorithm=algorithm)
            StandaloneRouterModel(config)
            if kernels.supports(config)[0]:
                # numpy warm-up: first calls of the kernel code paths.
                StandaloneRouterModel(config, backend="vectorized").run()
        return base

    def batch(self, base, on_point, algorithms=None) -> dict:
        from repro import kernels
        from repro.core.registry import STANDALONE_ALGORITHMS
        from repro.experiments.figure8 import DEFAULT_FRACTIONS
        from repro.experiments.figure9 import DEFAULT_OCCUPANCIES
        from repro.sim.standalone import (
            StandaloneRouterModel,
            find_mcm_saturation_load,
        )

        results: dict = {}
        _timed(
            "fig8:mcm-saturation",
            lambda: {"saturation_load": find_mcm_saturation_load(base)},
            on_point,
            results,
        )
        if results["fig8:mcm-saturation"] is None:
            return results
        saturation = results["fig8:mcm-saturation"]["saturation_load"]
        for algorithm in algorithms or STANDALONE_ALGORITHMS:
            configs = [
                (f"fig8:{algorithm}:x{fraction!r}",
                 replace(base, algorithm=algorithm,
                         load=max(1, round(fraction * saturation))))
                for fraction in DEFAULT_FRACTIONS
            ] + [
                (f"fig9:{algorithm}:occ{occupancy!r}",
                 replace(base, algorithm=algorithm, load=saturation,
                         occupancy=occupancy))
                for occupancy in DEFAULT_OCCUPANCIES
            ]
            for key, config in configs:
                for backend in ("object", "vectorized"):
                    if backend == "vectorized" and not kernels.supports(config)[0]:
                        continue
                    _timed(
                        f"{key}:{backend}",
                        lambda: digests.standalone_point(
                            StandaloneRouterModel(config, backend=backend).run()
                        ),
                        on_point,
                        results,
                    )
        return results

    def canary(self) -> dict:
        return self.batch(
            self.inputs(DEFAULT_SEED), lambda *point: None, ("WFA",)
        )

    @staticmethod
    def describe(result: dict) -> str:
        if "saturation_load" in result:
            return f"MCM saturation load={result['saturation_load']} packets"
        return f"matches/cycle={result['matches']['mean']:.4f}"


class SweepWorkload:
    """Guarded, supervised 2-worker sweeps of short 4x4 points."""

    name = "sweep-2w-guarded"
    pool_workers = SWEEP_WORKERS

    def __init__(self, scratch: Path) -> None:
        #: journals live here (inside the checkout), removed after use.
        self.scratch = scratch

    def inputs(self, seed: int) -> list:
        """One base config per sweep, with distinct simulation seeds."""
        from repro.experiments.figure10 import PANELS, panel_config

        panel = next(p for p in PANELS if p.name == "4x4, Random Traffic")
        warmup, measure = SWEEP_CYCLES
        return [
            replace(
                panel_config(panel, seed=SWEEP_REPLICAS * seed + replica),
                warmup_cycles=warmup,
                measure_cycles=measure,
            )
            for replica in range(SWEEP_REPLICAS)
        ]

    def setup(self, seed: int):
        from repro.core.registry import TIMING_ALGORITHMS

        bases = self.inputs(seed)
        # Worker spawn: one tiny guarded sweep through the same path.
        warm = replace(bases[0], warmup_cycles=20, measure_cycles=40)
        self._sweep(warm, TIMING_ALGORITHMS[:1], SWEEP_RATES[:SWEEP_WORKERS])
        return bases

    def _sweep(self, base, algorithms, rates) -> dict:
        from repro.resilience import (
            InvariantConfig,
            SupervisorConfig,
            SweepJournal,
            WatchdogConfig,
        )
        from repro.sim.sweep import sweep_algorithms

        self.scratch.mkdir(parents=True, exist_ok=True)
        directory = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            journal = SweepJournal(directory / "sweep.journal.jsonl")
            curves = sweep_algorithms(
                base,
                algorithms,
                rates,
                workers=SWEEP_WORKERS,
                journal=journal,
                invariants=InvariantConfig(check_interval_cycles=250.0),
                watchdog=WatchdogConfig(action="raise"),
                supervisor=SupervisorConfig(
                    point_timeout_s=120.0, heartbeat_stale_s=60.0
                ),
            )
            journal.load()
            journalled = journal.completed_count()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        results = {
            f"{algorithm}@{point.offered_rate!r}": digests.bnf_point(point)
            for algorithm, curve in curves.items()
            for point in curve.points
        }
        if journalled != len(algorithms) * len(rates):
            raise RuntimeError(
                f"journal holds {journalled} completed points, "
                f"expected {len(algorithms) * len(rates)}"
            )
        return results

    def batch(self, bases, on_point, algorithms=None, rates=SWEEP_RATES) -> dict:
        from repro.core.registry import TIMING_ALGORITHMS

        algorithms = algorithms or TIMING_ALGORITHMS
        results: dict = {}
        for replica, base in enumerate(bases):
            prefix = f"s{replica}:"
            began = time.perf_counter()
            try:
                points = self._sweep(base, algorithms, rates)
            except Exception:
                traceback.print_exc()
                results.update(
                    (f"{prefix}{a}@{r!r}", None) for a in algorithms for r in rates
                )
                continue
            # Pooled points overlap and the parent cannot see when each
            # one starts: a point's host time is the sweep's
            # worker-seconds divided evenly, one sample per sweep.
            on_point(
                prefix + "*", began, time.perf_counter(),
                SWEEP_WORKERS / len(points),
            )
            results.update((prefix + key, value) for key, value in points.items())
        return results

    def canary(self) -> dict:
        return self.batch(
            self.inputs(DEFAULT_SEED)[:1],
            lambda *point: None,
            ("SPAA-base",),
            SWEEP_RATES[:SWEEP_WORKERS],
        )

    @staticmethod
    def describe(result: dict) -> str:
        return (
            f"thr={result['throughput']:.4f} flits/router/ns "
            f"lat={result['latency_ns']:.2f} ns"
        )


def make(name: str, scratch: Path):
    """The workload called *name*."""
    if name == TimingWorkload.name:
        return TimingWorkload()
    if name == StandaloneWorkload.name:
        return StandaloneWorkload()
    if name == SweepWorkload.name:
        return SweepWorkload(scratch)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (TimingWorkload.name, StandaloneWorkload.name, SweepWorkload.name)
