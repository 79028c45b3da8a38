"""Write ``pins.json``: the digest of every point for the pinned seeds.

Usage (from the repository root)::

    python3 perfbench/pin.py [workload ...]

Re-pin only when a change is meant to alter simulated results; a
change that only speeds the program up must leave every digest as it
is.  The pinned seeds are the default seed and one held-out seed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import digests  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    pins = digests.load_pins()
    for name in argv or workloads.NAMES:
        workload = workloads.make(name, HERE.parent / ".perfbench_work")
        pins[name] = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            results = workload.batch(workload.setup(seed), lambda *point: None)
            failed = [key for key, result in results.items() if result is None]
            if failed:
                print(f"{name} seed {seed}: points raised: {failed}")
                return 1
            pins[name][str(seed)] = {
                key: digests.digest(result) for key, result in results.items()
            }
            for key, result in results.items():
                print(f"{name} seed={seed} {key}: {workload.describe(result)}")
    digests.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
