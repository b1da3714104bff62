"""Print the minor page faults and time of seed-0 runs, in all and per layer.

A call that allocates a large temporary gets fresh pages from the kernel
whenever the allocator hands its memory back between calls, and each page
costs a minor fault. This tool counts them (``getrusage`` ``ru_minflt``)
around a whole run and around every call of a few hot functions, which it
wraps at the module attributes their callers look them up by. Each
workload runs in a fresh process, so one run's heap does not warm the next.

Run from the root of a checkout (takes about a minute):

    python3 tools/page_faults.py [WORKLOAD ...]

For each workload (default: every benchmark workload at seed 0) it prints a
``total`` line and one line per wrapped function: calls, minor faults and
seconds. A function's counts include those of anything it calls.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402

#: (module, attribute) pairs wrapped in the child, by the names callers use
WRAPPED = (
    ("localize", "match_costs"),
    ("planner", "update_roadmap"),
    ("planner", "plan"),
    ("engine", "ground_scan"),
    ("tracker", "step"),
)


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def child(name: str) -> None:
    """Run one workload at the reference seed and print its counts as JSON."""
    import importlib

    from semteam.config import ScenarioConfig
    from semteam.engine import Simulation

    counts: dict[str, list] = {}

    def wrap(module, attr):
        fn = getattr(module, attr)
        row = counts[f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"] = [0, 0, 0.0]

        def wrapper(*args, **kwargs):
            f0, t0 = minflt(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[0] += 1
                row[1] += minflt() - f0
                row[2] += time.perf_counter() - t0

        setattr(module, attr, wrapper)

    for mod, attr in WRAPPED:
        wrap(importlib.import_module(f"semteam.{mod}"), attr)
    with tempfile.TemporaryDirectory() as tmp:
        seed = workloads.REFERENCE_SEED
        world = str(workloads.write_clutter_world(seed, Path(tmp))) if name == "clutter" else None
        cfg = ScenarioConfig.from_dict(workloads.config(name, seed, world))
        f0, t0 = minflt(), time.perf_counter()
        Simulation(cfg).run(Path(tmp) / "out")
        counts["total"] = [1, minflt() - f0, time.perf_counter() - t0]
    print(json.dumps(counts))


def main(names: list[str]) -> int:
    unknown = set(names) - set(workloads.NAMES)
    if unknown:
        print(f"unknown workload(s) {sorted(unknown)}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    for name in names or workloads.NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--child", name], capture_output=True, text=True, check=True
        )
        counts = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}:")
        for key in ["total"] + [k for k in counts if k != "total"]:
            calls, faults, secs = counts[key]
            print(f"  {key:22s} calls {calls:6d}  minflt {faults:8d}  {secs:7.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
