"""Print set-up-only samples of the benchmark workloads, with the minor page
faults of the host-speed burst that follows set-up.

The benchmark scales each set-up time by a burst of reference work run right
after it (``hostspeed.burst()``). How many fresh pages that burst touches
depends on where set-up left the heap, and it moves the scaled time, so
this tool shows the faults beside each sample.

Run from the root of a checkout:

    python3 tools/setup_samples.py [WORKLOAD ...]

For each workload (default: every benchmark workload) it runs 12 set-up-only
child processes one after another, as ``benchmark/run.py`` runs
``simrun.py`` with ``run: false``: from the checkout root, with its
environment (one thread, this checkout's ``src``), on the workload's
reference scenario, the ``clutter`` world written under ``.bench_out``. The
child repeats ``simrun.py``'s set-up steps and also reads its minor faults
(``getrusage`` ``ru_minflt``) around the burst. Each sample prints its raw
and scaled ``setup_s`` and the burst's faults; the last line of a workload
gives their medians.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SAMPLES = 12

#: the set-up of ``simrun.py``, up to and including the burst; the clock and
#: the imports before it are the same, and only the standard library is
#: imported before the clock starts
CHILD = """
import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["benchmark"])
t0 = time.perf_counter()
import semteam
from semteam.config import ScenarioConfig
from semteam.engine import Simulation

cfg = ScenarioConfig.from_dict(spec["config"])
sim = Simulation(cfg)
t1 = time.perf_counter()

from pathlib import Path

if Path(semteam.__file__).resolve().parent.parent != Path(spec["src"]).resolve():
    sys.exit(f"semteam imported from {semteam.__file__}, not from {spec['src']}")
import resource

import hostspeed

faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ref_ns = hostspeed.burst()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"setup_s": t1 - t0, "setup_ref_ns": ref_ns, "burst_minflt": faults}))
"""


def sample(cfg: dict, env: dict) -> dict:
    """One set-up-only child's raw and scaled ``setup_s`` and burst faults."""
    spec = {"config": cfg, "src": str(ROOT / "src"), "benchmark": str(BENCH)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(spec)], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(done.stdout.splitlines()[-1])
    out["scaled_s"] = hostspeed.scaled_setup_s(out["setup_s"], out["setup_ref_ns"])
    return out


def main(names: list[str]) -> int:
    unknown = set(names) - set(workloads.NAMES)
    if unknown:
        print(f"unknown workload(s) {sorted(unknown)}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    env = run.Child(ROOT, ROOT / "src", deadline=0.0).env
    seed = workloads.REFERENCE_SEED
    for name in names or workloads.NAMES:
        world = None
        if name == "clutter":
            world = workloads.write_clutter_world(seed, ROOT / ".bench_out" / "worlds").relative_to(ROOT).as_posix()
        cfg = workloads.config(name, seed, world)
        rows = []
        for k in range(SAMPLES):
            rows.append(sample(cfg, env))
            r = rows[-1]
            print(
                f"{name} {k + 1:2d}  raw {r['setup_s']:.3f} s  scaled {r['scaled_s']:.3f} s  "
                f"burst minflt {r['burst_minflt']}",
                flush=True,
            )
        med = {key: statistics.median(r[key] for r in rows) for key in ("setup_s", "scaled_s", "burst_minflt")}
        print(
            f"{name} median  raw {med['setup_s']:.3f} s  scaled {med['scaled_s']:.3f} s  "
            f"burst minflt {med['burst_minflt']:g}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
