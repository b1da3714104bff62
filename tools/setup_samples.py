"""Print set-up-only samples of the benchmark workloads, with each set-up
child's minor page faults.

The benchmark scales each set-up time by a burst of reference work run right
after it (``hostspeed.burst()``). How many fresh pages that burst touches
depends on where set-up left the heap, and it moves the scaled time, so
this tool shows the faults beside each sample.

Run from the root of a checkout:

    python3 tools/setup_samples.py [WORKLOAD ...]

For each workload (default: every benchmark workload) it runs 12 set-up-only
children one after another. Each is ``benchmark/simrun.py`` itself with
``run: false``, started as ``benchmark/run.py`` starts it (``run.Child``):
from the checkout root, with its environment (one thread, this checkout's
``src``), on the workload's reference scenario, the ``clutter`` world
written under ``.bench_out``. Each sample prints its raw and scaled
``setup_s`` and the child's minor faults over its whole life (``getrusage``
``RUSAGE_CHILDREN`` ``ru_minflt``, read around it); a burst that faults
shows as a jump of about 1400 of them. The last line of a workload gives
the medians.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SAMPLES = 12
TIMEOUT_S = 60.0  # per set-up child


def sample(cfg: dict) -> dict:
    """One set-up-only child's raw and scaled ``setup_s`` and minor faults."""
    child = run.Child(ROOT, ROOT / "src", deadline=time.monotonic() + TIMEOUT_S)
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = child(cfg, run=False)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if "error" in out:
        raise RuntimeError(f"set-up child failed: {out['error']}")
    return {
        "setup_s": out["setup_s"],
        "scaled_s": hostspeed.scaled_setup_s(out["setup_s"], out["setup_ref_ns"]),
        "minflt": minflt,
    }


def main(names: list[str]) -> int:
    unknown = set(names) - set(workloads.NAMES)
    if unknown:
        print(f"unknown workload(s) {sorted(unknown)}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    seed = workloads.REFERENCE_SEED
    for name in names or workloads.NAMES:
        world = None
        if name == "clutter":
            world = workloads.write_clutter_world(seed, ROOT / ".bench_out" / "worlds").relative_to(ROOT).as_posix()
        cfg = workloads.config(name, seed, world)
        rows = []
        for k in range(SAMPLES):
            rows.append(sample(cfg))
            r = rows[-1]
            print(
                f"{name} {k + 1:2d}  raw {r['setup_s']:.3f} s  scaled {r['scaled_s']:.3f} s  "
                f"minflt {r['minflt']}",
                flush=True,
            )
        med = {key: statistics.median(r[key] for r in rows) for key in ("setup_s", "scaled_s", "minflt")}
        print(
            f"{name} median  raw {med['setup_s']:.3f} s  scaled {med['scaled_s']:.3f} s  "
            f"minflt {med['minflt']:g}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
