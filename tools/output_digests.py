"""Print the sha256 of each output file of five reference runs.

A change meant to keep outcomes should leave every digest this prints as it
was. The runs are seed 0 of the benchmark's ``team2``, ``team6`` and
``clutter`` workloads, and two 3-robot variants where gossip partitions the
team: ``clutter`` at ``comm_range`` 8, and the standard world at
``comm_range`` 15 capped at 3000 ticks.

Run from the root of a checkout (takes about 14 s on a 2-vCPU host):

    python3 tools/output_digests.py [NAME ...]

Each line is ``name file sha256``. The configs come from
``benchmark/workloads.py``. After printing, the tool compares every line it
printed with ``tools/reference_digests.txt``, names each digest that differs
from it, and exits 1 if any does. A change that moves outputs on purpose
re-pins that file with this tool's output and says why.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402
from semteam.config import ScenarioConfig  # noqa: E402
from semteam.engine import Simulation  # noqa: E402

FILES = ("events.jsonl", "poses.csv", "metrics.csv", "map_final.bin")
REFERENCE = Path(__file__).resolve().with_name("reference_digests.txt")


def configs(world_dir: Path) -> dict[str, dict]:
    seed = workloads.REFERENCE_SEED
    clutter = workloads.config("clutter", seed, str(workloads.write_clutter_world(seed, world_dir)))
    return {
        "team2": workloads.config("team2", seed),
        "team6": workloads.config("team6", seed),
        "clutter": clutter,
        "clutter3_c8": {**clutter, "n_ground": 3, "comm_range": 8.0},
        "std3_c15": {"seed": seed, "n_ground": 3, "comm_range": 15.0, "max_ticks": 3000},
    }


def main(names: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        all_cfgs = configs(Path(tmp))
        unknown = set(names) - set(all_cfgs)
        if unknown:
            print(f"unknown run(s) {sorted(unknown)}; choose from {', '.join(all_cfgs)}", file=sys.stderr)
            return 2
        printed = []
        for name in names or all_cfgs:
            out = Path(tmp) / name
            Simulation(ScenarioConfig.from_dict(all_cfgs[name])).run(out)
            for f in FILES:
                printed.append(f"{name} {f} {hashlib.sha256((out / f).read_bytes()).hexdigest()}")
                print(printed[-1], flush=True)
    bad = differing(printed, REFERENCE.read_text())
    for line in bad:
        print("DIFFERS from reference:", line)
    if not bad:
        print(f"all {len(printed)} digests match {REFERENCE.name}")
    return 1 if bad else 0


def differing(printed: list[str], reference: str) -> list[str]:
    """The printed ``name file sha256`` lines that are not lines of the
    reference text: a changed digest, or a name and file it lacks."""
    pinned = set(reference.splitlines())
    return [line for line in printed if line not in pinned]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
