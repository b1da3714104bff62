"""Print the sha256 of each output file of five reference runs.

A change meant to keep outcomes should leave every digest this prints as it
was. The runs are seed 0 of the benchmark's ``team2``, ``team6`` and
``clutter`` workloads, and two 3-robot variants where gossip partitions the
team: ``clutter`` at ``comm_range`` 8, and the standard world at
``comm_range`` 15 capped at 3000 ticks.

Run from the root of a checkout (takes about a minute):

    python3 tools/output_digests.py [NAME ...]

Each line is ``name file sha256``. The configs come from
``benchmark/workloads.py``.
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
        for name in names or all_cfgs:
            out = Path(tmp) / name
            Simulation(ScenarioConfig.from_dict(all_cfgs[name])).run(out)
            for f in FILES:
                print(name, f, hashlib.sha256((out / f).read_bytes()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
