"""Print the mission outcome of every row of the outcome table, and compare
each with ``tools/reference_outcomes.txt``.

The rows are seeds 0-15 of the standard world with 2 ground robots, and
seed 0 with 6 robots, each capped at 8000 ticks. Ticks are exact, so rows
run in parallel on ``JOBS`` processes, one per CPU, without changing one.

Run from the root of a checkout (takes about 22 s on a 2-vCPU host):

    python3 tools/outcomes.py [--events DIR [--against DIR [--skip EV ...]]]

Each row prints as ``name done=… targets=…/… false=… ticks=… dist=…
loc_err_late=…``. A false visit is a ``visited`` event whose robot's true
pose lies more than ``engine.VISIT_RADIUS`` from every member cell and goal
cell of every true target. After printing, the tool names every row that is
worse than its reference line, and exits 1 if any is (see ``worse``). A row
that got better is reported and does not fail. A change that moves outcomes
re-pins the reference with this tool's output and says why.

``--events DIR`` keeps each row's ``events.jsonl`` as ``DIR/<row>.jsonl``.
``--against DIR`` reads the files another checkout wrote so, and prints for
each row the first event at which the two logs part. ``--skip EV`` leaves
events of kind ``EV`` out of both logs first, such as the ``map_ingested``
events whose node counts a planner change moves by design.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from semteam.config import ScenarioConfig  # noqa: E402
from semteam.engine import VISIT_RADIUS, Simulation  # noqa: E402

REFERENCE = Path(__file__).resolve().with_name("reference_outcomes.txt")
MAX_TICKS = 8000
JOBS = 2

#: name -> scenario config overrides
ROWS = {f"seed{seed}": {"seed": seed, "max_ticks": MAX_TICKS} for seed in range(16)}
ROWS["seed0_r6"] = {"seed": 0, "n_ground": 6, "max_ticks": MAX_TICKS}

#: a row is worse if it takes more than this share of extra ticks ...
TICKS_TOLERANCE = 0.10
#: ... or its late localization error rises by more than this many meters
LOC_ERR_TOLERANCE = 0.10


class CountingSimulation(Simulation):
    """A simulation that counts false visits by distance to the true targets."""

    false_visits = 0

    def _check_true_visit(self, ev: dict, agent) -> None:
        x, y, _ = agent.true_pose
        truth = self.world.truth
        res, ox, oy = truth.resolution, truth.origin_x, truth.origin_y
        spots = [
            spot
            for target in self.true_targets
            for spot in [*target.member_cells, *([target.goal_cell] if target.goal_cell is not None else [])]
        ]
        if all(math.hypot((cx + 0.5) * res + ox - x, (cy + 0.5) * res + oy - y) > VISIT_RADIUS for cx, cy in spots):
            self.false_visits += 1
        super()._check_true_visit(ev, agent)


def run_row(name: str, events_dir: str | None = None) -> dict:
    """Run one row and return its outcome, as ``parse`` reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        sim = CountingSimulation(ScenarioConfig.from_dict(ROWS[name]))
        report = sim.run(tmp)
        if events_dir is not None:
            (Path(events_dir) / f"{name}.jsonl").write_bytes((Path(tmp) / "events.jsonl").read_bytes())
    return {
        "name": name,
        "done": int(report.duration_s is not None),
        "targets": (report.targets_visited, report.n_targets),
        "false": sim.false_visits,
        "ticks": report.ticks,
        "dist": round(report.total_distance_m, 1),
        "loc_err_late": round(report.loc_err_late_mean, 3),
    }


def format_row(row: dict) -> str:
    visited, total = row["targets"]
    return (
        f"{row['name']} done={row['done']} targets={visited}/{total} false={row['false']} "
        f"ticks={row['ticks']} dist={row['dist']} loc_err_late={row['loc_err_late']}"
    )


def parse(text: str) -> dict[str, dict]:
    """Rows by name from lines that ``format_row`` printed."""
    rows = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        name, *fields = line.split()
        values = dict(field.split("=", 1) for field in fields)
        visited, total = values["targets"].split("/")
        rows[name] = {
            "name": name,
            "done": int(values["done"]),
            "targets": (int(visited), int(total)),
            "false": int(values["false"]),
            "ticks": int(values["ticks"]),
            "dist": float(values["dist"]),
            "loc_err_late": float(values["loc_err_late"]),
        }
    return rows


def worse(row: dict, ref: dict) -> list[str]:
    """How ``row`` is worse than ``ref``: completion lost, a target lost, a
    false visit gained, more than ``TICKS_TOLERANCE`` extra ticks, or a late
    localization error more than ``LOC_ERR_TOLERANCE`` higher. A row that
    does not complete always reads the tick cap, so only its targets show
    that it got worse."""
    why = []
    if ref["done"] and not row["done"]:
        why.append("lost completion")
    if row["targets"][0] < ref["targets"][0]:
        why.append(f"targets {ref['targets'][0]} -> {row['targets'][0]}")
    if row["false"] > ref["false"]:
        why.append(f"false visits {ref['false']} -> {row['false']}")
    if row["ticks"] > ref["ticks"] * (1 + TICKS_TOLERANCE):
        why.append(f"ticks {ref['ticks']} -> {row['ticks']}")
    if row["loc_err_late"] > ref["loc_err_late"] + LOC_ERR_TOLERANCE:
        why.append(f"loc_err_late {ref['loc_err_late']} -> {row['loc_err_late']}")
    return why


def compare(rows: list[dict], reference: dict[str, dict]) -> tuple[list[str], list[str]]:
    """Lines naming each worse row (or one the reference lacks), and lines
    naming each row that differs from its reference without being worse."""
    bad, moved = [], []
    for row in rows:
        ref = reference.get(row["name"])
        if ref is None:
            bad.append(f"{row['name']}: no reference line")
        elif why := worse(row, ref):
            bad.append(f"{row['name']}: " + "; ".join(why))
        elif row != ref:
            moved.append(f"{row['name']}: {format_row(ref)} -> {format_row(row)}")
    return bad, moved


def mean_ticks(rows: list[dict], reference: dict[str, dict]) -> tuple[float, float] | None:
    """Mean ticks of the rows that complete both here and in the reference,
    here and there."""
    both = [(row["ticks"], reference[row["name"]]["ticks"])
            for row in rows if row["done"] and reference.get(row["name"], {}).get("done")]
    if not both:
        return None
    return sum(t for t, _ in both) / len(both), sum(r for _, r in both) / len(both)


def first_divergence(ours: list[str], theirs: list[str]) -> str | None:
    """The first line at which two event logs part, on each side."""
    for i, (a, b) in enumerate(zip(ours, theirs)):
        if a != b:
            return f"line {i + 1}: here {a} | there {b}"
    if len(ours) == len(theirs):
        return None
    i = min(len(ours), len(theirs))
    here, there = (log[i] if i < len(log) else "end" for log in (ours, theirs))
    return f"line {i + 1}: here {here} | there {there}"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--events", help="keep each row's events.jsonl in this directory")
    ap.add_argument("--against", help="print where each row's events part from those in this directory")
    ap.add_argument("--skip", action="append", default=[], metavar="EV", help="event kind --against leaves out")
    args = ap.parse_args(argv)
    if args.against and not args.events:
        ap.error("--against compares the events that --events keeps")
    if args.events:
        Path(args.events).mkdir(parents=True, exist_ok=True)
    rows = []
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=multiprocessing.get_context("spawn")) as pool:
        for row in pool.map(run_row, ROWS, [args.events] * len(ROWS)):
            rows.append(row)
            print(format_row(row), flush=True)
    reference = parse(REFERENCE.read_text())
    bad, moved = compare(rows, reference)
    for line in moved:
        print("moved:", line)
    if args.against:
        for name in ROWS:
            ours, theirs = (
                [line for line in (Path(d) / f"{name}.jsonl").read_text().splitlines()
                 if json.loads(line)["ev"] not in args.skip]
                for d in (args.events, args.against)
            )
            print(f"parts {name}: {first_divergence(ours, theirs) or 'identical'}")
    means = mean_ticks(rows, reference)
    if means is not None:
        print(f"mean ticks over rows that complete in both: {means[0]:.1f} (reference {means[1]:.1f})")
    for line in bad:
        print("WORSE than reference:", line)
    if not bad:
        print(f"no row of {len(rows)} is worse than {REFERENCE.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
