"""Print the time per call of the ground team's hot kernels, on inputs
captured from a run.

The kernels are ``localize.match_costs``, ``localize.predict``,
``tracker._select_local_goal_ex``, the team's sensing pass: the engine's
``world.ground_scans`` call of each scan tick, with the binning of its scans
by ``PolarObservation.from_scans`` that follows it, and the team's grid
pass: the engine's ``tracker.integrate_scans`` call of each scan tick. The
tool runs the first
1200 ticks of the benchmark's ``team6`` workload at seed 0 and records the
arguments of every call of each kernel. It then replays each kernel's calls
in run order, 5 times, timing each call alone, and prints the calls per
repeat and the median over the repeats of the mean microseconds per call.

Each call is replayed in the state the run made it in. A particle set that
held its heading trig when the run passed it holds it again, computed
outside the timed call, and each robot's local grid holds the cells and
origin it held, on one grid object per robot, as in the run. A grid pass
takes fresh copies of the grids it was handed, each in the state the run
handed it over. ``predict`` draws its noise from a generator of its own,
which costs what the run's does. The truth's kept scans are cleared before
each sensing pass, so the pass casts and bins every robot's scan, parked
robots' included.

Run from the root of a checkout (takes about half a minute):

    python3 tools/kernel_times.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402
from semteam import engine, localize, tracker  # noqa: E402
from semteam.config import ScenarioConfig  # noqa: E402
from semteam.engine import Simulation  # noqa: E402

#: (module, attribute) of each kernel timed, by the names callers use
KERNELS = (
    ("localize", "match_costs"),
    ("localize", "predict"),
    ("tracker", "_select_local_goal_ex"),
    ("engine", "ground_scans"),
    ("tracker", "integrate_scans"),
)
TICKS = 1200
REPEATS = 5


def particles_state(p: localize.ParticleSet) -> tuple:
    """The arrays of a set, its rest mark and whether it held its trig."""
    return p.xs, p.ys, p.yaws, p.weights, p.at_rest, "cos" in vars(p)


def particles_of(state: tuple) -> localize.ParticleSet:
    xs, ys, yaws, weights, at_rest, trig = state
    p = localize.ParticleSet(xs, ys, yaws, weights)
    p.at_rest = at_rest
    if trig:
        p.cos, p.sin  # computed now and kept, outside the timed call
    return p


def capture() -> dict[str, list]:
    """Every call's arguments over the first TICKS ticks, per kernel."""
    calls: dict[str, list] = {attr: [] for _, attr in KERNELS}
    raw_match, raw_predict, raw_goal = localize.match_costs, localize.predict, tracker._select_local_goal_ex
    raw_scans, raw_integrate = engine.ground_scans, tracker.integrate_scans
    last_cells: dict[int, bytes] = {}

    def match_costs(particles, *args):
        calls["match_costs"].append((particles_state(particles), args))
        return raw_match(particles, *args)

    def predict(particles, delta, noise, rng):
        calls["predict"].append((particles_state(particles), delta, noise))
        return raw_predict(particles, delta, noise, rng)

    def goal(grid, *args):
        # a grid's cells are kept only when they changed since its last call
        cells = grid.cells.tobytes()
        changed = last_cells.get(id(grid)) != cells
        last_cells[id(grid)] = cells
        state = (grid.side, grid.resolution, grid.n, grid.cells.copy()) if changed else None
        calls["_select_local_goal_ex"].append((id(grid), state, grid.origin_x, grid.origin_y, args))
        return raw_goal(grid, *args)

    def ground_scans(grid, poses, *args):
        calls["ground_scans"].append((grid, list(poses), args))
        return raw_scans(grid, poses, *args)

    def integrate_scans(grids, scans, poses, max_range):
        states = [(g.side, g.resolution, g.n, g.cells.copy(), g.origin_x, g.origin_y) for g in grids]
        calls["integrate_scans"].append((states, list(scans), list(poses), max_range))
        return raw_integrate(grids, scans, poses, max_range)

    cfg = ScenarioConfig.from_dict(workloads.config("team6", workloads.REFERENCE_SEED))
    sim = Simulation(cfg)
    localize.match_costs, localize.predict, tracker._select_local_goal_ex = match_costs, predict, goal
    engine.ground_scans, tracker.integrate_scans = ground_scans, integrate_scans
    try:
        for _ in range(TICKS):
            sim.tick()
    finally:
        localize.match_costs, localize.predict, tracker._select_local_goal_ex = raw_match, raw_predict, raw_goal
        engine.ground_scans, tracker.integrate_scans = raw_scans, raw_integrate
    return calls


def replay(name: str, recorded: list) -> float:
    """Seconds spent in the kernel's calls, each timed alone."""
    clock = time.perf_counter
    total = 0.0
    if name == "match_costs":
        for state, args in recorded:
            particles = particles_of(state)
            t0 = clock()
            localize.match_costs(particles, *args)
            total += clock() - t0
    elif name == "predict":
        rng = np.random.default_rng(0)
        for state, delta, noise in recorded:
            particles = particles_of(state)
            t0 = clock()
            localize.predict(particles, delta, noise, rng)
            total += clock() - t0
    elif name == "ground_scans":
        for grid, poses, (max_range, n_beams) in recorded:
            grid.__dict__.pop("_scans", None)
            t0 = clock()
            scans = engine.ground_scans(grid, poses, max_range, n_beams)
            localize.PolarObservation.from_scans(scans, max_range=max_range, free_margin=grid.resolution)
            total += clock() - t0
    elif name == "integrate_scans":
        for states, scans, poses, max_range in recorded:
            grids = [
                tracker.LocalObstacleGrid(side, res, n, cells.copy(), origin_x, origin_y)
                for side, res, n, cells, origin_x, origin_y in states
            ]
            t0 = clock()
            tracker.integrate_scans(grids, scans, poses, max_range)
            total += clock() - t0
    else:
        grids: dict[int, tracker.LocalObstacleGrid] = {}
        for robot, state, origin_x, origin_y, args in recorded:
            if state is not None:
                side, res, n, cells = state
                if robot not in grids:
                    grids[robot] = tracker.LocalObstacleGrid(side, res, n, cells, origin_x, origin_y)
                grids[robot].cells = cells
            grid = grids[robot]
            grid.origin_x, grid.origin_y = origin_x, origin_y
            t0 = clock()
            tracker._select_local_goal_ex(grid, *args)
            total += clock() - t0
    return total


def main() -> int:
    calls = capture()
    print(f"team6 seed {workloads.REFERENCE_SEED}, first {TICKS} ticks; median of {REPEATS} repeats")
    gc.disable()
    try:
        for _, name in KERNELS:
            recorded = calls[name]
            per_call = [replay(name, recorded) / len(recorded) * 1e6 for _ in range(REPEATS)]
            print(f"  {name:22s} calls {len(recorded):6d}  {statistics.median(per_call):8.1f} us/call", flush=True)
    finally:
        gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
