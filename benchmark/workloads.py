"""The benchmark's workloads: scenario configs and the ``clutter`` world.

Every workload is a semteam scenario config plus, for ``clutter``, a world
file the benchmark writes. Configs are plain dicts for
``ScenarioConfig.from_dict``, so a result can record exactly what ran.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Measured simulations run the reference scenario: sim seed 0 and, for
#: clutter, the world generated from seed 0. Cost moves far more with the
#: scenario seed than with any change worth measuring (6 robots: 7.7 to
#: 11.4 ms/tick over sim seeds 0-5; clutter: 254 to 506 roadmap nodes and
#: 12 to 45 s over four worlds), so the benchmark's ``--seed`` picks a
#: held-out probe instead, and ``--scenario-seed`` times another scenario.
REFERENCE_SEED = 0

#: The held-out probe runs the workload's scenario at the benchmark's seed
#: for this many ticks and checks its outputs; it is not timed.
PROBE_TICKS = 100

#: team2 runs at most this many ticks. Seed 0 reaches its last target at
#: tick 2451 and then idles; the cap keeps the idle tail in the run while
#: keeping the run about as long as the other workloads.
TEAM2_MAX_TICKS = 4000

#: Host seconds one simulation takes on a quiet 2-vCPU host, host-speed
#: sampling included. A run turns ``--seconds`` into a fixed number of
#: simulations with these, so that the count does not drift with machine
#: load.
SIM_SECONDS = {"team2": 10.0, "team6": 21.0, "clutter": 10.5}

CLUTTER_MAX_TICKS = 3000
CLUTTER_SIZE = 30  # cells per side, 1 m each
CLUTTER_START = (5.0, 5.0)
CLUTTER_STAGING = (1, 11)  # clear cell range on both axes around the start
CLUTTER_FRACTION = 0.08  # share of the interior outside staging and vehicles
CLUTTER_VEHICLES = 4  # 2x2 vehicles
CLUTTER_ATTEMPTS = 100

WHY = {
    "team2": (
        "shipped scenario, seed 0: a false visit leaves 12 of 13 targets and the "
        "team idles to the tick cap, so aerial mapping, parked scans and per-tick "
        "engine overhead are heavy"
    ),
    "team6": (
        "standard world with 6 ground robots to completion: per-robot scan, "
        "particle filter and tracker work dominate and gossip syncs 21 pairs a tick"
    ),
    "clutter": (
        "generated 30x30 m world with about 10% random obstacle cells, mapped in "
        "several versions by a low slow flight: incremental roadmap updates dominate"
    ),
}
NAMES = tuple(WHY)


def config(name: str, seed: int, world_path: str | None = None) -> dict:
    """The ScenarioConfig overrides of workload ``name`` at ``seed``."""
    if name == "team2":
        return {"seed": seed, "max_ticks": TEAM2_MAX_TICKS}
    if name == "team6":
        return {"seed": seed, "n_ground": 6}
    if name == "clutter":
        if world_path is None:
            raise ValueError("clutter needs the path of its generated world")
        return {
            "world": world_path,
            "seed": seed,
            "n_ground": 2,
            "max_ticks": CLUTTER_MAX_TICKS,
            "start": list(CLUTTER_START),
            "aerial": {"altitude": 15.0, "speed": 3.0},
        }
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


class GeneratorError(RuntimeError):
    """No valid clutter world within the attempt budget."""


def clutter_world(seed: int):
    """Generate the ``clutter`` world for ``seed``; the same seed always gives
    the same world.

    Dirt floor, a vegetation border, a clear staging square around the start,
    four 2x2 vehicles and vegetation/building cells on a share of the rest.
    A draw is rejected, and the next one tried, unless every region of
    interest has a goal cell that the start can reach on truth.

    Returns ``(world, attempt)``.
    """
    from semteam.world import SemanticClass, SemanticGridMap, WorldModel

    n = CLUTTER_SIZE
    lo, hi = CLUTTER_STAGING
    for attempt in range(CLUTTER_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        classes = np.full((n, n), int(SemanticClass.DIRT_GRAVEL), dtype=np.int8)
        classes[0, :] = classes[-1, :] = SemanticClass.VEGETATION
        classes[:, 0] = classes[:, -1] = SemanticClass.VEGETATION
        free = np.zeros((n, n), dtype=bool)
        free[1:-1, 1:-1] = True
        free[lo:hi, lo:hi] = False

        placed = 0
        for _ in range(1000):
            if placed == CLUTTER_VEHICLES:
                break
            x, y = (int(v) for v in rng.integers(1, n - 2, size=2))
            if free[y : y + 2, x : x + 2].all():
                classes[y : y + 2, x : x + 2] = SemanticClass.VEHICLE
                free[y : y + 2, x : x + 2] = False
                placed += 1
        iy, ix = np.nonzero(free)
        k = round(CLUTTER_FRACTION * iy.size)
        pick = rng.choice(iy.size, size=k, replace=False)
        kinds = np.where(rng.random(k) < 0.5, SemanticClass.VEGETATION, SemanticClass.BUILDING)
        classes[iy[pick], ix[pick]] = kinds

        elevation = np.zeros((n, n))
        elevation[classes == SemanticClass.VEGETATION] = 3.0
        elevation[classes == SemanticClass.BUILDING] = 6.0
        truth = SemanticGridMap(
            origin_x=0.0,
            origin_y=0.0,
            resolution=1.0,
            width=n,
            height=n,
            classes=classes,
            elevation=elevation,
            observed=np.ones((n, n), dtype=bool),
            version=1,
        )
        world = WorldModel.from_map(truth)
        if placed == CLUTTER_VEHICLES and goals_reachable(world, CLUTTER_START):
            return world, attempt
    raise GeneratorError(f"no valid clutter world for seed {seed} in {CLUTTER_ATTEMPTS} draws")


def goals_reachable(world, start: tuple[float, float]) -> bool:
    """True when the world has a region of interest and every one has a goal
    cell in the start's traversable component."""
    from scipy import ndimage

    from semteam.mission import extract_rois
    from semteam.planner import extract_traversability

    rois = extract_rois(world.truth, 3.0, dilation_radius=5.0, close_radius=0)
    if not rois:
        return False
    labels, _ = ndimage.label(extract_traversability(world.truth, 0).free)
    sx, sy = world.truth.cell_of(*start)
    home = labels[sy, sx]
    return home > 0 and all(
        r.goal_cell is not None and labels[r.goal_cell[1], r.goal_cell[0]] == home for r in rois
    )


def write_clutter_world(seed: int, directory: Path) -> Path:
    """Write the clutter world of ``seed`` under ``directory``; return its path."""
    from semteam.world import save_world

    world, _ = clutter_world(seed)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"clutter-{seed}.world"
    save_world(world, path)
    return path


def n_targets(cfg: dict) -> int:
    """How many true targets the scenario has, computed as the engine does."""
    from semteam.config import ScenarioConfig
    from semteam.engine import resolve_world
    from semteam.mission import extract_rois

    sc = ScenarioConfig.from_dict(cfg)
    world = resolve_world(sc.world)
    return len(
        extract_rois(
            world.truth,
            sc.mission.cluster_radius,
            dilation_radius=sc.mission.dilation_radius,
            close_radius=sc.planner.close_radius,
        )
    )

