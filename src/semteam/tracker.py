"""Local navigation: follows global waypoints by steering at local goals
that maximize clearance in locally observed space, with backtracking to the
previous waypoint and cancellation when that also fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from semteam.geometry import disc_cells, wrap_angle
from semteam.world import Scan, SemanticClass, beam_offsets

UNKNOWN_CELL = 0
FREE_CELL = 1
OBSTACLE_CELL = 2

V_MAX = 2.0  # m/s
YAW_RATE_MAX = 1.5  # rad/s
K_YAW = 2.0  # yaw rate per rad of heading error
ALIGN_THRESHOLD = 0.6  # rad of heading error above which the robot turns in place
ARRIVAL_TOLERANCE = 1.5  # m
SEARCH_RADIUS = 3.0  # m, of the local-goal disc
SETTLE_TICKS = 8  # blocked this many consecutive steps before reacting


@dataclass
class LocalObstacleGrid:
    """Rolling robot-centered grid of {unknown, free, obstacle}.

    Local-goal selection reads clearance at a few dozen candidate cells, so
    ``clearance_at`` computes it there from ``cells`` on each call instead of
    transforming the whole grid. The grid changes only at scans, so it keeps
    its last local-goal disc search, keyed by everything that search reads,
    for the steps in between; a write to ``cells`` in place changes the key.
    """

    side: float
    resolution: float
    n: int
    cells: np.ndarray
    origin_x: float
    origin_y: float
    _search: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def create(cls, side: float, resolution: float) -> "LocalObstacleGrid":
        n = int(round(side / resolution))
        return cls(
            side=side,
            resolution=resolution,
            n=n,
            cells=np.full((n, n), UNKNOWN_CELL, dtype=np.int8),
            origin_x=0.0,
            origin_y=0.0,
        )

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        ix = int(math.floor((x - self.origin_x) / self.resolution))
        iy = int(math.floor((y - self.origin_y) / self.resolution))
        return ix, iy

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.n and 0 <= iy < self.n

    def state_at(self, x: float, y: float) -> int:
        ix, iy = self.cell_of(x, y)
        if not self.in_bounds(ix, iy):
            return UNKNOWN_CELL
        return int(self.cells[iy, ix])

    def clearance_at(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Distance in meters from each cell ``(ix[i], iy[i])`` to the nearest
        obstacle cell, the value an exact Euclidean distance transform of the
        grid holds there; 2 * side everywhere when the grid holds none."""
        oy, ox = np.nonzero(self.cells == OBSTACLE_CELL)
        if ox.size == 0:
            return np.full(len(ix), 2.0 * self.side)
        d2 = ((ix[:, None] - ox) ** 2 + (iy[:, None] - oy) ** 2).min(axis=1)
        return np.sqrt(d2) * self.resolution

    def recenter(self, x: float, y: float) -> None:
        """Shift the window so the pose sits in the center cell; cells are
        kept aligned to a fixed world lattice so data slides without loss."""
        res = self.resolution
        new_ox = (math.floor(x / res) - self.n // 2) * res
        new_oy = (math.floor(y / res) - self.n // 2) * res
        shift_x = int(round((new_ox - self.origin_x) / res))
        shift_y = int(round((new_oy - self.origin_y) / res))
        if shift_x == 0 and shift_y == 0:
            return
        fresh = np.full((self.n, self.n), UNKNOWN_CELL, dtype=np.int8)
        src_x0, src_y0 = max(0, shift_x), max(0, shift_y)
        dst_x0, dst_y0 = max(0, -shift_x), max(0, -shift_y)
        w = self.n - abs(shift_x)
        h = self.n - abs(shift_y)
        if w > 0 and h > 0:
            fresh[dst_y0 : dst_y0 + h, dst_x0 : dst_x0 + w] = self.cells[
                src_y0 : src_y0 + h, src_x0 : src_x0 + w
            ]
        self.cells = fresh
        self.origin_x, self.origin_y = new_ox, new_oy


def integrate_scan(
    grid: LocalObstacleGrid,
    scan: Scan,
    pose: tuple[float, float, float],
    max_range: float,
) -> LocalObstacleGrid:
    """Carve free space along each beam and mark the hit cell; latest wins."""
    integrate_scans([grid], [scan], [pose], max_range)
    return grid


def integrate_scans(
    grids: list[LocalObstacleGrid],
    scans: list[Scan],
    poses: list[tuple[float, float, float]],
    max_range: float,
) -> None:
    """``integrate_scan`` of each grid with its own scan and pose, the
    samples of every beam of every scan placed in one array pass.

    The grids share one resolution and size. Each is recentered on its pose
    first; then each beam's samples are placed from its own pose and in its
    own grid's origin, with the arithmetic of a grid taken alone. Each grid
    then takes its free cells and after them its hit cells. Every write of
    one kind stores the same value, so that order is the only one that
    matters: the struck cell stays marked.
    """
    if not grids:
        return
    res, n = grids[0].resolution, grids[0].n
    if any(g.resolution != res or g.n != n for g in grids):
        raise ValueError("integrate_scans takes grids of one resolution and size")
    for grid, (x, y, _) in zip(grids, poses):
        grid.recenter(x, y)
    counts = [scan.ranges.size for scan in scans]
    bounds = np.cumsum([0] + counts)
    # one entry per beam of its own pose and its own grid's origin
    columns = [(px, py, pyaw, g.origin_x, g.origin_y) for g, (px, py, pyaw) in zip(grids, poses)]
    x, y, yaw, ox, oy = np.repeat(np.array(columns, dtype=np.float64).T, counts, axis=1)
    ranges = np.concatenate([scan.ranges for scan in scans])
    hit = np.concatenate([scan.classes for scan in scans]) != int(SemanticClass.UNKNOWN)
    az = yaw + np.concatenate([beam_offsets(c) for c in counts])
    dirx, diry = np.cos(az), np.sin(az)
    # free space ends just short of each hit so the struck cell stays marked
    free_to = np.where(hit, ranges - 0.75 * res, np.minimum(ranges, max_range))

    # each sample's cell coordinates before the floor, in place: a cell is
    # in the grid exactly when its coordinates are in [0, n), and there the
    # integer cast is the floor
    radii = np.arange(0.0, max_range + 0.5 * res, 0.5 * res)
    cx = dirx[:, None] * radii
    cx += x[:, None]
    cx -= ox[:, None]
    cx /= res
    cy = diry[:, None] * radii
    cy += y[:, None]
    cy -= oy[:, None]
    cy /= res
    ok = (radii <= free_to[:, None]) & (cx >= 0) & (cx < n) & (cy >= 0) & (cy < n)
    free_x, free_y = cx[ok].astype(np.int64), cy[ok].astype(np.int64)
    free_at = np.concatenate([[0], np.cumsum(ok.sum(axis=1))])[bounds]

    cx = (x + dirx * ranges - ox) / res
    cy = (y + diry * ranges - oy) / res
    ok = hit & (cx >= 0) & (cx < n) & (cy >= 0) & (cy < n)
    hit_x, hit_y = cx[ok].astype(np.int64), cy[ok].astype(np.int64)
    hit_at = np.concatenate([[0], np.cumsum(ok)])[bounds]

    for k, grid in enumerate(grids):
        lo, hi = free_at[k], free_at[k + 1]
        grid.cells[free_y[lo:hi], free_x[lo:hi]] = FREE_CELL
        lo, hi = hit_at[k], hit_at[k + 1]
        grid.cells[hit_y[lo:hi], hit_x[lo:hi]] = OBSTACLE_CELL


def _select_local_goal_ex(
    grid: LocalObstacleGrid,
    pose: tuple[float, float, float],
    next_waypoint: tuple[float, float],
    search_radius: float,
) -> tuple[tuple[float, float] | None, float]:
    """Clearance-maximal free cell near the farthest known-free point toward
    the waypoint (None when that region is entirely occupied), plus how far
    the forward march actually reached."""
    x, y = pose[0], pose[1]
    wx, wy = next_waypoint
    res, n = grid.resolution, grid.n
    ox, oy = grid.origin_x, grid.origin_y
    # the march reads the cells as state_at does: the cell_of floats, and
    # unknown off the grid
    cells = grid.cells.tobytes()
    dist = math.hypot(wx - x, wy - y)
    cx, cy = x, y
    march_reach = 0.0
    if dist > 1e-9:
        ux, uy = (wx - x) / dist, (wy - y) / dist
        t = 0.0
        step = 0.5 * res
        while t + step <= dist:
            nx_, ny_ = x + ux * (t + step), y + uy * (t + step)
            ix = int(math.floor((nx_ - ox) / res))
            iy = int(math.floor((ny_ - oy) / res))
            if not (0 <= ix < n and 0 <= iy < n and cells[iy * n + ix] == FREE_CELL):
                break
            t += step
            cx, cy = nx_, ny_
        else:
            cx, cy = wx, wy
            t = dist
        march_reach = t

    cand_ix, cand_iy = grid.cell_of(cx, cy)
    key = (cand_ix, cand_iy, search_radius, ox, oy, res, grid.side, cells)
    if grid._search is None or grid._search[0] != key:
        grid._search = (key, _disc_goal(grid, cand_ix, cand_iy, search_radius))
    return grid._search[1], march_reach


def _disc_goal(
    grid: LocalObstacleGrid, cand_ix: int, cand_iy: int, search_radius: float
) -> tuple[float, float] | None:
    """Center of the free cell within ``search_radius`` of the candidate
    cell with the most clearance, ties to the nearer and then the lower flat
    index; None when the disc holds no free cell."""
    res = grid.resolution
    gx, gy = disc_cells(grid.cells == FREE_CELL, [(cand_ix, cand_iy)], search_radius / res)
    if gx.size == 0:
        return None

    scores = grid.clearance_at(gx, gy)
    d2 = (gx - cand_ix) ** 2 + (gy - cand_iy) ** 2
    flats = gy * grid.n + gx
    best = np.lexsort((flats, d2, -scores))[0]
    bx, by = int(gx[best]), int(gy[best])
    return (
        grid.origin_x + (bx + 0.5) * res,
        grid.origin_y + (by + 0.5) * res,
    )


@dataclass
class TrackerState:
    """Waypoint-following state machine.

    Phases move along following -> backtracking -> (following | cancelled)
    or -> done; cancelled and done are terminal. A second backtrack for the
    same waypoint cancels the path, bounding retries on static worlds.
    """

    waypoints: list[tuple[float, float]]
    index: int = 0
    phase: str = "following"
    bt_target: tuple[float, float] | None = None
    backtrack_counts: dict[int, int] = field(default_factory=dict)
    last_local_goal: tuple[float, float] | None = None
    blocked_streak: int = 0
    n_backtracks: int = 0
    n_cancellations: int = 0

    def __post_init__(self) -> None:
        if not self.waypoints:
            self.phase = "done"
        elif self.index == 0 and len(self.waypoints) > 1:
            self.index = 1


def step(
    state: TrackerState,
    grid: LocalObstacleGrid,
    pose: tuple[float, float, float],
) -> tuple[tuple[float, float], TrackerState]:
    """One control step; returns (forward speed, yaw rate) and the state."""
    if state.phase in ("cancelled", "done"):
        raise ValueError(f"tracker stepped in terminal phase {state.phase!r}")
    x, y, yaw = pose

    if state.phase == "backtracking":
        if state.backtrack_counts.get(state.index, 0) >= 2:
            state.phase = "cancelled"
            state.n_cancellations += 1
            return (0.0, 0.0), state
        tx, ty = state.bt_target
        if math.hypot(tx - x, ty - y) <= ARRIVAL_TOLERANCE:
            state.phase = "following"

    if state.phase == "following":
        while state.index < len(state.waypoints):
            tx, ty = state.waypoints[state.index]
            if math.hypot(tx - x, ty - y) > ARRIVAL_TOLERANCE:
                break
            state.index += 1
        if state.index >= len(state.waypoints):
            state.phase = "done"
            return (0.0, 0.0), state
        target = state.waypoints[state.index]
    else:
        target = state.bt_target

    # shrink the selection disc on final approach so the goal converges to
    # the waypoint instead of parking on a nearby clearance maximum
    target_dist = math.hypot(target[0] - x, target[1] - y)
    radius = min(SEARCH_RADIUS, max(0.5 * ARRIVAL_TOLERANCE, 0.9 * target_dist))
    goal, march_reach = _select_local_goal_ex(grid, pose, target, radius)
    cornered = (
        goal is not None
        and target_dist > ARRIVAL_TOLERANCE
        and march_reach < 0.6 * grid.resolution
        and math.hypot(goal[0] - x, goal[1] - y) < 0.35 * ARRIVAL_TOLERANCE
    )
    if goal is None or cornered:
        # hold position briefly: scan misregistration leaves transient
        # phantom obstacles that the next sweeps overwrite
        state.blocked_streak += 1
        if state.blocked_streak < SETTLE_TICKS:
            return (0.0, 0.0), state
        state.blocked_streak = 0
        if state.phase == "following":
            state.backtrack_counts[state.index] = state.backtrack_counts.get(state.index, 0) + 1
            state.n_backtracks += 1
            state.phase = "backtracking"
            state.bt_target = state.waypoints[max(state.index - 1, 0)]
        else:
            state.phase = "cancelled"
            state.n_cancellations += 1
        return (0.0, 0.0), state

    state.blocked_streak = 0
    state.last_local_goal = goal
    heading_err = wrap_angle(math.atan2(goal[1] - y, goal[0] - x) - yaw)
    yaw_rate = max(-YAW_RATE_MAX, min(YAW_RATE_MAX, K_YAW * heading_err))
    if abs(heading_err) > ALIGN_THRESHOLD:
        return (0.0, yaw_rate), state
    goal_dist = math.hypot(goal[0] - x, goal[1] - y)
    forward = min(V_MAX, 2.0 * goal_dist)
    return (forward, yaw_rate), state
