"""Local navigation: follows global waypoints by steering at local goals
that maximize clearance in locally observed space, with backtracking to the
previous waypoint and cancellation when that also fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import distance_transform_edt

from semteam.geometry import wrap_angle
from semteam.world import SemanticClass

UNKNOWN_CELL = 0
FREE_CELL = 1
OBSTACLE_CELL = 2


@dataclass
class LocalObstacleGrid:
    """Rolling robot-centered grid of {unknown, free, obstacle}.

    ``cells`` changes only through ``integrate_scan`` and ``recenter``, which
    drop the cached clearance; code that writes ``cells`` directly sets
    ``clearance_cache`` to None.
    """

    side: float
    resolution: float
    n: int
    cells: np.ndarray
    origin_x: float
    origin_y: float
    clearance_cache: np.ndarray | None = field(default=None, repr=False)

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

    def clearance(self) -> np.ndarray:
        """Per-cell distance to the nearest obstacle cell (2 * side when the
        grid holds none), computed once per change of ``cells``."""
        if self.clearance_cache is None:
            if (self.cells == OBSTACLE_CELL).any():
                free = self.cells != OBSTACLE_CELL
                self.clearance_cache = distance_transform_edt(free) * self.resolution
            else:
                self.clearance_cache = np.full((self.n, self.n), 2.0 * self.side)
        return self.clearance_cache

    def recenter(self, x: float, y: float) -> None:
        """Shift the window so the pose sits in the center cell; cells are
        kept aligned to a fixed world lattice so data slides without loss."""
        res = self.resolution
        new_ox = (math.floor(x / res) - self.n // 2) * res
        new_oy = (math.floor(y / res) - self.n // 2) * res
        shift_x = int(round((new_ox - self.origin_x) / res))
        shift_y = int(round((new_oy - self.origin_y) / res))
        if shift_x == 0 and shift_y == 0 and (self.origin_x or self.origin_y):
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
        self.clearance_cache = None
        self.origin_x, self.origin_y = new_ox, new_oy


def integrate_scan(
    grid: LocalObstacleGrid,
    scan: list[tuple[float, SemanticClass]],
    pose: tuple[float, float, float],
    max_range: float,
) -> LocalObstacleGrid:
    """Carve free space along each beam and mark the hit cell; latest wins."""
    x, y, yaw = pose
    grid.recenter(x, y)
    grid.clearance_cache = None
    res = grid.resolution
    n_beams = len(scan)
    ranges = np.array([r for r, _ in scan])
    hit = np.array([c != SemanticClass.UNKNOWN for _, c in scan])
    az = yaw + 2.0 * math.pi * np.arange(n_beams) / n_beams
    dirx, diry = np.cos(az), np.sin(az)
    # free space ends just short of each hit so the struck cell stays marked
    free_to = np.where(hit, ranges - 0.75 * res, np.minimum(ranges, max_range))

    radii = np.arange(0.0, max_range + 0.5 * res, 0.5 * res)
    rr = radii[None, :]
    ok = rr <= free_to[:, None]
    px = x + dirx[:, None] * rr
    py = y + diry[:, None] * rr
    ix = np.floor((px - grid.origin_x) / res).astype(np.int64)
    iy = np.floor((py - grid.origin_y) / res).astype(np.int64)
    ok &= (ix >= 0) & (ix < grid.n) & (iy >= 0) & (iy < grid.n)
    grid.cells[iy[ok], ix[ok]] = FREE_CELL

    hx = x + dirx[hit] * ranges[hit]
    hy = y + diry[hit] * ranges[hit]
    ix = np.floor((hx - grid.origin_x) / res).astype(np.int64)
    iy = np.floor((hy - grid.origin_y) / res).astype(np.int64)
    ok = (ix >= 0) & (ix < grid.n) & (iy >= 0) & (iy < grid.n)
    grid.cells[iy[ok], ix[ok]] = OBSTACLE_CELL
    return grid


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
    res = grid.resolution
    dist = math.hypot(wx - x, wy - y)
    cx, cy = x, y
    march_reach = 0.0
    if dist > 1e-9:
        ux, uy = (wx - x) / dist, (wy - y) / dist
        t = 0.0
        step = 0.5 * res
        while t + step <= dist:
            nx_, ny_ = x + ux * (t + step), y + uy * (t + step)
            if grid.state_at(nx_, ny_) != FREE_CELL:
                break
            t += step
            cx, cy = nx_, ny_
        else:
            cx, cy = wx, wy
            t = dist
        march_reach = t

    cand_ix, cand_iy = grid.cell_of(cx, cy)
    r_cells = search_radius / res
    x_lo = max(0, int(math.floor(cand_ix - r_cells)))
    x_hi = min(grid.n - 1, int(math.ceil(cand_ix + r_cells)))
    y_lo = max(0, int(math.floor(cand_iy - r_cells)))
    y_hi = min(grid.n - 1, int(math.ceil(cand_iy + r_cells)))
    if x_lo > x_hi or y_lo > y_hi:
        return None, march_reach
    sub = grid.cells[y_lo : y_hi + 1, x_lo : x_hi + 1]
    fy, fx = np.nonzero(sub == FREE_CELL)
    if fx.size == 0:
        return None, march_reach
    gx, gy = fx + x_lo, fy + y_lo
    in_disc = (gx - cand_ix) ** 2 + (gy - cand_iy) ** 2 <= r_cells**2
    gx, gy = gx[in_disc], gy[in_disc]
    if gx.size == 0:
        return None, march_reach

    scores = grid.clearance()[gy, gx]
    d2 = (gx - cand_ix) ** 2 + (gy - cand_iy) ** 2
    flats = gy * grid.n + gx
    best = np.lexsort((flats, d2, -scores))[0]
    bx, by = int(gx[best]), int(gy[best])
    goal = (
        grid.origin_x + (bx + 0.5) * res,
        grid.origin_y + (by + 0.5) * res,
    )
    return goal, march_reach


@dataclass
class TrackerParams:
    v_max: float = 1.0
    yaw_rate_max: float = 1.0
    k_yaw: float = 2.0
    align_threshold: float = 0.6
    arrival_tolerance: float = 1.5
    search_radius: float = 3.0
    settle_ticks: int = 8  # blocked this many consecutive steps before reacting


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
    params: TrackerParams,
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
        if math.hypot(tx - x, ty - y) <= params.arrival_tolerance:
            state.phase = "following"

    if state.phase == "following":
        while state.index < len(state.waypoints):
            tx, ty = state.waypoints[state.index]
            if math.hypot(tx - x, ty - y) > params.arrival_tolerance:
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
    radius = min(params.search_radius, max(0.5 * params.arrival_tolerance, 0.9 * target_dist))
    goal, march_reach = _select_local_goal_ex(grid, pose, target, radius)
    cornered = (
        goal is not None
        and target_dist > params.arrival_tolerance
        and march_reach < 0.6 * grid.resolution
        and math.hypot(goal[0] - x, goal[1] - y) < 0.35 * params.arrival_tolerance
    )
    if goal is None or cornered:
        # hold position briefly: scan misregistration leaves transient
        # phantom obstacles that the next sweeps overwrite
        state.blocked_streak += 1
        if state.blocked_streak < params.settle_ticks:
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
    yaw_rate = max(-params.yaw_rate_max, min(params.yaw_rate_max, params.k_yaw * heading_err))
    if abs(heading_err) > params.align_threshold:
        return (0.0, yaw_rate), state
    goal_dist = math.hypot(goal[0] - x, goal[1] - y)
    forward = min(params.v_max, 2.0 * goal_dist)
    return (forward, yaw_rate), state
