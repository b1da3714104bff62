"""Waypoint tracker: scan integration, local goals, control, state machine."""

import math

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from semteam.geometry import segments_min_value
from semteam.planner import extract_traversability, plan, update_roadmap
from semteam.tracker import (
    ARRIVAL_TOLERANCE,
    FREE_CELL,
    OBSTACLE_CELL,
    SETTLE_TICKS,
    UNKNOWN_CELL,
    V_MAX,
    LocalObstacleGrid,
    TrackerState,
    _select_local_goal_ex,
    integrate_scan,
    step,
)
from semteam.world import SemanticClass, SemanticGridMap, ground_scan
from test_kernel_reference import scan_of


def class_map(classes):
    classes = np.asarray(classes, dtype=np.int8)
    h, w = classes.shape
    return SemanticGridMap(
        origin_x=0.0, origin_y=0.0, resolution=1.0, width=w, height=h,
        classes=classes,
        observed=np.ones((h, w), dtype=bool), version=1,
    )


def open_map(n=40):
    return class_map(np.full((n, n), int(SemanticClass.ROAD)))


class TestIntegrateScan:
    def test_miss_carves_free_no_obstacle(self):
        grid = LocalObstacleGrid.create(24.0, 1.0)
        scan = scan_of([(8.0, SemanticClass.UNKNOWN)] * 8)
        integrate_scan(grid, scan, (100.5, 100.5, 0.0), 8.0)
        assert (grid.cells != OBSTACLE_CELL).all()
        # cells straight ahead to 8 m are free
        for d in range(8):
            assert grid.state_at(100.5 + d, 100.5) == FREE_CELL

    def test_hit_marks_obstacle(self):
        world = open_map()
        world.classes[10, 15] = SemanticClass.BUILDING  # wall at x=15, y=10
        grid = LocalObstacleGrid.create(24.0, 1.0)
        scan = ground_scan(world, (10.5, 10.5, 0.0), 12.0, 4)
        integrate_scan(grid, scan, (10.5, 10.5, 0.0), 12.0)
        assert grid.state_at(15.5, 10.5) == OBSTACLE_CELL
        for d in range(1, 5):
            assert grid.state_at(10.5 + d, 10.5) == FREE_CELL

    def test_latest_observation_wins(self):
        grid = LocalObstacleGrid.create(24.0, 1.0)
        pose = (50.5, 50.5, 0.0)
        hit_scan = scan_of([(3.0, SemanticClass.BUILDING), (8.0, SemanticClass.UNKNOWN)])
        integrate_scan(grid, hit_scan, pose, 8.0)
        assert grid.state_at(53.5, 50.5) == OBSTACLE_CELL
        clear_scan = scan_of([(8.0, SemanticClass.UNKNOWN), (8.0, SemanticClass.UNKNOWN)])
        integrate_scan(grid, clear_scan, pose, 8.0)
        assert grid.state_at(53.5, 50.5) == FREE_CELL

    def test_recenter_preserves_world_content(self):
        grid = LocalObstacleGrid.create(16.0, 1.0)
        pose = (30.5, 30.5, 0.0)
        integrate_scan(grid, scan_of([(4.0, SemanticClass.BUILDING)]), pose, 8.0)
        assert grid.state_at(34.5, 30.5) == OBSTACLE_CELL
        grid.recenter(33.5, 30.5)
        assert grid.state_at(34.5, 30.5) == OBSTACLE_CELL

    def test_recenter_without_shift_keeps_cells(self):
        # the pose already sits in the center cell of the window at (0, 0)
        grid = LocalObstacleGrid.create(16.0, 1.0)
        cells = grid.cells
        grid.recenter(8.5, 8.5)
        assert (grid.origin_x, grid.origin_y) == (0.0, 0.0)
        assert grid.cells is cells


def filled_grid(n=24, state=FREE_CELL):
    grid = LocalObstacleGrid.create(float(n), 1.0)
    grid.recenter(n / 2, n / 2)
    grid.cells[:, :] = state
    return grid


class TestSelectLocalGoal:
    def test_obstacle_free_goal_on_segment(self):
        grid = filled_grid()
        pose = (12.5, 12.5, 0.0)
        goal, _ = _select_local_goal_ex(grid, pose, (16.5, 12.5), 3.0)
        assert goal is not None
        # the goal sits on the segment toward the waypoint
        assert abs(goal[1] - 12.5) <= 1.0
        assert 12.5 < goal[0] <= 17.0

    def test_fully_occupied_returns_none(self):
        grid = filled_grid(state=OBSTACLE_CELL)
        assert _select_local_goal_ex(grid, (12.5, 12.5, 0.0), (16.5, 12.5), 3.0)[0] is None

    def test_unknown_region_blocks_march(self):
        grid = filled_grid(state=UNKNOWN_CELL)
        grid.cells[11:14, 11:14] = FREE_CELL
        goal, _ = _select_local_goal_ex(grid, (12.5, 12.5, 0.0), (20.5, 12.5), 2.0)
        assert goal is not None
        assert goal[0] <= 14.5  # cannot target unknown space

    def test_wall_with_gap_matches_exhaustive_oracle(self):
        # corridor toward the waypoint dead-ends at a wall; a side opening
        # leads into a roomier area
        grid = filled_grid(state=OBSTACLE_CELL)
        grid.cells[11:14, 8:17] = FREE_CELL   # corridor along y ~ 12
        grid.cells[14:21, 13:20] = FREE_CELL  # side room to the north
        pose = (9.5, 12.5, 0.0)
        waypoint = (22.5, 12.5)
        search_radius = 4.0
        got, _ = _select_local_goal_ex(grid, pose, waypoint, search_radius)

        # oracle: replay the rule by exhaustive scoring
        res = grid.resolution
        dist = math.hypot(waypoint[0] - pose[0], waypoint[1] - pose[1])
        ux, uy = (waypoint[0] - pose[0]) / dist, (waypoint[1] - pose[1]) / dist
        t, cx, cy = 0.0, pose[0], pose[1]
        while t + 0.5 * res <= dist:
            nx_, ny_ = pose[0] + ux * (t + 0.5 * res), pose[1] + uy * (t + 0.5 * res)
            if grid.state_at(nx_, ny_) != FREE_CELL:
                break
            t += 0.5 * res
            cx, cy = nx_, ny_
        else:
            cx, cy = waypoint
        cand = grid.cell_of(cx, cy)
        from scipy.ndimage import distance_transform_edt

        clearance = distance_transform_edt(grid.cells != OBSTACLE_CELL) * res
        best = None
        for iy in range(grid.n):
            for ix in range(grid.n):
                if grid.cells[iy, ix] != FREE_CELL:
                    continue
                d2 = (ix - cand[0]) ** 2 + (iy - cand[1]) ** 2
                if d2 > (search_radius / res) ** 2:
                    continue
                key = (-clearance[iy, ix], d2, iy * grid.n + ix)
                if best is None or key < best[0]:
                    best = (key, (ix, iy))
        expect = (
            grid.origin_x + (best[1][0] + 0.5) * res,
            grid.origin_y + (best[1][1] + 0.5) * res,
        )
        assert got == pytest.approx(expect)
        # displaced into the side opening, not stuck at the blocked line
        assert got[1] > 13.0


def edt_clearance(grid):
    """Every cell's clearance from SciPy's exact Euclidean distance transform;
    2 * side everywhere when the grid holds no obstacle."""
    if not (grid.cells == OBSTACLE_CELL).any():
        return np.full((grid.n, grid.n), 2.0 * grid.side)
    return distance_transform_edt(grid.cells != OBSTACLE_CELL) * grid.resolution


def assert_clearance_is_edt(grid):
    """``clearance_at`` over the whole grid equals the EDT bit for bit."""
    iy, ix = np.indices((grid.n, grid.n)).reshape(2, -1)
    got = grid.clearance_at(ix, iy).reshape(grid.n, grid.n)
    assert got.tobytes() == edt_clearance(grid).tobytes()


def select_checking_reads(grid, pose, waypoint, radius):
    """The local goal and the number of cells whose clearance the selection
    read, each checked against the EDT at that cell."""
    reads = []
    raw = grid.clearance_at

    def spy(ix, iy):
        out = raw(ix, iy)
        reads.append((ix.copy(), iy.copy(), out))
        return out

    grid.clearance_at = spy
    try:
        goal, _ = _select_local_goal_ex(grid, pose, waypoint, radius)
    finally:
        del grid.clearance_at
    want = edt_clearance(grid)
    for ix, iy, got in reads:
        assert got.tobytes() == want[iy, ix].tobytes()
    return goal, sum(ix.size for ix, _, _ in reads)


class TestClearanceAt:
    def test_follows_scans_and_recenters(self):
        rng = np.random.default_rng(2)
        world = class_map(corridor_world_classes(rng, size=40))
        ys, xs = np.nonzero(world.classes == SemanticClass.ROAD)
        grid = LocalObstacleGrid.create(16.0, 0.5)
        n_read = 0
        for i in rng.permutation(xs.size)[:12]:
            pose = (xs[i] + 0.5, ys[i] + 0.5, float(rng.uniform(-3, 3)))
            integrate_scan(grid, ground_scan(world, pose, 10.0, 36), pose, 10.0)
            for shift in (0.0, 0.2, 3.0, -7.5):
                # small shifts keep the window, larger ones slide it
                grid.recenter(pose[0] + shift, pose[1] - shift)
                here = (pose[0] + shift, pose[1] - shift, pose[2])
                waypoint = (here[0] + 4.0, here[1] + 1.0)
                goal, n = select_checking_reads(grid, here, waypoint, 3.0)
                n_read += n
                assert_clearance_is_edt(grid)
                twin = LocalObstacleGrid(
                    grid.side, grid.resolution, grid.n, grid.cells.copy(), grid.origin_x, grid.origin_y
                )
                assert goal == _select_local_goal_ex(twin, here, waypoint, 3.0)[0]
        assert n_read > 0

    def test_scan_in_place_refreshes(self):
        # the second scan keeps the window where it is
        grid = LocalObstacleGrid.create(24.0, 1.0)
        pose = (10.5, 10.5, 0.0)
        for wall_x in (15, 12):
            world = open_map()
            world.classes[10, wall_x] = SemanticClass.BUILDING
            integrate_scan(grid, ground_scan(world, pose, 12.0, 36), pose, 12.0)
            assert_clearance_is_edt(grid)
            assert select_checking_reads(grid, pose, (wall_x + 0.5, 13.5), 3.0)[1] > 0

    def test_grid_without_obstacles(self):
        grid = LocalObstacleGrid.create(24.0, 1.0)
        pose = (100.5, 100.5, 0.0)
        integrate_scan(grid, scan_of([(8.0, SemanticClass.UNKNOWN)] * 16), pose, 8.0)
        assert not (grid.cells == OBSTACLE_CELL).any()
        assert_clearance_is_edt(grid)
        assert select_checking_reads(grid, pose, (104.5, 100.5), 3.0)[1] > 0
        integrate_scan(grid, scan_of([(3.0, SemanticClass.BUILDING)] * 16), pose, 8.0)
        assert_clearance_is_edt(grid)
        assert edt_clearance(grid).max() < 48.0
        assert select_checking_reads(grid, pose, (101.5, 100.5), 3.0)[1] > 0


class TestSearchMemo:
    def test_a_write_in_place_between_two_same_queries_gives_the_fresh_goal(self):
        grid = filled_grid()
        grid.cells[8:12, 14:20] = OBSTACLE_CELL
        pose, waypoint = (12.5, 12.5, 0.0), (16.5, 12.5)
        first, n_first = select_checking_reads(grid, pose, waypoint, 3.0)
        # the same query on the same grid reads no clearance
        assert select_checking_reads(grid, pose, waypoint, 3.0) == (first, 0)
        gx, gy = grid.cell_of(*first)
        grid.cells[gy, gx] = OBSTACLE_CELL
        second, n_second = select_checking_reads(grid, pose, waypoint, 3.0)
        twin = LocalObstacleGrid(grid.side, grid.resolution, grid.n, grid.cells.copy(), grid.origin_x, grid.origin_y)
        assert second == _select_local_goal_ex(twin, pose, waypoint, 3.0)[0]
        assert second != first and n_first > 0 and n_second > 0

    def test_a_grid_moved_with_the_same_cells_gives_the_goal_at_its_new_origin(self):
        grid = filled_grid()
        pose, waypoint = (12.5, 12.5, 0.0), (16.5, 12.5)
        first, _ = _select_local_goal_ex(grid, pose, waypoint, 3.0)
        grid.recenter(pose[0] + 5.0, pose[1])
        grid.cells[:, :] = FREE_CELL
        moved = (pose[0] + 5.0, pose[1], 0.0)
        goal, _ = _select_local_goal_ex(grid, moved, (waypoint[0] + 5.0, waypoint[1]), 3.0)
        assert goal == (first[0] + 5.0, first[1])


class TestStep:
    def test_goal_dead_ahead_full_speed(self):
        grid = filled_grid()
        state = TrackerState(waypoints=[(12.5, 12.5), (18.5, 12.5)])
        (v, w), state = step(state, grid, (12.5, 12.5, 0.0))
        assert v == pytest.approx(V_MAX)
        assert w == pytest.approx(0.0, abs=1e-6)

    def test_goal_behind_rotates_in_place(self):
        grid = filled_grid()
        state = TrackerState(waypoints=[(12.5, 12.5), (6.5, 12.5)])
        (v, w), state = step(state, grid, (12.5, 12.5, 0.0))
        assert v == 0.0
        assert abs(w) > 0

    def test_arrival_advances_and_finishes(self):
        grid = filled_grid()
        state = TrackerState(waypoints=[(12.5, 12.5), (13.0, 12.5)])
        (v, w), state = step(state, grid, (12.9, 12.5, 0.0))
        assert state.phase == "done"
        assert (v, w) == (0.0, 0.0)

    def test_trap_backtracks_then_cancels(self):
        # robot is mid-corridor, away from the previous waypoint, when the
        # world closes in: forward blocked, then the retreat is blocked too
        grid = filled_grid()
        state = TrackerState(waypoints=[(6.5, 12.5), (20.5, 12.5)])
        grid.cells[:, :] = OBSTACLE_CELL
        pose = (12.5, 12.5, 0.0)
        state = settle(state, grid, pose)
        assert state.phase == "backtracking"
        state = settle(state, grid, pose)
        assert state.phase == "cancelled"
        assert state.n_backtracks == 1
        assert state.n_cancellations == 1

    def test_blocked_transient_is_debounced(self):
        grid = filled_grid()
        state = TrackerState(waypoints=[(6.5, 12.5), (20.5, 12.5)])
        blocked = filled_grid(state=OBSTACLE_CELL)
        pose = (12.5, 12.5, 0.0)
        for _ in range(SETTLE_TICKS - 1):
            (v, w), state = step(state, blocked, pose)
            assert state.phase == "following"
            assert (v, w) == (0.0, 0.0)
        # obstacle turns out to be phantom: next scans cleared it
        (v, w), state = step(state, grid, pose)
        assert state.phase == "following"
        assert state.blocked_streak == 0
        assert v > 0

    def test_terminal_phases_raise(self):
        grid = filled_grid()
        state = TrackerState(waypoints=[(12.5, 12.5)], phase="done")
        with pytest.raises(ValueError):
            step(state, grid, (12.5, 12.5, 0.0))
        state = TrackerState(waypoints=[(12.5, 12.5), (20.5, 12.5)], phase="cancelled")
        with pytest.raises(ValueError):
            step(state, grid, (12.5, 12.5, 0.0))

    def test_repeated_block_at_same_waypoint_cancels(self):
        grid = filled_grid()
        state = TrackerState(waypoints=[(12.5, 12.5), (20.5, 12.5)])
        pose = (12.5, 12.5, 0.0)
        blocked = filled_grid(state=OBSTACLE_CELL)
        state = settle(state, blocked, pose)
        assert state.phase == "backtracking"
        # backtrack target reached immediately (index-1 is the start)
        (v, w), state = step(state, grid, pose)
        assert state.phase == "following"
        state = settle(state, blocked, pose)
        assert state.phase == "backtracking"
        (v, w), state = step(state, blocked, pose)
        assert state.phase == "cancelled"


def settle(state, grid, pose):
    """Step a blocked robot ``SETTLE_TICKS`` times: it holds still, and keeps
    its phase until the last step."""
    phase = state.phase
    for k in range(SETTLE_TICKS):
        assert state.phase == phase, k
        (v, w), state = step(state, grid, pose)
        assert (v, w) == (0.0, 0.0)
    return state


def corridor_world_classes(rng, size=28):
    cls = np.full((size, size), int(SemanticClass.BUILDING), dtype=np.int8)
    xs = sorted(rng.choice(np.arange(3, size - 4), size=3, replace=False))
    ys_ = sorted(rng.choice(np.arange(3, size - 4), size=3, replace=False))
    for x in xs:
        cls[2 : size - 2, x : x + 3] = SemanticClass.ROAD
    for y in ys_:
        cls[y : y + 3, 2 : size - 2] = SemanticClass.ROAD
    return cls


def path_clearance(waypoints, grid):
    """Least obstacle clearance over the cells a path's segments touch."""
    segs = [(*a, *b) for a, b in zip(waypoints, waypoints[1:])]
    return float(segments_min_value(segs, grid.dist).min())


class TestTrackingScenarios:
    def test_reaches_final_waypoint_on_20_seeded_worlds(self):
        reached = 0
        attempts = 0
        seed = 0
        while attempts < 20:
            seed += 1
            rng = np.random.default_rng(seed)
            world = class_map(corridor_world_classes(rng))
            grid_t = extract_traversability(world, 0)
            rm, vis = update_roadmap(grid_t, 9.0)
            ys, xs = np.nonzero(grid_t.free)
            order = rng.permutation(len(xs))
            path = None
            for i in order[:20]:
                for j in order[:20]:
                    s = (int(xs[i]), int(ys[i]))
                    g = (int(xs[j]), int(ys[j]))
                    if math.hypot(s[0] - g[0], s[1] - g[1]) < 12:
                        continue
                    res = plan(rm, vis, grid_t, s, g)
                    if res.ok and path_clearance(res.waypoints, grid_t) >= 1.5:
                        path = res
                        break
                if path:
                    break
            if path is None:
                continue
            attempts += 1
            if self._track(world, path):
                reached += 1
        assert attempts == 20
        assert reached == 20, f"only {reached}/20 scenario worlds reached the goal"

    def _track(self, world, path_result):
        waypoints = [(ix + 0.5, iy + 0.5) for ix, iy in path_result.waypoints]
        pose = (waypoints[0][0], waypoints[0][1], 0.0)
        state = TrackerState(waypoints=waypoints)
        grid = LocalObstacleGrid.create(20.0, 1.0)
        dt = 0.1
        for tick in range(6000):
            if tick % 2 == 0:
                scan = ground_scan(world, pose, 10.0, 36)
                integrate_scan(grid, scan, pose, 10.0)
            (v, w), state = step(state, grid, pose)
            if state.phase == "done":
                fx, fy = waypoints[-1]
                return math.hypot(pose[0] - fx, pose[1] - fy) <= ARRIVAL_TOLERANCE + 0.5
            if state.phase == "cancelled":
                return False
            if state.last_local_goal is not None:
                assert grid.state_at(*state.last_local_goal) == FREE_CELL
            x, y, yaw = pose
            pose = (x + v * math.cos(yaw) * dt, y + v * math.sin(yaw) * dt, yaw + w * dt)
        return False
