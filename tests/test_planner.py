"""Planner: traversability, distance transform, roadmap, path queries."""

import hashlib
import heapq
import math

import numpy as np
import pytest

from semteam.geometry import segment_cells, segment_free, segment_min_value, visible_from
from semteam.planner import (
    DistanceField,
    Roadmap,
    TraversabilityGrid,
    _window_obstacles,
    distance_transform,
    edge_weight,
    extract_traversability,
    plan,
    update_roadmap,
)
from semteam.world import SemanticClass, SemanticGridMap


def class_map(classes, resolution=1.0, observed=None):
    classes = np.asarray(classes, dtype=np.int8)
    h, w = classes.shape
    if observed is None:
        observed = classes != SemanticClass.UNKNOWN
    return SemanticGridMap(
        origin_x=0.0,
        origin_y=0.0,
        resolution=resolution,
        width=w,
        height=h,
        classes=classes,
        elevation=np.zeros((h, w)),
        observed=observed,
        version=1,
    )


def grid_from_free(free, resolution=1.0):
    free = np.asarray(free, dtype=bool)
    return TraversabilityGrid(
        free=free,
        unknown=np.zeros_like(free),
        resolution=resolution,
        origin_x=0.0,
        origin_y=0.0,
    )


def supercover_oracle(u, v):
    """Classic integer supercover walk (independent of the slab test)."""
    (x0, y0), (x1, y1) = u, v
    cells = {(x0, y0)}
    dx, dy = x1 - x0, y1 - y0
    nx, ny = abs(dx), abs(dy)
    sx = 1 if dx > 0 else -1 if dx < 0 else 0
    sy = 1 if dy > 0 else -1 if dy < 0 else 0
    px, py = x0, y0
    ix = iy = 0
    while ix < nx or iy < ny:
        decision = (1 + 2 * ix) * ny - (1 + 2 * iy) * nx
        if nx == 0:
            decision = 1
        elif ny == 0:
            decision = -1
        if decision == 0:
            cells.add((px + sx, py))
            cells.add((px, py + sy))
            px += sx
            py += sy
            ix += 1
            iy += 1
        elif decision < 0:
            px += sx
            ix += 1
        else:
            py += sy
            iy += 1
        cells.add((px, py))
    return cells


class TestSegmentGeometry:
    def test_supercover_matches_integer_walk(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            v = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            ixs, iys = segment_cells(u, v)
            got = set(zip(ixs.tolist(), iys.tolist()))
            assert got == supercover_oracle(u, v), (u, v)

    def test_visible_from_matches_segment_free(self):
        """A node's visible region is exactly the free cells within its radius
        that a clear segment reaches, which roadmap edges rely on."""
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(40):
            free = rng.random((20, 20)) > rng.uniform(0.05, 0.4)
            fy, fx = np.nonzero(free)
            k = int(rng.integers(0, fx.size))
            node = (int(fx[k]), int(fy[k]))
            r = float(rng.uniform(2.0, 12.0))
            disc = (fx - node[0]) ** 2 + (fy - node[1]) ** 2 <= r**2
            cand_ix, cand_iy = fx[disc], fy[disc]
            ob_ix, ob_iy = _window_obstacles(free, node, cand_ix, cand_iy)
            seen = visible_from(node, cand_ix, cand_iy, ob_ix, ob_iy)
            for ix, iy, s in zip(cand_ix.tolist(), cand_iy.tolist(), seen.tolist()):
                assert s == segment_free(node, (ix, iy), free), (node, (ix, iy))
                checked += 1
        assert checked > 2000

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        free = rng.random((24, 24)) > 0.3
        for _ in range(100):
            u = (int(rng.integers(0, 24)), int(rng.integers(0, 24)))
            v = (int(rng.integers(0, 24)), int(rng.integers(0, 24)))
            assert segment_free(u, v, free) == segment_free(v, u, free)


class TestTraversability:
    def test_all_road_all_free(self):
        m = class_map(np.full((12, 12), int(SemanticClass.ROAD)))
        grid = extract_traversability(m, close_radius=2)
        assert grid.free.all()

    def test_single_hole_filled(self):
        cls = np.full((12, 12), int(SemanticClass.ROAD))
        cls[6, 6] = SemanticClass.VEGETATION
        grid = extract_traversability(class_map(cls), close_radius=2)
        assert grid.free[6, 6]

    def test_unknown_is_obstacle(self):
        cls = np.full((8, 8), int(SemanticClass.ROAD))
        cls[0:4, 0:4] = SemanticClass.UNKNOWN
        grid = extract_traversability(class_map(cls), close_radius=0)
        assert not grid.free[1, 1]
        assert grid.unknown[1, 1]

    def test_close_idempotent_on_random_masks(self):
        from semteam.planner import _close

        rng = np.random.default_rng(2)
        for _ in range(300):
            mask = rng.random((8, 8)) < rng.uniform(0.2, 0.8)
            once = _close(mask, 2)
            twice = _close(once, 2)
            assert np.array_equal(once, twice)

    def test_close_is_extensive(self):
        from semteam.planner import _close

        rng = np.random.default_rng(3)
        for _ in range(100):
            mask = rng.random((10, 10)) < 0.5
            closed = _close(mask, 1)
            assert (closed | ~mask).all() or (closed[mask]).all()


class TestDistanceTransform:
    def test_three_four_five(self):
        free = np.ones((10, 10), dtype=bool)
        free[0, 0] = False
        field = distance_transform(grid_from_free(free, resolution=2.0))
        assert field.dist[4, 3] == pytest.approx(5 * 2.0)

    def test_no_obstacles_sentinel(self):
        field = distance_transform(grid_from_free(np.ones((6, 9), dtype=bool)))
        assert (field.dist == (9 + 6) * 1.0).all()

    def test_zero_on_obstacles(self):
        rng = np.random.default_rng(4)
        free = rng.random((12, 12)) > 0.3
        field = distance_transform(grid_from_free(free))
        assert (field.dist[~free] == 0).all()

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            free = rng.random((16, 16)) > rng.uniform(0.05, 0.5)
            if free.all():
                continue
            field = distance_transform(grid_from_free(free))
            ys, xs = np.nonzero(~free)
            yy, xx = np.mgrid[0:16, 0:16]
            d2 = ((yy[..., None] - ys) ** 2 + (xx[..., None] - xs) ** 2).min(axis=-1)
            brute = np.sqrt(d2.astype(np.float64))
            assert np.array_equal(field.dist, brute)

    def test_lipschitz_between_neighbors(self):
        rng = np.random.default_rng(6)
        free = rng.random((20, 20)) > 0.25
        d = distance_transform(grid_from_free(free)).dist
        assert np.all(np.abs(d[:, 1:] - d[:, :-1]) <= 1.0 + 1e-9)
        assert np.all(np.abs(d[1:, :] - d[:-1, :]) <= 1.0 + 1e-9)
        assert np.all(np.abs(d[1:, 1:] - d[:-1, :-1]) <= math.sqrt(2) + 1e-9)


class TestEdgeWeight:
    def field_const(self, value, shape=(12, 12)):
        return DistanceField(dist=np.full(shape, float(value)), resolution=1.0, sentinel=24.0)

    def test_printed_formula(self):
        field = self.field_const(4.0)
        w = edge_weight((0, 0), (3, 4), field, lam=1.0)
        assert w == pytest.approx(5 + 16 + 2)

    def test_grazing_clearance_vanishes(self):
        field = self.field_const(0.0)
        w = edge_weight((0, 0), (3, 4), field, lam=2.0)
        assert w == pytest.approx(2.0 * 5.0)

    def test_lambda_zero_matches_sampler_oracle(self):
        rng = np.random.default_rng(7)
        dist = rng.uniform(0, 10, size=(20, 20))
        field = DistanceField(dist=dist, resolution=1.0, sentinel=40.0)
        for _ in range(50):
            u = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            v = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            w = edge_weight(u, v, field, lam=0.0)
            cells = supercover_oracle(u, v)
            m = min(dist[iy, ix] for ix, iy in cells)
            assert w == pytest.approx(m * m + math.sqrt(m))


def build_roadmap(free, radius, close_radius=0):
    grid = grid_from_free(free)
    field = distance_transform(grid)
    rm = Roadmap(radius=radius)
    rm, vis = update_roadmap(rm, None, grid, field)
    return rm, vis, grid, field


class TestRoadmapConstruction:
    def test_open_square_single_node(self):
        free = np.ones((20, 20), dtype=bool)
        rm, vis, grid, field = build_roadmap(free, radius=40.0)
        assert len(rm.nodes) == 1
        covered = vis.cover > 0
        assert covered[free].all()

    def test_walled_square_node_at_clearance_max(self):
        free = np.zeros((21, 21), dtype=bool)
        free[1:20, 1:20] = True
        rm, vis, grid, field = build_roadmap(free, radius=60.0)
        assert len(rm.nodes) == 1
        (cell,) = rm.nodes.values()
        assert cell == (10, 10)

    def test_two_rooms_coverage_and_connectivity(self):
        free = np.zeros((20, 34), dtype=bool)
        free[2:18, 2:14] = True    # room A
        free[2:18, 20:32] = True   # room B
        free[9:12, 14:20] = True   # corridor
        rm, vis, grid, field = build_roadmap(free, radius=7.0)
        # oracle: free space is one flood-fill component
        assert _flood_components(free) == 1
        assert (vis.cover[free] > 0).all()
        comps = rm.components()
        assert len(set(comps.values())) == 1

    def test_visibility_invariant_and_symmetry(self):
        rng = np.random.default_rng(8)
        free = rng.random((24, 24)) > 0.25
        rm, vis, grid, field = build_roadmap(free, radius=9.0)
        r_cells = 9.0
        for nid, (nx, ny) in rm.nodes.items():
            for flat in vis.node_cells[nid]:
                ix, iy = flat % 24, flat // 24
                assert (ix - nx) ** 2 + (iy - ny) ** 2 <= r_cells**2 + 1e-9
                assert segment_free((nx, ny), (ix, iy), free)
                assert segment_free((ix, iy), (nx, ny), free)

    def test_edges_are_collision_free(self):
        rng = np.random.default_rng(9)
        free = rng.random((30, 30)) > 0.2
        rm, vis, grid, field = build_roadmap(free, radius=10.0)
        for (a, b), (w, m) in rm.edges.items():
            assert segment_free(rm.nodes[a], rm.nodes[b], free)
            assert m == pytest.approx(segment_min_value(rm.nodes[a], rm.nodes[b], field.dist))

    def test_incremental_reveal_keeps_nodes(self):
        cls = np.full((24, 24), int(SemanticClass.UNKNOWN))
        cls[2:12, 2:12] = SemanticClass.ROAD
        m1 = class_map(cls.copy())
        grid1 = extract_traversability(m1, 0)
        field1 = distance_transform(grid1)
        rm = Roadmap(radius=8.0)
        rm, vis = update_roadmap(rm, None, grid1, field1)
        nodes_v1 = dict(rm.nodes)
        assert len(nodes_v1) >= 1

        cls[2:22, 2:22] = SemanticClass.ROAD
        m2 = class_map(cls.copy())
        grid2 = extract_traversability(m2, 0)
        field2 = distance_transform(grid2)
        rm, vis = update_roadmap(rm, vis, grid2, field2)
        for nid, cell in nodes_v1.items():
            assert rm.nodes.get(nid) == cell
        assert len(rm.nodes) >= len(nodes_v1)
        assert (vis.cover[grid2.free] > 0).all()


#: sha256 of the three roadmap states grown over ``incremental_versions``,
#: recorded from the code that still removed nodes and revalidated edges
#: for versions that lose free cells.
GOLDEN_ROADMAP_SHA256 = "48dd47c1282612be017d7e997f57dd2d130771414fbad71de426b03f9c33fe58"


def incremental_versions():
    """Three growing map versions of one seeded 24x24 grid with about 20%
    clutter: columns below 7 revealed, then below 13, then all of it."""
    rng = np.random.default_rng(11)
    base = rng.random((24, 24)) > 0.2
    first = base.copy()
    first[:, 7:] = False
    second = base.copy()
    second[:, 13:] = False
    return [first, second, base]


class TestIncrementalRoadmap:
    RADIUS = 8.0

    @pytest.fixture(scope="class")
    def steps(self):
        """Copies of the roadmap state after each update of one growing roadmap."""
        rm, vis = Roadmap(radius=self.RADIUS), None
        out = []
        for free in incremental_versions():
            grid = grid_from_free(free)
            field = distance_transform(grid)
            rm, vis = update_roadmap(rm, vis, grid, field)
            out.append(
                {
                    "free": free,
                    "field": field,
                    "nodes": dict(rm.nodes),
                    "edges": dict(rm.edges),
                    "adj": {n: set(a) for n, a in rm.adj.items()},
                    "cells": {n: set(c) for n, c in vis.node_cells.items()},
                }
            )
        return out

    def test_golden_roadmap(self, steps):
        h = hashlib.sha256()
        for s in steps:
            h.update(repr((sorted(s["nodes"].items()), sorted(s["edges"].items()))).encode())
        assert h.hexdigest() == GOLDEN_ROADMAP_SHA256

    def test_shrinking_version_rejected(self):
        _, left, base = incremental_versions()
        grid = grid_from_free(base)
        rm, vis = update_roadmap(Roadmap(radius=self.RADIUS), None, grid, distance_transform(grid))
        nodes, edges = dict(rm.nodes), dict(rm.edges)
        cells = {n: set(c) for n, c in vis.node_cells.items()}
        grid = grid_from_free(left)
        with pytest.raises(ValueError):
            update_roadmap(rm, vis, grid, distance_transform(grid))
        assert rm.nodes == nodes
        assert rm.edges == edges
        assert vis.node_cells == cells

    def test_every_weight_fresh_after_each_update(self, steps):
        for s in steps:
            nodes, field = s["nodes"], s["field"]
            assert s["edges"]
            for (a, b), (w, m) in s["edges"].items():
                assert w > 0.0 and m > 0.0, (a, b)
                assert m == segment_min_value(nodes[a], nodes[b], field.dist), (a, b)
                assert w == edge_weight(nodes[a], nodes[b], field), (a, b)

    def test_overlapping_pairs_are_bridged(self, steps):
        reach2 = (2 * self.RADIUS) ** 2
        for s in steps:
            nodes, adj, cells = s["nodes"], s["adj"], s["cells"]
            occupied = {iy * 24 + ix for ix, iy in nodes.values()}
            ids = sorted(nodes)
            checked = 0
            for i, a in enumerate(ids):
                for b in ids[i + 1 :]:
                    (ax, ay), (bx, by) = nodes[a], nodes[b]
                    if (ax - bx) ** 2 + (ay - by) ** 2 > reach2:
                        continue
                    overlap = cells[a] & cells[b]
                    if overlap <= occupied:
                        continue
                    assert b in adj[a] or adj[a] & adj[b], (a, b)
                    checked += 1
            assert checked > 0


def _flood_components(free):
    seen = np.zeros_like(free)
    comps = 0
    for sy, sx in zip(*np.nonzero(free)):
        if seen[sy, sx]:
            continue
        comps += 1
        stack = [(sy, sx)]
        seen[sy, sx] = True
        while stack:
            y, x = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < free.shape[0] and 0 <= nx < free.shape[1]:
                        if free[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
    return comps


def grid_dijkstra_cost(free, field, start, goal, lam=1.0):
    """8-connected oracle with per-step distance+clearance weights."""
    h, w = free.shape
    dist = {start: 0.0}
    heap = [(0.0, 0, start)]
    counter = 0
    while heap:
        d, _, cell = heapq.heappop(heap)
        if cell == goal:
            return d
        if d > dist.get(cell, math.inf):
            continue
        x, y = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                nx, ny = x + dx, y + dy
                if not (0 <= nx < w and 0 <= ny < h) or not free[ny, nx]:
                    continue
                if dx != 0 and dy != 0 and not (free[y, nx] and free[ny, x]):
                    continue
                m = min(field.dist[y, x], field.dist[ny, nx])
                nd = d + lam * math.hypot(dx, dy) + m * m + math.sqrt(m)
                if nd < dist.get((nx, ny), math.inf):
                    dist[(nx, ny)] = nd
                    counter += 1
                    heapq.heappush(heap, (nd, counter, (nx, ny)))
    return math.inf


class TestPlan:
    def room_world(self):
        free = np.zeros((20, 34), dtype=bool)
        free[2:18, 2:14] = True
        free[2:18, 20:32] = True
        free[9:12, 14:20] = True
        return build_roadmap(free, radius=7.0)

    def test_direct_line_collapses(self):
        free = np.ones((15, 15), dtype=bool)
        rm, vis, grid, field = build_roadmap(free, radius=30.0)
        res = plan(rm, vis, grid, field, (2, 2), (12, 11))
        assert res.ok
        assert res.waypoints == [(2, 2), (12, 11)]

    def test_goal_in_unknown_region_unmapped(self):
        cls = np.full((16, 16), int(SemanticClass.UNKNOWN))
        cls[2:14, 2:8] = SemanticClass.ROAD
        grid = extract_traversability(class_map(cls), 0)
        field = distance_transform(grid)
        rm = Roadmap(radius=10.0)
        rm, vis = update_roadmap(rm, None, grid, field)
        res = plan(rm, vis, grid, field, (4, 4), (12, 12))
        assert not res.ok
        assert res.reason == "unmapped"

    def test_known_obstacle_goal_unreachable(self):
        cls = np.full((12, 12), int(SemanticClass.ROAD))
        cls[5:8, 5:8] = SemanticClass.BUILDING
        grid = extract_traversability(class_map(cls), 0)
        field = distance_transform(grid)
        rm = Roadmap(radius=20.0)
        rm, vis = update_roadmap(rm, None, grid, field)
        res = plan(rm, vis, grid, field, (1, 1), (6, 6))
        assert not res.ok
        assert res.reason == "unreachable"

    def test_disconnected_rooms_unreachable(self):
        free = np.zeros((10, 21), dtype=bool)
        free[2:8, 2:9] = True
        free[2:8, 12:19] = True
        rm, vis, grid, field = build_roadmap(free, radius=6.0)
        res = plan(rm, vis, grid, field, (4, 4), (15, 4))
        assert not res.ok
        assert res.reason == "unreachable"

    def test_path_through_corridor(self):
        rm, vis, grid, field = self.room_world()
        res = plan(rm, vis, grid, field, (4, 4), (30, 16))
        assert res.ok
        assert res.waypoints[0] == (4, 4)
        assert res.waypoints[-1] == (30, 16)
        for a, b in zip(res.waypoints, res.waypoints[1:]):
            assert segment_free(a, b, grid.free)

    def test_path_min_clearance_matches_segments(self):
        rm, vis, grid, field = self.room_world()
        res = plan(rm, vis, grid, field, (4, 4), (30, 16))
        m = min(segment_min_value(a, b, field.dist) for a, b in zip(res.waypoints, res.waypoints[1:]))
        assert res.min_clearance == pytest.approx(m)

    def test_random_queries_collision_free_and_bounded(self):
        rng = np.random.default_rng(10)
        built = 0
        checked = 0
        while built < 6:
            free = np.ones((24, 24), dtype=bool)
            for _ in range(5):
                x, y = rng.integers(2, 20, size=2)
                free[y : y + int(rng.integers(2, 6)), x : x + int(rng.integers(2, 6))] = False
            if _flood_components(free) != 1:
                continue
            built += 1
            rm, vis, grid, field = build_roadmap(free, radius=9.0)
            ys, xs = np.nonzero(free)
            for _ in range(10):
                i, j = rng.integers(0, len(xs), size=2)
                start = (int(xs[i]), int(ys[i]))
                goal = (int(xs[j]), int(ys[j]))
                res = plan(rm, vis, grid, field, start, goal)
                assert res.ok, (start, goal)
                checked += 1
                # independent point-sampling collision oracle
                for a, b in zip(res.waypoints, res.waypoints[1:]):
                    ax, ay = a[0] + 0.5, a[1] + 0.5
                    bx, by = b[0] + 0.5, b[1] + 0.5
                    steps = max(2, int(math.hypot(bx - ax, by - ay) / 0.01))
                    for k in range(steps + 1):
                        t = k / steps
                        px, py = ax + t * (bx - ax), ay + t * (by - ay)
                        assert free[min(int(py), 23), min(int(px), 23)], (a, b, px, py)
                oracle = grid_dijkstra_cost(free, field, start, goal)
                assert res.cost <= 1.5 * oracle + 1e-9
        assert checked >= 60
