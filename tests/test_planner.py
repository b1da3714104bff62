"""Planner: traversability, distance transform, roadmap, path queries."""

import hashlib
import heapq
import math

import numpy as np
import pytest

from semteam import planner
from semteam.geometry import segment_cells, segments_min_value, visible_from
from semteam.planner import (
    Roadmap,
    TraversabilityGrid,
    VisibilityMap,
    _window_obstacles,
    distance_transform,
    edge_weights,
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
        observed=observed,
        version=1,
    )


def grid_from_free(free, resolution=1.0):
    free = np.array(free, dtype=bool)
    dist = distance_transform(free, resolution)
    return TraversabilityGrid(free=free, dist=dist, resolution=resolution)


def grid_of_dist(dist, resolution=1.0):
    """A grid with the given clearance, free where it is positive."""
    return TraversabilityGrid(free=dist > 0, dist=dist, resolution=resolution)


def segment_free(u, v, free):
    """True iff every cell of the segment's supercover is free."""
    ixs, iys = segment_cells(u, v)
    return bool(free[iys, ixs].all())


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

    @staticmethod
    def visibility_cases():
        """(free, node, candidate xs, candidate ys): a node on each of 40
        random grids and the free cells within a random radius of it."""
        rng = np.random.default_rng(12)
        for _ in range(40):
            free = rng.random((20, 20)) > rng.uniform(0.05, 0.4)
            fy, fx = np.nonzero(free)
            k = int(rng.integers(0, fx.size))
            node = (int(fx[k]), int(fy[k]))
            r = float(rng.uniform(2.0, 12.0))
            disc = (fx - node[0]) ** 2 + (fy - node[1]) ** 2 <= r**2
            yield free, node, fx[disc], fy[disc]

    def test_visible_from_matches_segment_free(self):
        """A node's visible region is exactly the free cells within its radius
        that a clear segment reaches, which roadmap edges rely on."""
        checked = 0
        for free, node, cand_ix, cand_iy in self.visibility_cases():
            ob_ix, ob_iy = _window_obstacles(free, node, cand_ix, cand_iy)
            seen = visible_from(node, cand_ix, cand_iy, ob_ix, ob_iy)
            for ix, iy, s in zip(cand_ix.tolist(), cand_iy.tolist(), seen.tolist()):
                assert s == segment_free(node, (ix, iy), free), (node, (ix, iy))
                checked += 1
        assert checked > 2000

    def test_positive_clearance_iff_segment_free(self):
        """plan() takes a segment as clear when its least clearance is above
        0, which must hold exactly when every cell it touches is free."""
        cases = [(grid_from_free(free), [(*node, ix, iy) for ix, iy in zip(cand_ix.tolist(), cand_iy.tolist())])
                 for free, node, cand_ix, cand_iy in self.visibility_cases()]
        rng = np.random.default_rng(13)
        kinds = [SemanticClass.ROAD, SemanticClass.DIRT_GRAVEL, SemanticClass.GRASS, SemanticClass.UNKNOWN]
        unknown_and_free = 0
        for k in range(40):
            # the first grid is all road: no obstacle, only the sentinel
            weights = [1.0, 0.0, 0.0, 0.0] if k == 0 else rng.dirichlet(np.ones(len(kinds)))
            classes = np.array(kinds, dtype=np.int8)[rng.choice(len(kinds), size=(20, 24), p=weights)]
            grid = extract_traversability(class_map(classes), close_radius=k % 3)
            unknown_and_free += bool((classes == SemanticClass.UNKNOWN).any() and grid.free.any())
            cases.append((grid, rng.integers(0, [24, 20, 24, 20], size=(100, 4)).tolist()))
        assert cases[40][0].free.all() and unknown_and_free
        checked = clear = 0
        for grid, segs in cases:
            got = (segments_min_value(segs, grid.dist) > 0).tolist()
            want = [segment_free(s[:2], s[2:], grid.free) for s in segs]
            assert got == want
            checked += len(segs)
            clear += sum(want)
        assert checked > 7000 and 0 < clear < checked

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        free = rng.random((24, 24)) > 0.3
        for _ in range(100):
            u = (int(rng.integers(0, 24)), int(rng.integers(0, 24)))
            v = (int(rng.integers(0, 24)), int(rng.integers(0, 24)))
            assert segment_free(u, v, free) == segment_free(v, u, free)


class TestQuadrantVisibility:
    """``visible_from`` tests each quadrant around the node against the
    obstacles on its side only; these cases sit on the quadrants' edges."""

    @staticmethod
    def check(free, node, cand_ix, cand_iy):
        """``visible_from`` against ``segment_free``, given the window's
        blob-boundary obstacles and given every obstacle of the grid; the
        oracle's answers."""
        cand_ix, cand_iy = np.asarray(cand_ix, dtype=np.int64), np.asarray(cand_iy, dtype=np.int64)
        want = [segment_free(node, (ix, iy), free) for ix, iy in zip(cand_ix.tolist(), cand_iy.tolist())]
        oy, ox = np.nonzero(~free)
        for ob_ix, ob_iy in (_window_obstacles(free, node, cand_ix, cand_iy), (ox, oy)):
            assert visible_from(node, cand_ix, cand_iy, ob_ix, ob_iy).tolist() == want, node
        return want

    def test_candidates_and_obstacles_on_the_nodes_row_and_column(self):
        rng = np.random.default_rng(21)
        seen = blocked = 0
        for _ in range(20):
            free = rng.random((17, 17)) > 0.15
            node = (int(rng.integers(2, 15)), int(rng.integers(2, 15)))
            free[node[1], node[0]] = True
            # an obstacle on each half of the node's row and column
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                k = int(rng.integers(2, 5))
                x, y = node[0] + k * dx, node[1] + k * dy
                if 0 <= x < 17 and 0 <= y < 17:
                    free[y, x] = False
            ys, xs = np.nonzero(free)
            line = (xs == node[0]) | (ys == node[1])
            want = self.check(free, node, xs[line], ys[line])
            # and the cells one step off those lines, whose segments graze them
            near = (np.abs(xs - node[0]) == 1) | (np.abs(ys - node[1]) == 1)
            want += self.check(free, node, xs[near], ys[near])
            seen += sum(want)
            blocked += len(want) - sum(want)
        assert seen > 100 and blocked > 100

    @pytest.mark.parametrize("step", [(1, 1), (1, -1), (-1, 1), (-1, -1), (1, 3), (-3, 1), (3, -1)])
    def test_an_obstacle_touching_a_segment_at_a_corner_blocks_it(self, step):
        # the segment from (7, 7) along ``step`` passes exactly through the
        # lattice point between the node's next cells; an obstacle that
        # shares only that corner with the segment still blocks it
        sx, sy = step
        node = (7, 7)
        cand = (node[0] + 2 * sx, node[1] + 2 * sy)
        corner_x = node[0] + 0.5 + sx / 2
        corner_y = node[1] + 0.5 + sy / 2
        assert corner_x.is_integer() and corner_y.is_integer()
        free = np.ones((15, 15), dtype=bool)
        assert self.check(free, node, [cand[0]], [cand[1]]) == [True]
        # the four cells around the corner: two hold the segment, two only touch it
        for ox in (int(corner_x) - 1, int(corner_x)):
            for oy in (int(corner_y) - 1, int(corner_y)):
                if (ox, oy) == node:
                    continue
                free[:] = True
                free[oy, ox] = False
                assert self.check(free, node, [cand[0]], [cand[1]]) == [False], (ox, oy)

    @pytest.mark.parametrize("node", [(0, 0), (16, 0), (0, 16), (16, 16), (0, 8), (16, 5), (9, 0), (4, 16)])
    def test_a_node_on_the_grid_rim(self, node):
        rng = np.random.default_rng(node[0] * 17 + node[1])
        free = rng.random((17, 17)) > 0.2
        free[node[1], node[0]] = True
        ys, xs = np.nonzero(free)
        want = self.check(free, node, xs, ys)
        assert 0 < sum(want) < len(want)

    def test_quadrants_without_obstacles(self):
        rng = np.random.default_rng(22)
        node = (8, 8)
        for east, north in ((True, True), (True, False), (False, True), (False, False)):
            # obstacles only strictly inside one quadrant: the other three
            # test against none and see every candidate
            free = np.ones((17, 17), dtype=bool)
            xs_q = np.arange(9, 17) if east else np.arange(0, 8)
            ys_q = np.arange(9, 17) if north else np.arange(0, 8)
            block = rng.random((8, 8)) < 0.3
            free[np.ix_(ys_q, xs_q)] = ~block
            ys, xs = np.nonzero(free)
            want = self.check(free, node, xs, ys)
            inside = ((xs > 8) == east) & ((ys > 8) == north) & (xs != 8) & (ys != 8)
            assert all(w for w, i in zip(want, inside.tolist()) if not i)
            assert not all(w for w, i in zip(want, inside.tolist()) if i)


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

    def test_grid_is_read_only(self):
        # a roadmap keeps the last version's grid to compare the next one with
        cls = np.full((8, 8), int(SemanticClass.ROAD))
        cls[0:4, 0:4] = SemanticClass.UNKNOWN
        grid = extract_traversability(class_map(cls), close_radius=1)
        for layer in (grid.free, grid.dist):
            with pytest.raises(ValueError):
                layer[0, 0] = layer[7, 7]

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
        grid = grid_from_free(free, resolution=2.0)
        assert grid.dist[4, 3] == pytest.approx(5 * 2.0)

    def test_no_obstacles_sentinel(self):
        grid = grid_from_free(np.ones((6, 9), dtype=bool))
        assert (grid.dist == (9 + 6) * 1.0).all()

    def test_zero_on_obstacles(self):
        rng = np.random.default_rng(4)
        free = rng.random((12, 12)) > 0.3
        grid = grid_from_free(free)
        assert (grid.dist[~free] == 0).all()

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            free = rng.random((16, 16)) > rng.uniform(0.05, 0.5)
            if free.all():
                continue
            grid = grid_from_free(free)
            ys, xs = np.nonzero(~free)
            yy, xx = np.mgrid[0:16, 0:16]
            d2 = ((yy[..., None] - ys) ** 2 + (xx[..., None] - xs) ** 2).min(axis=-1)
            brute = np.sqrt(d2.astype(np.float64))
            assert np.array_equal(grid.dist, brute)

    def test_lipschitz_between_neighbors(self):
        rng = np.random.default_rng(6)
        free = rng.random((20, 20)) > 0.25
        d = grid_from_free(free).dist
        assert np.all(np.abs(d[:, 1:] - d[:, :-1]) <= 1.0 + 1e-9)
        assert np.all(np.abs(d[1:, :] - d[:-1, :]) <= 1.0 + 1e-9)
        assert np.all(np.abs(d[1:, 1:] - d[:-1, :-1]) <= math.sqrt(2) + 1e-9)


class TestEdgeWeight:
    def grid_const(self, value, shape=(12, 12)):
        return grid_of_dist(np.full(shape, float(value)))

    def test_printed_formula(self):
        grid = self.grid_const(4.0)
        w = edge_weights([(0, 0, 3, 4)], grid)[0]
        assert w == pytest.approx(5 + 16 + 2)

    def test_grazing_clearance_vanishes(self):
        grid = self.grid_const(0.0)
        w = edge_weights([(0, 0, 3, 4)], grid)[0]
        assert w == pytest.approx(5.0)

    def test_lambda_zero_matches_sampler_oracle(self):
        rng = np.random.default_rng(7)
        dist = rng.uniform(0, 10, size=(20, 20))
        grid = grid_of_dist(dist)
        for _ in range(50):
            u = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            v = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            w = edge_weights([(*u, *v)], grid)[0]
            length = math.hypot(u[0] - v[0], u[1] - v[1])
            cells = supercover_oracle(u, v)
            m = min(dist[iy, ix] for ix, iy in cells)
            assert w - length == pytest.approx(m * m + math.sqrt(m))


def build_roadmap(free, radius, close_radius=0):
    grid = grid_from_free(free)
    rm, vis = update_roadmap(grid, radius)
    return rm, vis, grid


class TestRoadmapConstruction:
    def test_open_square_single_node(self):
        free = np.ones((20, 20), dtype=bool)
        rm, vis, grid = build_roadmap(free, radius=40.0)
        assert len(rm.nodes) == 1
        covered = vis.cover > 0
        assert covered[free].all()

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_a_radius_that_is_not_positive_raises(self, radius):
        with pytest.raises(ValueError, match="radius"):
            update_roadmap(grid_from_free(np.ones((4, 4), dtype=bool)), radius)

    def test_walled_square_node_at_clearance_max(self):
        free = np.zeros((21, 21), dtype=bool)
        free[1:20, 1:20] = True
        rm, vis, grid = build_roadmap(free, radius=60.0)
        assert len(rm.nodes) == 1
        (cell,) = rm.nodes.values()
        assert cell == (10, 10)

    def test_two_rooms_coverage_and_connectivity(self):
        free = np.zeros((20, 34), dtype=bool)
        free[2:18, 2:14] = True    # room A
        free[2:18, 20:32] = True   # room B
        free[9:12, 14:20] = True   # corridor
        rm, vis, grid = build_roadmap(free, radius=7.0)
        # oracle: free space is one flood-fill component
        assert _flood_components(free) == 1
        assert (vis.cover[free] > 0).all()
        # every node is reachable from one node over the roadmap's edges
        first = min(rm.nodes)
        seen, stack = {first}, [first]
        while stack:
            for nb in rm.adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert len(rm.nodes) > 1
        assert seen == set(rm.nodes)

    def test_visibility_invariant_and_symmetry(self):
        rng = np.random.default_rng(8)
        free = rng.random((24, 24)) > 0.25
        rm, vis, grid = build_roadmap(free, radius=9.0)
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
        rm, vis, grid = build_roadmap(free, radius=10.0)
        for (a, b), w in rm.edges.items():
            assert segment_free(rm.nodes[a], rm.nodes[b], free)
            assert w == pytest.approx(edge_weights([(*rm.nodes[a], *rm.nodes[b])], grid)[0])


#: sha256 of the three roadmaps built fresh on ``incremental_versions``
GOLDEN_ROADMAP_SHA256 = "c443f50db5eb7e255c1eefba305048df5282934fedcd57804e52a0292a4ac526"


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
        """The roadmap state built fresh on each version."""
        out = []
        for free in incremental_versions():
            grid = grid_from_free(free)
            rm, vis = update_roadmap(grid, self.RADIUS)
            out.append(
                {
                    "free": free,
                    "grid": grid,
                    "nodes": dict(rm.nodes),
                    "edges": dict(rm.edges),
                    "adj": {n: set(a) for n, a in rm.adj.items()},
                    "cells": {n: set(c) for n, c in vis.node_cells.items()},
                }
            )
        return out

    def test_golden_roadmap(self, steps):
        # the hash was taken when each edge stored (weight, min clearance);
        # the clearance is rebuilt from the step's grid
        h = hashlib.sha256()
        for s in steps:
            nodes, dist = s["nodes"], s["grid"].dist
            edges = {
                (a, b): (w, float(segments_min_value([(*nodes[a], *nodes[b])], dist)[0]))
                for (a, b), w in s["edges"].items()
            }
            h.update(repr((sorted(nodes.items()), sorted(edges.items()))).encode())
        assert h.hexdigest() == GOLDEN_ROADMAP_SHA256

    def test_every_weight_fresh_after_each_update(self, steps):
        for s in steps:
            nodes, grid = s["nodes"], s["grid"]
            assert s["edges"]
            for (a, b), w in s["edges"].items():
                assert w > 0.0 and segments_min_value([(*nodes[a], *nodes[b])], grid.dist)[0] > 0.0, (a, b)
                assert w == edge_weights([(*nodes[a], *nodes[b])], grid)[0], (a, b)

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


def grid_dijkstra_cost(free, grid, start, goal):
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
                m = min(grid.dist[y, x], grid.dist[ny, nx])
                nd = d + math.hypot(dx, dy) + m * m + math.sqrt(m)
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
        rm, vis, grid = build_roadmap(free, radius=30.0)
        res = plan(rm, vis, grid, (2, 2), (12, 11))
        assert res.ok
        assert res.waypoints == [(2, 2), (12, 11)]

    def test_goal_in_unknown_region_unmapped(self):
        cls = np.full((16, 16), int(SemanticClass.UNKNOWN))
        cls[2:14, 2:8] = SemanticClass.ROAD
        grid = extract_traversability(class_map(cls), 0)
        rm, vis = update_roadmap(grid, 10.0)
        res = plan(rm, vis, grid, (4, 4), (12, 12))
        assert not res.ok

    def test_known_obstacle_goal_unreachable(self):
        cls = np.full((12, 12), int(SemanticClass.ROAD))
        cls[5:8, 5:8] = SemanticClass.BUILDING
        grid = extract_traversability(class_map(cls), 0)
        rm, vis = update_roadmap(grid, 20.0)
        res = plan(rm, vis, grid, (1, 1), (6, 6))
        assert not res.ok

    def test_disconnected_rooms_unreachable(self):
        free = np.zeros((10, 21), dtype=bool)
        free[2:8, 2:9] = True
        free[2:8, 12:19] = True
        rm, vis, grid = build_roadmap(free, radius=6.0)
        res = plan(rm, vis, grid, (4, 4), (15, 4))
        assert not res.ok

    def test_path_through_corridor(self):
        rm, vis, grid = self.room_world()
        res = plan(rm, vis, grid, (4, 4), (30, 16))
        assert res.ok
        assert res.waypoints[0] == (4, 4)
        assert res.waypoints[-1] == (30, 16)
        for a, b in zip(res.waypoints, res.waypoints[1:]):
            assert segment_free(a, b, grid.free)

    def test_cost_is_exact_sum_of_waypoint_edge_weights(self):
        # choose_goal ranks ROIs by this number
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(3):
            free = rng.random((20, 20)) > 0.2
            rm, vis, grid = build_roadmap(free, radius=6.0)
            ys, xs = np.nonzero(free)
            for _ in range(25):
                i, j = rng.integers(0, len(xs), size=2)
                res = plan(rm, vis, grid, (int(xs[i]), int(ys[i])), (int(xs[j]), int(ys[j])))
                if not res.ok:
                    continue
                total = 0.0
                for a, b in zip(res.waypoints, res.waypoints[1:]):
                    total += edge_weights([(*a, *b)], grid)[0]
                assert res.cost == total, res.waypoints
                checked += 1
        assert checked >= 50

    def test_equal_cost_tie_ignores_adjacency_set_order(self):
        # a block between start and goal, passed above via node 2 or below
        # via node 10 at exactly equal cost; ids 2 and 10 share a slot of a
        # small set's table, so the set lists them in insertion order
        free = np.ones((21, 21), dtype=bool)
        free[8:13, 8:13] = False
        grid = grid_from_free(free)
        start, goal = (2, 10), (18, 10)
        waypoints = []
        for order in ([2, 10], [10, 2]):
            rm = Roadmap()
            rm.nodes = {0: start, 1: goal, 2: (10, 3), 10: (10, 17)}
            rm.edges = {(0, 2): 10.0, (0, 10): 10.0, (1, 2): 10.0, (1, 10): 10.0}
            rm.adj = {0: set(), 1: {2, 10}, 2: {0, 1}, 10: {0, 1}}
            for nid in order:
                rm.adj[0].add(nid)
            assert list(rm.adj[0]) == order
            vis = VisibilityMap(21, 21)
            vis.add_cells(0, {vis.flat(start)})
            vis.add_cells(1, {vis.flat(goal)})
            res = plan(rm, vis, grid, start, goal)
            assert res.ok
            waypoints.append(res.waypoints)
        assert waypoints[0] == waypoints[1] == [start, (10, 3), goal]

    def test_goal_tie_goes_to_the_earliest_popped_node(self):
        # the goal sees nodes 2 and 10, reached at equal cost and each at the
        # same weight from the goal, so the node the search settles first
        # ends the route: node 10, whose start connector is pushed first
        free = np.ones((21, 21), dtype=bool)
        free[8:13, 8:13] = False
        grid = grid_from_free(free)
        start, goal = (2, 10), (18, 10)
        rm = Roadmap()
        rm.nodes = {2: (10, 3), 10: (10, 17)}
        rm.edges = {}
        rm.adj = {2: set(), 10: set()}
        vis = VisibilityMap(21, 21)
        for nid in (10, 2):
            vis.add_cells(nid, {vis.flat(start), vis.flat(goal)})
        to_goal = edge_weights([(10, 3, *goal), (10, 17, *goal)], grid)
        assert to_goal[0] == to_goal[1]
        for goals in ([goal], [goal, goal]):
            res = plan(rm, vis, grid, start, *goals)
            assert res.ok
            assert res.waypoints == [start, (10, 17), goal]

    def test_equally_cheap_goals_go_to_the_first(self):
        free = np.ones((21, 21), dtype=bool)
        rm, vis, grid = build_roadmap(free, radius=30.0)
        start, left, right = (10, 10), (4, 10), (16, 10)
        assert plan(rm, vis, grid, start, left).cost == plan(rm, vis, grid, start, right).cost
        assert plan(rm, vis, grid, start, left, right).waypoints == [start, left]
        assert plan(rm, vis, grid, start, right, left).waypoints == [start, right]

    @staticmethod
    def multi_goal_worlds():
        """Roadmaps on random grids of road, building and unknown cells,
        mostly in several pieces, with the grids' classes."""
        rng = np.random.default_rng(14)
        kinds = np.array([SemanticClass.ROAD, SemanticClass.BUILDING, SemanticClass.UNKNOWN], dtype=np.int8)
        for _ in range(4):
            classes = kinds[rng.choice(3, size=(20, 24), p=[0.72, 0.18, 0.10])]
            grid = extract_traversability(class_map(classes), 0)
            rm, vis = update_roadmap(grid, 6.0)
            yield rng, rm, vis, grid, classes

    def test_several_goals_equal_the_cheapest_one_goal_plan(self):
        def cheapest(rm, vis, grid, start, goals):
            best = None
            for goal in goals:
                res = plan(rm, vis, grid, start, goal)
                if best is None or (res.ok and (not best.ok or res.cost < best.cost)):
                    best = res
            return best

        seen = {"later goal": 0, "repeated": 0, "at start": 0, "failed": 0}
        seen.update({"unknown goal": 0, "obstacle goal": 0, "disconnected goal": 0})
        for rng, rm, vis, grid, classes in self.multi_goal_worlds():
            ys, xs = np.nonzero(grid.free)
            cells = [(ix, iy) for iy in range(20) for ix in range(24)]
            for _ in range(25):
                k = int(rng.integers(0, len(xs)))
                start = (int(xs[k]), int(ys[k]))
                goals = [cells[i] for i in rng.integers(0, len(cells), size=int(rng.integers(1, 7)))]
                if rng.random() < 0.3:
                    goals.insert(int(rng.integers(0, len(goals) + 1)), goals[int(rng.integers(0, len(goals)))])
                if rng.random() < 0.2:
                    goals.insert(int(rng.integers(0, len(goals) + 1)), start)
                res = plan(rm, vis, grid, start, *goals)
                want = cheapest(rm, vis, grid, start, goals)
                assert (res.ok, res.waypoints, res.cost.hex()) == (want.ok, want.waypoints, want.cost.hex()), (
                    start, goals,
                )
                # goals are routed nearest first: the order they are given in
                # must not matter beyond the first-goal rules
                far_first = sorted(goals, key=lambda g: math.dist(g, start), reverse=True)
                for order in (far_first, far_first[::-1]):
                    got, want = plan(rm, vis, grid, start, *order), cheapest(rm, vis, grid, start, order)
                    assert (got.ok, got.waypoints, got.cost.hex()) == (want.ok, want.waypoints, want.cost.hex()), (
                        start, order,
                    )
                if res.ok:
                    seen["later goal"] += goals.index(res.waypoints[-1]) > 0
                    seen["repeated"] += goals.count(res.waypoints[-1]) > 1
                    seen["at start"] += res.waypoints == [start]
                else:
                    # the start is free, so each free goal of a failed plan is
                    # one the roadmap does not reach
                    seen["failed"] += 1
                    for gx, gy in goals:
                        if grid.free[gy, gx]:
                            seen["disconnected goal"] += 1
                        elif classes[gy, gx] == SemanticClass.UNKNOWN:
                            seen["unknown goal"] += 1
                        else:
                            seen["obstacle goal"] += 1
        assert min(seen.values()) > 0, seen

    def test_only_goals_that_can_win_are_routed(self, monkeypatch):
        # a goal's pruned cost is at least its straight-line length times the
        # resolution, so a goal whose length alone costs more than the answer
        # (beyond a float-rounding margin of 1e-9) is never routed
        routed, searches = [], []
        route, search = planner._route, planner._search
        monkeypatch.setattr(planner, "_route", lambda *a: routed.append(a[4]) or route(*a))
        monkeypatch.setattr(planner, "_search", lambda *a: searches.append(a[3]) or search(*a))
        queries = skipped = 0
        for rng, rm, vis, grid, _ in self.multi_goal_worlds():
            ys, xs = np.nonzero(grid.free)
            for _ in range(25):
                i, *js = rng.integers(0, len(xs), size=int(rng.integers(2, 9)))
                start, goals = (int(xs[i]), int(ys[i])), [(int(xs[j]), int(ys[j])) for j in js]
                routed.clear()
                searches.clear()
                res = plan(rm, vis, grid, start, *goals)
                assert len(searches) <= 1
                if not res.ok:
                    continue
                queries += 1
                for goal in routed:
                    assert math.dist(goal, start) * grid.resolution <= res.cost * (1 + 1e-9), (start, goal, res.cost)
                # and every goal whose length alone costs no more than the answer is
                # routed, since it might have won
                for goal in goals:
                    if goal != start and math.dist(goal, start) * grid.resolution <= res.cost:
                        assert goal in routed, (start, goal, res.cost)
                skipped += len([g for g in goals if g != start]) - len(routed)
        assert queries > 50 and skipped > 50

    def test_no_goal_or_an_off_map_goal_raises(self):
        free = np.ones((10, 10), dtype=bool)
        rm, vis, grid = build_roadmap(free, radius=20.0)
        with pytest.raises(ValueError, match="goal"):
            plan(rm, vis, grid, (1, 1))
        with pytest.raises(ValueError, match="outside map bounds"):
            plan(rm, vis, grid, (1, 1), (2, 2), (10, 3))

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
            rm, vis, grid = build_roadmap(free, radius=9.0)
            ys, xs = np.nonzero(free)
            for _ in range(10):
                i, j = rng.integers(0, len(xs), size=2)
                start = (int(xs[i]), int(ys[i]))
                goal = (int(xs[j]), int(ys[j]))
                res = plan(rm, vis, grid, start, goal)
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
                oracle = grid_dijkstra_cost(free, grid, start, goal)
                assert res.cost <= 1.5 * oracle + 1e-9
        assert checked >= 60
