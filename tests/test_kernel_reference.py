"""The array kernels of the scan and filter hot path give exactly the floats
of their step-by-step loop versions, which are kept here as references, the
batched supercover minimum gives exactly the per-segment one, the disc
search gives the cells of a loop over the whole mask, the planner's
distance transform gives exactly SciPy's, and ROI clustering gives the
clusters of an all-pairs union-find.

The array code does the same arithmetic in the same order, so every result
is compared for equality (bit for bit where floats are involved), never
within a tolerance.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from semteam import geometry, mission, planner, world
from semteam.geometry import segment_cells, segments_min_value
from semteam.localize import FREE_LAYER, ParticleSet, PolarObservation, match_costs, match_table
from semteam.tracker import FREE_CELL, OBSTACLE_CELL, UNKNOWN_CELL
from semteam.world import (
    Scan,
    SemanticClass,
    SemanticGridMap,
    WorldModel,
    ground_scan,
    ground_scans,
    traversable,
    traversable_mask,
)

# ---------------------------------------------------------------------------
# reference loop versions


def ref_ground_scan(grid, pose, max_range, n_beams):
    """Step-by-step grid traversal, one DDA step for all beams per iteration."""
    x, y, yaw = pose
    ix0, iy0 = grid.cell_of(x, y)
    if not grid.in_bounds(ix0, iy0):
        raise ValueError(f"pose ({x}, {y}) outside map bounds")
    start_cls = grid.class_at(ix0, iy0)
    if not traversable(start_cls):
        return [(0.0, start_cls)] * n_beams

    state_pad = np.full((grid.height + 2, grid.width + 2), 2, dtype=np.uint8)
    state_pad[1:-1, 1:-1] = np.where(traversable_mask(grid.classes), 0, 1)

    res = grid.resolution
    az = yaw + 2.0 * math.pi * np.arange(n_beams) / n_beams
    dirx = np.cos(az)
    diry = np.sin(az)

    ix = np.full(n_beams, ix0, dtype=np.int64)
    iy = np.full(n_beams, iy0, dtype=np.int64)
    step_x = np.sign(dirx).astype(np.int64)
    step_y = np.sign(diry).astype(np.int64)

    with np.errstate(divide="ignore", invalid="ignore"):
        tdx = np.where(dirx != 0, res / np.abs(dirx), np.inf)
        tdy = np.where(diry != 0, res / np.abs(diry), np.inf)
        next_x = grid.origin_x + (ix + np.where(step_x > 0, 1, 0)) * res
        next_y = grid.origin_y + (iy + np.where(step_y > 0, 1, 0)) * res
        tmax_x = np.where(dirx != 0, (next_x - x) / dirx, np.inf)
        tmax_y = np.where(diry != 0, (next_y - y) / diry, np.inf)

    ranges = np.full(n_beams, float(max_range))
    hit_cls = np.full(n_beams, int(SemanticClass.UNKNOWN), dtype=np.int64)
    active = np.ones(n_beams, dtype=bool)

    max_steps = int(2 * max_range / res) + 4
    for _ in range(max_steps):
        if not active.any():
            break
        go_x = tmax_x <= tmax_y
        t_enter = np.where(go_x, tmax_x, tmax_y)
        ix = ix + np.where(go_x, step_x, 0)
        iy = iy + np.where(go_x, 0, step_y)
        tmax_x = tmax_x + np.where(go_x, tdx, 0.0)
        tmax_y = tmax_y + np.where(go_x, 0.0, tdy)

        state = state_pad[np.clip(iy, -1, grid.height) + 1, np.clip(ix, -1, grid.width) + 1]
        active = active & (state != 2) & (t_enter <= max_range)
        blocked = active & (state == 1)
        if blocked.any():
            t_exit = np.minimum(tmax_x, tmax_y)
            ranges[blocked] = 0.5 * (t_enter[blocked] + t_exit[blocked])
            hit_cls[blocked] = grid.classes[iy[blocked], ix[blocked]]
            active = active & ~blocked

    return [(float(r), SemanticClass(int(c))) for r, c in zip(ranges, hit_cls)]


def ref_from_scan(scan, n_azimuth=36, n_range=10, max_range=20.0, free_margin=1.0, free_stride=2):
    """Polar binning beam by beam: (local_dx, local_dy, bin_classes, free_dx, free_dy)."""
    pairs = pairs_of(scan)
    filled = np.zeros((n_azimuth, n_range), dtype=bool)
    n_beams = len(pairs)
    az_width = 2.0 * math.pi / n_azimuth
    rng_width = max_range / n_range
    dxs, dys, classes = [], [], []
    for i, (rng, hit_cls) in enumerate(pairs):
        if hit_cls == SemanticClass.UNKNOWN:
            continue
        offset = 2.0 * math.pi * i / n_beams
        ia = int(offset / az_width) % n_azimuth
        ir = min(int(rng / rng_width), n_range - 1)
        if not filled[ia, ir]:
            filled[ia, ir] = True
            dxs.append(rng * math.cos(offset))
            dys.append(rng * math.sin(offset))
            classes.append(int(hit_cls))
    fxs, fys = [], []
    for i, (rng, hit_cls) in enumerate(pairs):
        offset = 2.0 * math.pi * i / n_beams
        ia = int(offset / az_width) % n_azimuth
        r_stop = max_range if hit_cls == SemanticClass.UNKNOWN else rng - free_margin
        for k in range(0, n_range, max(1, free_stride)):
            r_k = (k + 0.5) * rng_width
            if r_k > r_stop:
                break
            if not filled[ia, k]:
                filled[ia, k] = True
                fxs.append(r_k * math.cos(offset))
                fys.append(r_k * math.sin(offset))
    return (
        np.asarray(dxs),
        np.asarray(dys),
        np.asarray(classes, dtype=np.int64),
        np.asarray(fxs),
        np.asarray(fys),
    )


_DRIVABLE_BITS = (1 << int(SemanticClass.ROAD)) | (1 << int(SemanticClass.DIRT_GRAVEL))


def ref_class_neighborhoods(grid):
    """Per-cell bitmask of classes present in the 3x3 neighborhood."""
    bits = (1 << grid.classes.astype(np.int64)).astype(np.int64)
    bits[grid.classes == SemanticClass.UNKNOWN] = 0
    padded = np.zeros((grid.height + 2, grid.width + 2), dtype=np.int64)
    padded[1:-1, 1:-1] = bits
    near = np.zeros_like(bits)
    for dy_ in (0, 1, 2):
        for dx_ in (0, 1, 2):
            near |= padded[dy_ : dy_ + grid.height, dx_ : dx_ + grid.width]
    return near


def ref_match_costs(particles, obs, grid, unknown_cost):
    """Mismatch per particle from bitmask neighborhoods and full-size masks."""
    if obs.n_filled == 0:
        return np.zeros(particles.n)
    all_expected = np.where(obs.layer == FREE_LAYER, -1, obs.layer)
    c, s = np.cos(particles.yaws)[:, None], np.sin(particles.yaws)[:, None]
    dx, dy = obs.dx[None, :], obs.dy[None, :]
    inv_res = 1.0 / grid.resolution
    u = (particles.xs[:, None] - grid.origin_x) * inv_res + (c * dx - s * dy) * inv_res
    v = (particles.ys[:, None] - grid.origin_y) * inv_res + (s * dx + c * dy) * inv_res
    np.floor(u, out=u)
    np.floor(v, out=v)
    inside = (u >= 0) & (u < grid.width) & (v >= 0) & (v < grid.height)
    ix = u.astype(np.int32)
    iy = v.astype(np.int32)
    np.clip(ix, 0, grid.width - 1, out=ix)
    np.clip(iy, 0, grid.height - 1, out=iy)
    cls = grid.classes[iy, ix]
    near = ref_class_neighborhoods(grid)[iy, ix]

    expected = all_expected[None, :]
    is_free_bin = expected < 0
    drivable_near = (near & _DRIVABLE_BITS) != 0
    cls_near = (near & (1 << np.where(is_free_bin, 0, expected))) != 0
    mismatch = np.where(is_free_bin, ~drivable_near, ~cls_near).astype(np.float64)
    per_bin = np.where(~inside | (cls == SemanticClass.UNKNOWN), unknown_cost, mismatch)
    return per_bin.sum(axis=1) / obs.n_filled


def ref_segment_min_value(u, v, field):
    """Field minimum over one segment's supercover, one segment per call."""
    ixs, iys = segment_cells(u, v)
    return float(field[iys, ixs].min())


def ref_edge_weight(u, v, grid):
    """Roadmap edge weight from the one-segment minimum."""
    m = ref_segment_min_value(u, v, grid.dist)
    return math.hypot(u[0] - v[0], u[1] - v[1]) * grid.resolution + (m * m + math.sqrt(m))


def ref_visible_from(node, cand_ix, cand_iy, obst_ix, obst_iy):
    """Every candidate against every obstacle, in one slab test with both
    faces ordered by ``_axis_intervals``: visibility before the quadrant
    split."""
    blocked = np.zeros(cand_ix.size, dtype=bool)
    if obst_ix.size == 0:
        return ~blocked
    px, py = node[0] + 0.5, node[1] + 0.5
    with np.errstate(divide="ignore"):
        lo, hi = geometry._axis_intervals(px, (cand_ix + 0.5)[:, None] - px, obst_ix)
        ty_lo, ty_hi = geometry._axis_intervals(py, (cand_iy + 0.5)[:, None] - py, obst_iy)
    lo = np.maximum(np.maximum(lo, ty_lo), 0.0)
    hi = np.minimum(np.minimum(hi, ty_hi), 1.0)
    return ~(lo <= hi).any(axis=1)


def ref_bridge(roadmap, vis, grid, r_cells):
    """Bridge the lexicographically first bridgeable pair, then rescan every
    pair from the start, until no pair is bridgeable: the order ``_bridge``
    keeps with its worklist. Returns the number of bridge nodes."""
    w = grid.shape[1]
    reach2 = (2 * r_cells) ** 2
    dist = grid.dist.reshape(-1)
    nodes, adj = roadmap.nodes, roadmap.adj
    added = 0
    while True:
        occupied = set(nodes.values())
        for a, b in itertools.combinations(sorted(nodes), 2):
            (ax, ay), (bx, by) = nodes[a], nodes[b]
            if (ax - bx) ** 2 + (ay - by) ** 2 > reach2 or b in adj[a] or adj[a] & adj[b]:
                continue
            open_cells = [f for f in sorted(vis.node_cells[a] & vis.node_cells[b]) if (f % w, f // w) not in occupied]
            if open_cells:
                # the highest clearance, the lowest flat index on ties
                best = max(open_cells, key=lambda f: dist[f])
                planner._add_node(roadmap, vis, grid, (best % w, best // w), r_cells)
                added += 1
                break
        else:
            return added


def ref_close(mask, radius):
    """Morphological close by a Euclidean disc, from SciPy's distance
    transform: the planner's close as it was written against SciPy."""
    if radius <= 0 or not mask.any() or mask.all():
        return mask.copy()
    dilated = distance_transform_edt(~mask) <= radius
    if dilated.all():
        return dilated
    return distance_transform_edt(dilated) > radius


def ref_clusters(grid_map, cluster_radius):
    """Single-linkage clusters of vehicle cells as sorted cell tuples: every
    pair within the radius joined by a union-find."""
    iys, ixs = np.nonzero(grid_map.classes == int(SemanticClass.VEHICLE))
    n = ixs.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    limit2 = (cluster_radius / grid_map.resolution) ** 2
    for i in range(n):
        for j in range(i + 1, n):
            if (ixs[i] - ixs[j]) ** 2 + (iys[i] - iys[j]) ** 2 <= limit2:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append((int(ixs[i]), int(iys[i])))
    return [tuple(sorted(cells)) for cells in clusters.values()]


# ---------------------------------------------------------------------------
# helpers


def make_map(classes, resolution=1.0, origin=(0.0, 0.0)):
    classes = np.asarray(classes, dtype=np.int8)
    h, w = classes.shape
    return SemanticGridMap(
        origin_x=origin[0],
        origin_y=origin[1],
        resolution=resolution,
        width=w,
        height=h,
        classes=classes,
        observed=classes != SemanticClass.UNKNOWN,
        version=1,
    )


def cluttered_classes(rng, w, h, blocked=0.15, unknown=0.0):
    """Road with random obstacle classes and, optionally, UNKNOWN cells."""
    obstacles = [SemanticClass.GRASS, SemanticClass.VEGETATION, SemanticClass.BUILDING, SemanticClass.VEHICLE]
    classes = np.where(rng.random((h, w)) < 0.3, int(SemanticClass.DIRT_GRAVEL), int(SemanticClass.ROAD))
    mask = rng.random((h, w)) < blocked
    classes[mask] = rng.choice([int(c) for c in obstacles], size=int(mask.sum()))
    classes[rng.random((h, w)) < unknown] = SemanticClass.UNKNOWN
    return classes.astype(np.int8)


def scan_of(pairs):
    """A Scan from a list of (range, class) pairs, one per beam."""
    return Scan(
        np.array([r for r, _ in pairs], dtype=np.float64),
        np.array([int(c) for _, c in pairs], dtype=np.int64),
    )


def pairs_of(scan):
    """A Scan's (range, class) pairs, one per beam, as Python scalars."""
    return list(zip(scan.ranges.tolist(), scan.classes.tolist()))


def bits(a):
    """Bytes of a float array, so that -0.0 and 0.0 differ too."""
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def assert_same_scan(got, want):
    """``got`` is a Scan; ``want`` the reference's (range, class) pairs."""
    assert type(got) is Scan
    assert got.ranges.dtype == np.float64 and got.classes.dtype == np.int64
    assert got.ranges.shape == got.classes.shape == (len(want),)
    assert bits(got.ranges) == bits([r for r, _ in want])
    assert got.classes.tobytes() == np.array([int(c) for _, c in want], dtype=np.int64).tobytes()


def crossing_ties(grid, pose, max_range, n_beams):
    """Count equal x- and y-crossing times a beam meets within max_range."""
    x, y, yaw = pose
    ix0, iy0 = grid.cell_of(x, y)
    res = grid.resolution
    ties = 0
    for i in range(n_beams):
        az = yaw + 2.0 * math.pi * i / n_beams
        dx, dy = math.cos(az), math.sin(az)
        if dx == 0 or dy == 0:
            continue
        tx = (grid.origin_x + (ix0 + (dx > 0)) * res - x) / dx
        ty = (grid.origin_y + (iy0 + (dy > 0)) * res - y) / dy
        xs, ys = {tx}, {ty}
        while tx <= max_range or ty <= max_range:
            tx += res / abs(dx)
            ty += res / abs(dy)
            xs.add(tx)
            ys.add(ty)
        ties += len({t for t in xs & ys if t <= max_range})
    return ties


# ---------------------------------------------------------------------------
# ground_scan


class TestGroundScanMatchesLoop:
    def test_seeded_clutter_poses(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            res = float(rng.choice([1.0, 0.5, 0.25]))
            origin = (float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
            w, h = (int(v) for v in rng.integers(8, 40, size=2))
            grid = make_map(cluttered_classes(rng, w, h), res, origin)
            n_beams = int(rng.choice([1, 3, 8, 36, 50]))
            max_range = float(rng.choice([3.0, 7.5, 15.0]))
            for _ in range(5):
                pose = (
                    origin[0] + float(rng.uniform(0, w)) * res,
                    origin[1] + float(rng.uniform(0, h)) * res,
                    float(rng.uniform(-4, 4)),
                )
                assert_same_scan(
                    ground_scan(grid, pose, max_range, n_beams),
                    ref_ground_scan(grid, pose, max_range, n_beams),
                )

    @pytest.mark.parametrize(
        "pose, n_beams",
        [
            ((10.5, 10.5, math.pi / 4), 8),  # diagonals through cell corners
            ((10.5, 10.5, math.pi / 8), 16),
            ((10.25, 10.75, 0.0), 24),
            ((10.25, 10.75, math.pi / 4), 8),
            ((10.0, 10.0, 0.3), 8),  # on a cell corner: crossings at t = 0
            ((10.0, 10.0, math.pi / 4), 24),
        ],
    )
    def test_crossing_ties_take_x_first(self, pose, n_beams):
        rng = np.random.default_rng(4)
        grid = make_map(cluttered_classes(rng, 21, 21, blocked=0.1))
        grid.classes[10, 10] = SemanticClass.ROAD
        assert crossing_ties(grid, pose, 15.0, n_beams) > 0
        assert_same_scan(ground_scan(grid, pose, 15.0, n_beams), ref_ground_scan(grid, pose, 15.0, n_beams))

    def test_corner_pose_next_to_blocked_cells(self):
        # from the corner (3, 3), a beam into the lower-left quadrant crosses
        # x = 3 and y = 3 both at t = 0 (as -0.0), x first, so it strikes
        # cell (2, 3) on a zero-length chord
        classes = np.full((6, 6), int(SemanticClass.ROAD), dtype=np.int8)
        classes[3, 2] = SemanticClass.BUILDING
        classes[1, 3] = SemanticClass.VEHICLE
        grid = make_map(classes)
        pose = (3.0, 3.0, 3.5)
        got = ground_scan(grid, pose, 4.0, 1)
        assert pairs_of(got) == [(0.0, SemanticClass.BUILDING)] and math.copysign(1.0, got.ranges[0]) == 1.0
        for yaw in (0.0, 0.1, math.pi, 3.5, 4.0):
            for n_beams in (1, 4, 8, 36):
                pose = (3.0, 3.0, yaw)
                assert_same_scan(ground_scan(grid, pose, 4.0, n_beams), ref_ground_scan(grid, pose, 4.0, n_beams))

    def test_tie_at_a_corner_enters_the_x_neighbor(self):
        # from (10.5, 10.5) the 45-degree beam crosses x = 17 and y = 17 at
        # the same time; the walk steps in x first, into cell (17, 16)
        classes = np.full((24, 24), int(SemanticClass.ROAD), dtype=np.int8)
        classes[16, 17] = SemanticClass.VEHICLE
        classes[17, 16] = SemanticClass.BUILDING
        grid = make_map(classes)
        pose = (10.5, 10.5, math.pi / 4)
        got = ground_scan(grid, pose, 15.0, 8)
        assert got.classes[0] == SemanticClass.VEHICLE
        assert_same_scan(got, ref_ground_scan(grid, pose, 15.0, 8))

    def test_axis_aligned_beam(self):
        # yaw 0: beam 0 has diry == 0 exactly and never crosses a y edge
        rng = np.random.default_rng(5)
        grid = make_map(cluttered_classes(rng, 30, 30))
        grid.classes[15, 3:] = SemanticClass.ROAD
        assert math.sin(0.0) == 0.0
        for n_beams in (1, 2, 4, 36):
            pose = (3.5, 15.5, 0.0)
            assert_same_scan(ground_scan(grid, pose, 20.0, n_beams), ref_ground_scan(grid, pose, 20.0, n_beams))

    def test_range_limit_on_cell_edges(self):
        # crossings land on max_range, up to rounding, when it is a multiple
        # of the resolution and the pose sits on a cell edge
        for res in (0.1, 0.3, 1.0):
            grid = make_map(np.full((80, 80), int(SemanticClass.ROAD)), res)
            for max_range in (0.3, 1.5, 3.0, 6.0):
                for pose in ((40 * res, 40 * res, 0.0), (40.5 * res, 40 * res, math.pi / 4)):
                    got = ground_scan(grid, pose, max_range, 8)
                    assert_same_scan(got, ref_ground_scan(grid, pose, max_range, 8))

    def test_beams_leave_the_map(self):
        grid = make_map(np.full((12, 9), int(SemanticClass.ROAD)))
        poses = [(0.5, 0.5, 0.0), (8.5, 11.5, 2.0), (1.5, 6.0, 0.7), (7.9, 1.1, -1.0), (4.5, 10.5, 0.0)]
        for pose in poses:
            for max_range in (2.0, 15.0):
                got = ground_scan(grid, pose, max_range, 36)
                assert_same_scan(got, ref_ground_scan(grid, pose, max_range, 36))
        assert all(c == SemanticClass.UNKNOWN for c in ground_scan(grid, (0.5, 0.5, 0.0), 15.0, 36).classes)

    def test_non_traversable_start(self):
        rng = np.random.default_rng(6)
        classes = cluttered_classes(rng, 10, 10)
        classes[4, 4] = SemanticClass.VEGETATION
        grid = make_map(classes)
        got = ground_scan(grid, (4.5, 4.5, 0.2), 5.0, 12)
        assert_same_scan(got, ref_ground_scan(grid, (4.5, 4.5, 0.2), 5.0, 12))
        assert pairs_of(got) == [(0.0, SemanticClass.VEGETATION)] * 12



class TestTeamCastMatchesLoop:
    """``_cast`` casts a group of poses in one pass; each pose's scan must be
    the scan of the loop reference cast alone."""

    @staticmethod
    def group(rng, grid, size):
        """Poses on cell corners, on cell edges and inside cells, with yaws
        of +0.0, -0.0, pi/2, -pi and random ones."""
        poses = []
        for _ in range(size):
            ix, iy = int(rng.integers(0, grid.width)), int(rng.integers(0, grid.height))
            fx, fy = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), tuple(rng.uniform(0, 1, 2))][int(rng.integers(4))]
            yaw = [0.0, -0.0, math.pi / 2, -math.pi, float(rng.uniform(-4, 4))][int(rng.integers(5))]
            res = grid.resolution
            poses.append((grid.origin_x + (ix + fx) * res, grid.origin_y + (iy + fy) * res, yaw))
        return poses

    def test_groups_of_one_to_seven_poses(self):
        rng = np.random.default_rng(23)
        blocked_in_group = 0
        for trial in range(70):
            res = float(rng.choice([1.0, 0.5, 0.25]))
            origin = (float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)))
            w, h = (int(v) for v in rng.integers(8, 40, size=2))
            grid = make_map(cluttered_classes(rng, w, h, blocked=0.25), res, origin)
            n_beams = int(rng.choice([1, 3, 8, 36]))
            max_range = float(rng.choice([3.0, 7.5, 15.0]))
            poses = self.group(rng, grid, 1 + trial % 7)
            got = world._cast(grid, poses, max_range, n_beams)
            assert len(got) == len(poses)
            for pose, scan in zip(poses, got):
                assert_same_scan(scan, ref_ground_scan(grid, pose, max_range, n_beams))
            starts = [grid.class_at(*grid.cell_of(x, y)) for x, y, _ in poses]
            blocked_in_group += len(poses) > 1 and not all(map(traversable, starts)) and any(map(traversable, starts))
        assert blocked_in_group >= 5

    def test_a_blocked_start_inside_a_group(self):
        rng = np.random.default_rng(24)
        classes = cluttered_classes(rng, 20, 20)
        classes[5, 5] = SemanticClass.VEGETATION
        classes[[2, 9, 12], [3, 14, 7]] = SemanticClass.ROAD
        grid = make_map(classes)
        poses = [(3.5, 2.5, 0.0), (5.0, 5.0, -math.pi), (14.5, 9.0, math.pi / 2), (7.25, 12.5, -0.0)]
        got = world._cast(grid, poses, 15.0, 36)
        assert pairs_of(got[1]) == [(0.0, SemanticClass.VEGETATION)] * 36
        for pose, scan in zip(poses, got):
            assert_same_scan(scan, ref_ground_scan(grid, pose, 15.0, 36))

    def test_a_pose_outside_the_map_raises_and_keeps_nothing(self):
        rng = np.random.default_rng(25)
        truth = WorldModel.from_map(make_map(cluttered_classes(rng, 20, 20, blocked=0.0))).truth
        kept = ground_scan(truth, (4.5, 4.5, 0.0), 10.0, 8)
        inside = [(4.5, 4.5, 0.0), (10.5, 10.5, 1.0)]
        for outside in ((-1.0, 5.0, 0.0), (5.0, 20.0, 0.0), (20.0, 0.5, 0.0)):
            with pytest.raises(ValueError, match="outside map bounds"):
                world._cast(truth, [inside[1], outside, inside[0]], 10.0, 8)
            with pytest.raises(ValueError, match="outside map bounds"):
                ground_scans(truth, [inside[0], outside, inside[1]], 10.0, 8)
            assert list(truth._scans.values()) == [kept]

    def test_a_frozen_map_keeps_each_pose_once(self):
        rng = np.random.default_rng(26)
        truth = WorldModel.from_map(make_map(cluttered_classes(rng, 30, 30))).truth
        poses = self.group(rng, truth, 5)
        first = ground_scans(truth, poses + [poses[2]], 15.0, 36)
        assert first[5] is first[2] and len(truth._scans) == 5
        assert [ground_scan(truth, pose, 15.0, 36) for pose in poses] == first[:5]
        assert all(a is b for a, b in zip(ground_scans(truth, poses[::-1], 15.0, 36), first[4::-1]))
        for pose, scan in zip(poses, first):
            assert not (scan.ranges.flags.writeable or scan.classes.flags.writeable)
            assert_same_scan(scan, ref_ground_scan(truth, pose, 15.0, 36))

# ---------------------------------------------------------------------------
# from_scan


def assert_same_observation(obs, want):
    """``want`` is the reference's split arrays; hit bins come first."""
    local_dx, local_dy, bin_classes, free_dx, free_dy = want
    fields = (obs.dx, obs.dy, obs.layer)
    refs = (
        np.concatenate([local_dx, free_dx]),
        np.concatenate([local_dy, free_dy]),
        np.concatenate([bin_classes, np.full(free_dx.size, FREE_LAYER, dtype=np.int64)]),
    )
    for got, ref in zip(fields, refs):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def random_scan(rng, n_beams, max_range, p_unknown=0.3):
    scan = []
    for _ in range(n_beams):
        if rng.random() < p_unknown:
            scan.append((float(max_range), SemanticClass.UNKNOWN))
        else:
            cls = SemanticClass(int(rng.integers(2, 6)))
            scan.append((float(rng.choice([rng.uniform(0, max_range), 0.0, max_range])), cls))
    return scan_of(scan)


def test_scalar_wrap_angle_matches_the_array_path():
    rng = np.random.default_rng(21)
    values = np.concatenate([
        rng.uniform(-20.0, 20.0, 100_000),
        rng.normal(0.0, 1e4, 100_000),
        [0.0, -0.0, math.pi, -math.pi, 1e17, -1e17, 5e-324, -5e-324],
        2 * math.pi * np.arange(-8, 9),
        np.nextafter(math.pi, [0.0, 4.0]), np.nextafter(-math.pi, [0.0, -4.0]),
    ])
    want = geometry.wrap_angle(values)
    got = [geometry.wrap_angle(v) for v in values.tolist()]
    assert all(type(v) is float for v in got)
    assert bits(np.array(got)) == bits(want)
    got = [geometry.wrap_angle(v) for v in values[::50]]  # np.float64 scalars
    assert all(type(v) is float for v in got)
    assert bits(np.array(got)) == bits(want[::50])


def ref_wrap_angle(a):
    """The array path of ``wrap_angle`` as one expression, with temporaries."""
    r = np.mod(np.asarray(a) + np.pi, 2 * np.pi) - np.pi
    return np.where(r == -np.pi, np.pi, r)


def test_array_wrap_angle_matches_the_expression_and_keeps_its_input():
    rng = np.random.default_rng(22)
    odd_pi = math.pi * np.arange(-9, 10, 2)
    values = np.concatenate([
        rng.uniform(-20.0, 20.0, 500),
        [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi],
        odd_pi, np.nextafter(odd_pi, 0.0), np.nextafter(odd_pi, np.sign(odd_pi) * np.inf),
    ])
    for a in (values, values.reshape(-1, 2), values.tolist(), values.astype(np.float32)):
        before = np.array(a, copy=True)
        got = geometry.wrap_angle(a)
        want = ref_wrap_angle(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.asarray(a).tobytes() == before.tobytes()


class TestFromScanMatchesLoop:
    @pytest.mark.parametrize("n_beams, n_azimuth", [(36, 36), (72, 36), (24, 36), (50, 7), (1, 36), (5, 1)])
    @pytest.mark.parametrize("free_stride", [0, 1, 2, 3])
    def test_seeded_scans(self, n_beams, n_azimuth, free_stride):
        rng = np.random.default_rng(n_beams * 10 + free_stride)
        for _ in range(10):
            max_range = float(rng.choice([5.0, 15.0, 20.0]))
            n_range = int(rng.choice([1, 4, 10]))
            margin = float(rng.choice([0.0, 1.0, 2.5]))
            scan = random_scan(rng, n_beams, max_range)
            args = (scan, n_azimuth, n_range, max_range, margin, free_stride)
            assert_same_observation(PolarObservation.from_scan(*args), ref_from_scan(*args))

    def test_colliding_hit_bins(self):
        # 72 beams into 36 azimuth bins; equal ranges land in the same bin
        scan = scan_of([(4.2, SemanticClass(2 + i % 4)) for i in range(72)])
        obs = PolarObservation.from_scan(scan, 36, 10, 15.0)
        assert np.count_nonzero(obs.layer != FREE_LAYER) == 36
        assert_same_observation(obs, ref_from_scan(scan, 36, 10, 15.0))

    def test_all_unknown_scan(self):
        scan = scan_of([(15.0, SemanticClass.UNKNOWN)] * 36)
        for stride in (1, 3):
            obs = PolarObservation.from_scan(scan, 36, 10, 15.0, free_stride=stride)
            assert np.count_nonzero(obs.layer != FREE_LAYER) == 0
            assert_same_observation(obs, ref_from_scan(scan, 36, 10, 15.0, free_stride=stride))

    def test_blocked_start_scan(self):
        scan = scan_of([(0.0, SemanticClass.GRASS)] * 36)
        obs = PolarObservation.from_scan(scan, 36, 10, 15.0)
        assert np.count_nonzero(obs.layer == FREE_LAYER) == 0
        assert_same_observation(obs, ref_from_scan(scan, 36, 10, 15.0))

    def test_empty_scan(self):
        obs = PolarObservation.from_scan(scan_of([]), 8, 4, 5.0)
        assert obs.n_filled == 0
        assert_same_observation(obs, ref_from_scan(scan_of([]), 8, 4, 5.0))

    def test_ground_scans(self):
        rng = np.random.default_rng(8)
        grid = make_map(cluttered_classes(rng, 40, 40))
        for _ in range(30):
            pose = (float(rng.uniform(0, 40)), float(rng.uniform(0, 40)), float(rng.uniform(-4, 4)))
            scan = ground_scan(grid, pose, 15.0, 36)
            args = (scan, 36, 10, 15.0, 1.0)
            assert_same_observation(PolarObservation.from_scan(*args), ref_from_scan(*args))

    def test_scans_binned_together_match_each_alone(self):
        rng = np.random.default_rng(27)
        for trial in range(40):
            params = (
                int(rng.choice([1, 7, 36])),
                int(rng.choice([1, 4, 10])),
                float(rng.choice([5.0, 15.0, 20.0])),
                float(rng.choice([0.0, 1.0, 2.5])),
                int(rng.choice([0, 1, 2, 3])),
            )
            max_range = params[2]
            scans = [
                random_scan(rng, int(rng.choice([0, 1, 24, 36, 72])), max_range, p_unknown=float(rng.uniform(0, 1)))
                for _ in range(1 + trial % 7)
            ]
            got = PolarObservation.from_scans(scans, *params)
            assert len(got) == len(scans)
            for scan, obs in zip(scans, got):
                alone = PolarObservation.from_scan(scan, *params)
                assert obs is not alone
                for a, b in zip((obs.dx, obs.dy, obs.layer), (alone.dx, alone.dy, alone.layer)):
                    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert_same_observation(obs, ref_from_scan(scan, *params))

    def test_read_only_scans_keep_their_observations(self):
        rng = np.random.default_rng(28)
        truth = WorldModel.from_map(make_map(cluttered_classes(rng, 40, 40))).truth
        poses = [(float(rng.uniform(0, 40)), float(rng.uniform(0, 40)), float(rng.uniform(-4, 4))) for _ in range(4)]
        frozen = ground_scans(truth, poses, 15.0, 36)
        writable = random_scan(rng, 36, 15.0)
        scans = [frozen[0], writable, frozen[1], frozen[0], frozen[2], frozen[3]]
        key = (36, 10, 15.0, 1.0, 2)
        got = PolarObservation.from_scans(scans, 36, 10, 15.0, 1.0)
        assert got[3] is got[0]
        assert writable.polar == {}
        assert all(scan.polar[key] is obs for scan, obs in zip(scans, got) if scan is not writable)
        again = PolarObservation.from_scans(scans, 36, 10, 15.0, 1.0)
        assert [a is b for a, b in zip(again, got)] == [True, False, True, True, True, True]
        assert PolarObservation.from_scan(frozen[2], 36, 10, 15.0, 1.0) is got[4]
        for scan, obs in zip(scans, again):
            assert_same_observation(obs, ref_from_scan(scan, 36, 10, 15.0, 1.0))

    def test_numpy_trig_matches_math_on_beam_offsets(self):
        # the array code takes np.cos / np.sin where the loop took math.cos /
        # math.sin of the same offsets 2*pi*i/n
        for n in range(1, 400):
            offset = 2.0 * math.pi * np.arange(n) / n
            assert offset.tolist() == [2.0 * math.pi * i / n for i in range(n)]
            assert np.cos(offset).tolist() == [math.cos(o) for o in offset.tolist()]
            assert np.sin(offset).tolist() == [math.sin(o) for o in offset.tolist()]


# ---------------------------------------------------------------------------
# match_costs


def particles_around(rng, n, center, spread, yaw_spread=3.2):
    xs = center[0] + rng.normal(0, spread, n)
    ys = center[1] + rng.normal(0, spread, n)
    yaws = rng.uniform(-yaw_spread, yaw_spread, n)
    return ParticleSet(xs, ys, yaws, np.full(n, 1.0 / n))


@pytest.mark.parametrize("n, bins", [(500, 90), (500, 102), (500, 128), (500, 97), (7, 3), (1, 90), (1, 2)])
def test_einsum_adds_its_terms_in_order_without_fusing(n, bins):
    # match_costs's bits rest on np.einsum("ik,kj->ij") giving
    # ((0 + a0 * b0) + a1 * b1) + a2 * b2 with every product rounded, for
    # two or more columns j (with one, numpy sums over k in another order).
    # A fused multiply-add keeps the -2**-60 that rounding (1 + 2**-30) *
    # (1 - 2**-30) to 1.0 drops; adding the terms in another order keeps
    # the 1 that 2**53 + 1 rounds away
    probes = [
        ([1.0, 1.0 + 2**-30], [-1.0, 1.0 - 2**-30]),
        ([1.0, 1.0 + 2**-30, 0.0], [-1.0, 1.0 - 2**-30, 1.0]),
        ([1.0, 1.0, -1.0], [2.0**53, 1.0, 2.0**53]),
    ]
    for a, b in probes:
        rows, cols = np.stack([np.full(n, x) for x in a], axis=1), np.stack([np.full(bins, x) for x in b])
        out = np.empty((n, bins))
        np.einsum("ik,kj->ij", rows, cols, out=out)
        assert bits(out) == bits(np.zeros((n, bins)))


class TestMatchCostsMatchesLoop:
    def test_seeded_maps_with_unknown_cells(self):
        rng = np.random.default_rng(9)
        for trial in range(12):
            res = float(rng.choice([1.0, 0.5]))
            origin = (float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            w, h = (int(v) for v in rng.integers(10, 50, size=2))
            truth = make_map(cluttered_classes(rng, w, h), res, origin)
            seen = make_map(cluttered_classes(rng, w, h, unknown=float(rng.uniform(0, 0.6))), res, origin)
            pose = (origin[0] + w * res / 2, origin[1] + h * res / 2, float(rng.uniform(-3, 3)))
            scan = ground_scan(truth, pose, 15.0, 36)
            obs = PolarObservation.from_scan(scan, 36, 10, 15.0, free_margin=res)
            # the spread puts many particles, and more projected bins, off the map
            particles = particles_around(rng, 300, pose, spread=w * res / 2)
            cost = float(rng.choice([0.0, 0.4, 0.9]))
            for grid in (truth, seen):
                got = match_costs(particles, obs, grid, cost, match_table(grid))
                assert got.tobytes() == ref_match_costs(particles, obs, grid, cost).tobytes()

    def test_particles_far_off_the_map(self):
        rng = np.random.default_rng(10)
        grid = make_map(cluttered_classes(rng, 20, 20))
        obs = PolarObservation.from_scan(ground_scan(grid, (10.5, 10.5, 0.0), 15.0, 36), 36, 10, 15.0)
        particles = particles_around(rng, 50, (10.0, 10.0), spread=1e6)
        got = match_costs(particles, obs, grid, 0.4, match_table(grid))
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()

    def test_all_unknown_map(self):
        rng = np.random.default_rng(11)
        truth = make_map(cluttered_classes(rng, 30, 30))
        obs = PolarObservation.from_scan(ground_scan(truth, (15.5, 15.5, 0.4), 15.0, 36), 36, 10, 15.0)
        grid = SemanticGridMap.unknown(30, 30)
        particles = particles_around(rng, 100, (15.0, 15.0), spread=10.0)
        got = match_costs(particles, obs, grid, 0.4, match_table(grid))
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()

    def test_calls_whose_bin_count_grows_and_shrinks(self):
        # every call reuses the workspace of the last, at a larger or smaller
        # bins-by-particles size; no row left from an earlier call may count
        rng = np.random.default_rng(13)
        truth = make_map(cluttered_classes(rng, 40, 40, blocked=0.1))
        grid = make_map(cluttered_classes(rng, 40, 40, blocked=0.1, unknown=0.3))
        table = match_table(grid)
        filled = []
        for n_range, stride, n in [(10, 1, 400), (2, 3, 50), (10, 2, 500), (4, 1, 120), (1, 1, 10), (10, 1, 700), (3, 3, 200)]:
            pose = (float(rng.uniform(10, 30)), float(rng.uniform(10, 30)), float(rng.uniform(-3, 3)))
            scan = ground_scan(truth, pose, 15.0, 36)
            obs = PolarObservation.from_scan(scan, 36, n_range, 15.0, free_stride=stride)
            particles = particles_around(rng, n, pose, spread=4.0)
            got = match_costs(particles, obs, grid, 0.4, table)
            assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()
            filled.append(obs.n_filled)
        steps = np.diff(filled)
        assert (steps > 0).any() and (steps < 0).any(), filled

    @pytest.mark.parametrize("res", [0.3, 0.5, 1.0])
    def test_signed_zeros_on_cell_edges(self, res):
        # particles on cell edges and integer points, on and off the map, at
        # axis-aligned yaws, and bins whose offsets are +0.0 or -0.0: every
        # projected point lands on or next to a cell edge, so a product or
        # sum whose bits differ in anything but a zero's sign moves a cell
        rng = np.random.default_rng(14)
        w, h = 14, 10
        origin = (-3 * res, 2 * res)
        grid = make_map(cluttered_classes(rng, w, h, unknown=0.2), res, origin)
        offsets = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (res, -0.0), (-0.0, -res),
                   (-res, 0.0), (0.0, 2 * res), (1.0, -0.0), (-0.0, -1.0), (2.0, 3 * res)]
        layers = [int(c) for c in SemanticClass if c != SemanticClass.UNKNOWN] + [FREE_LAYER]
        obs = PolarObservation(
            dx=np.array([o[0] for o in offsets]),
            dy=np.array([o[1] for o in offsets]),
            layer=np.array([layers[i % len(layers)] for i in range(len(offsets))], dtype=np.int64),
        )
        edges_x = [origin[0] + k * res for k in range(-2, w + 3)] + [float(k) for k in range(-6, 8)]
        edges_y = [origin[1] + k * res for k in range(-2, h + 3)] + [float(k) for k in range(-2, 9)]
        yaws = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]
        xs, ys, yaw = (np.array(a, dtype=np.float64).ravel() for a in np.meshgrid(edges_x, edges_y, yaws))
        particles = ParticleSet(xs, ys, yaw, np.full(xs.size, 1.0 / xs.size))
        got = match_costs(particles, obs, grid, 0.4, match_table(grid))
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()

    @pytest.mark.parametrize("res", [1.0, 0.5])
    def test_reach_inside_and_past_each_edge(self, res):
        # a set whose reach stays well inside the map needs no clip; sets
        # whose farthest point lands one cell inside an edge, on its edge
        # cell, or one or three cells past it each take their own call.
        # Three cells past, an unclipped index wraps over the border ring
        # into a map cell of the row or layer before or after
        rng = np.random.default_rng(15)
        w, h, reach = 60, 50, 8.0
        origin = (-7.0, 4.5)
        grid = make_map(cluttered_classes(rng, w, h), res, origin)
        table = match_table(grid)
        # one bin at full reach along each axis, the rest within it
        far = [(reach, 0.0), (-reach, 0.0), (0.0, reach), (0.0, -reach)]
        inner = rng.uniform(-reach / 2, reach / 2, (40, 2))
        offsets = np.concatenate([far, inner])
        layers = [int(c) for c in SemanticClass if c != SemanticClass.UNKNOWN] + [FREE_LAYER]
        obs = PolarObservation(
            dx=offsets[:, 0].copy(), dy=offsets[:, 1].copy(),
            layer=np.array([layers[i % len(layers)] for i in range(len(offsets))], dtype=np.int64),
        )
        mid_x, mid_y = origin[0] + w * res / 2, origin[1] + h * res / 2
        sets = [particles_around(rng, 200, (mid_x, mid_y), spread=1.0, yaw_spread=math.pi)]
        # the farthest point of a yaw-0 particle is x - reach, x + reach,
        # y - reach or y + reach; it lands mid-cell, k cells past the edge
        # cell, and smaller yaws pull it back toward the particle
        lo = {"x": origin[0] + res / 2, "y": origin[1] + res / 2}
        hi = {"x": origin[0] + (w - 0.5) * res, "y": origin[1] + (h - 0.5) * res}
        for k in (-1, 0, 1, 3):
            for axis, sign in itertools.product("xy", (-1, 1)):
                edge = (lo if sign < 0 else hi)[axis] + sign * k * res
                at = edge - sign * reach
                across = rng.uniform(-2.0, 2.0, 30) + (mid_y if axis == "x" else mid_x)
                xs, ys = (np.full(30, at), across) if axis == "x" else (across, np.full(30, at))
                yaws = np.where(np.arange(30) % 3 == 0, 0.0, rng.uniform(-0.2, 0.2, 30))
                sets.append(ParticleSet(xs, ys, yaws, np.full(30, 1.0 / 30)))
        for particles in sets:
            got = match_costs(particles, obs, grid, 0.4, table)
            assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()

    @pytest.mark.parametrize("res", [1.0, 0.5])
    @pytest.mark.parametrize("n_bins", [1, 2, 7])
    def test_rotations_that_cancel_on_cell_edges(self, res, n_bins):
        # particles on cell edges, each turned so that one bin's rotated
        # offset along x or y is a rounding residue: adding the shift before
        # or between the rotation terms moves such a point across the edge
        # about half the time
        rng = np.random.default_rng(16 + n_bins)
        grid = make_map(cluttered_classes(rng, 30, 30), res)
        dx, dy = rng.uniform(-6.0, 6.0, (2, n_bins))
        obs = PolarObservation(dx=dx, dy=dy, layer=rng.integers(0, FREE_LAYER + 1, n_bins))
        phi = np.arctan2(dy, dx)
        turns = np.concatenate([math.pi / 2 - phi, -math.pi / 2 - phi, -phi, math.pi - phi])
        edges = np.arange(8, 22) * res
        xs, ys, yaws = (a.ravel() for a in np.meshgrid(edges, edges, turns))
        particles = ParticleSet(xs, ys, yaws, np.full(xs.size, 1.0 / xs.size))
        got = match_costs(particles, obs, grid, 0.4, match_table(grid))
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()

    def test_empty_observation(self):
        rng = np.random.default_rng(12)
        obs = PolarObservation.from_scan(scan_of([]), 36, 10, 15.0)
        grid = make_map(cluttered_classes(rng, 10, 10))
        particles = particles_around(rng, 20, (5.0, 5.0), spread=2.0)
        got = match_costs(particles, obs, grid, 0.4, match_table(grid))
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()


# ---------------------------------------------------------------------------
# batched supercover minimum


def assert_batch_matches(segs, field):
    got = segments_min_value(np.array(segs, dtype=np.int64).reshape(-1, 4), field)
    assert bits(got) == bits([ref_segment_min_value(s[:2], s[2:], field) for s in segs])


def random_segment(rng, w, h, reach):
    """A segment of length at most reach inside a w x h grid: zero-length,
    axis-aligned or in any direction."""
    kind = rng.integers(4)
    if kind == 0:
        dx = dy = 0
    elif kind == 1:
        dx, dy = int(rng.integers(-reach, reach + 1)), 0
    elif kind == 2:
        dx, dy = 0, int(rng.integers(-reach, reach + 1))
    else:
        while True:
            dx, dy = (int(d) for d in rng.integers(-reach, reach + 1, size=2))
            if dx * dx + dy * dy <= reach * reach:
                break
    ux = int(rng.integers(max(0, -dx), min(w, w - dx)))
    uy = int(rng.integers(max(0, -dy), min(h, h - dy)))
    return (ux, uy, ux + dx, uy + dy)


class TestSupercoverMinimumMatchesPerSegment:
    def test_random_segments_both_endpoint_orders(self):
        rng = np.random.default_rng(40)
        reach = int(2 * planner.NODE_RADIUS)
        h, w = 2 * reach + 5, 2 * reach + 11
        for trial in range(20):
            field = rng.uniform(0.0, 10.0, size=(h, w))
            if trial % 2:
                field = np.floor(field)  # ties, like a distance field's
            segs = [random_segment(rng, w, h, reach) for _ in range(int(rng.integers(1, 150)))]
            segs += [s[2:] + s[:2] for s in segs]
            assert_batch_matches(segs, field)

    PER_BLOCK = geometry.BLOCK // (16 * geometry.BAND)

    @pytest.mark.parametrize("count, blocks", [(1, 1), (PER_BLOCK, 1), (PER_BLOCK + 1, 2)])
    def test_batch_sizes_at_the_block_bound(self, count, blocks, monkeypatch):
        # every segment is 16 cells long in both axes, so PER_BLOCK of them
        # fill one block
        sizes = []
        band_min = geometry._band_min

        def counted(ends, *args):
            sizes.append(len(ends))
            return band_min(ends, *args)

        monkeypatch.setattr(geometry, "_band_min", counted)
        rng = np.random.default_rng(41)
        field = rng.uniform(0.0, 10.0, size=(40, 40))
        segs = []
        for _ in range(count):
            sx, sy = (int(d) for d in rng.choice([-15, 15], size=2))
            ux = int(rng.integers(max(0, -sx), min(40, 40 - sx)))
            uy = int(rng.integers(max(0, -sy), min(40, 40 - sy)))
            segs.append((ux, uy, ux + sx, uy + sy))
        assert_batch_matches(segs, field)
        assert len(sizes) == blocks and sum(sizes) == count

    def test_every_edge_of_the_golden_roadmap(self):
        from test_planner import TestIncrementalRoadmap, grid_from_free, incremental_versions

        checked = 0
        for free in incremental_versions():
            grid = grid_from_free(free)
            rm, _ = planner.update_roadmap(grid, TestIncrementalRoadmap.RADIUS)
            segs = [rm.nodes[a] + rm.nodes[b] for a, b in rm.edges]
            assert_batch_matches(segs, grid.dist)
            want = [ref_edge_weight(rm.nodes[a], rm.nodes[b], grid) for a, b in rm.edges]
            assert bits(list(rm.edges.values())) == bits(want)
            assert bits(planner.edge_weights(segs, grid)) == bits(want)
            checked += len(segs)
        assert checked > 100


class TestRoadmapGrowthMatchesReferences:
    @staticmethod
    def growing_grids():
        """20 cluttered grids, each revealed in 2 or 3 growing map versions
        (unknown columns from the east), with a roadmap radius for each."""
        rng = np.random.default_rng(44)
        for _ in range(20):
            h, w = (int(d) for d in rng.integers(12, 19, size=2))
            classes = cluttered_classes(rng, w, h, blocked=float(rng.uniform(0.05, 0.2)))
            close_radius = int(rng.integers(0, 2))
            n_versions = int(rng.integers(2, 4))
            edges = sorted(rng.choice(np.arange(4, w), size=n_versions - 1, replace=False).tolist()) + [w]
            grids = []
            for edge in edges:
                shown = classes.copy()
                shown[:, edge:] = SemanticClass.UNKNOWN
                grids.append(planner.extract_traversability(make_map(shown), close_radius))
            yield float(rng.uniform(4.0, 8.0)), grids

    @staticmethod
    def state(rm, vis):
        return (
            dict(rm.nodes),
            {key: weight.hex() for key, weight in rm.edges.items()},
            {n: set(a) for n, a in rm.adj.items()},
            {n: set(c) for n, c in vis.node_cells.items()},
            vis.cover.copy(),
        )

    def test_update_roadmap_bridges_as_a_full_rescan_does(self, monkeypatch):
        bridged = versions = 0
        for radius, grids in self.growing_grids():
            for grid in grids:
                rm, vis = planner.update_roadmap(grid, radius)
                with monkeypatch.context() as m:
                    counts = []
                    m.setattr(planner, "_bridge", lambda *a: counts.append(ref_bridge(*a)))
                    ref_rm, ref_vis = planner.update_roadmap(grid, radius)
                got, want = self.state(rm, vis), self.state(ref_rm, ref_vis)
                assert got[:4] == want[:4]
                assert np.array_equal(got[4], want[4])
                bridged += counts[0]
                versions += 1
        assert versions >= 45 and bridged > 100, (versions, bridged)

    def test_quadrant_visibility_matches_the_full_slab_test(self):
        rng = np.random.default_rng(45)
        checked = blocked = 0
        for _ in range(60):
            free = rng.random((30, 30)) > rng.uniform(0.05, 0.35)
            fy, fx = np.nonzero(free)
            k = int(rng.integers(0, fx.size))
            node = (int(fx[k]), int(fy[k]))
            disc = (fx - node[0]) ** 2 + (fy - node[1]) ** 2 <= rng.uniform(3.0, 15.0) ** 2
            cand_ix, cand_iy = fx[disc], fy[disc]
            oy, ox = np.nonzero(~free)
            # the window's blob boundary, and every obstacle of the grid
            for ob_ix, ob_iy in (planner._window_obstacles(free, node, cand_ix, cand_iy), (ox, oy)):
                got = geometry.visible_from(node, cand_ix, cand_iy, ob_ix, ob_iy)
                assert np.array_equal(got, ref_visible_from(node, cand_ix, cand_iy, ob_ix, ob_iy)), node
            checked += got.size
            blocked += int((~got).sum())
        assert checked > 5000 and 0 < blocked < checked

    @pytest.mark.parametrize(
        "n_cand, n_obst, lo",
        [(1, geometry.BLOCK + 3, 150), (geometry.BLOCK + 5, 1, 150), (3000, 40, 0)],
    )
    def test_quadrant_visibility_across_block_bounds(self, n_cand, n_obst, lo):
        # candidates and obstacles scattered in [lo, 300) around a node at
        # (150, 150): with lo = 150 all of them share one quadrant, which
        # then takes more than one block; the node's own cell is a candidate
        rng = np.random.default_rng(n_cand + n_obst)
        node = (150, 150)
        cand_ix, cand_iy = (np.append(rng.integers(lo, 300, size=n_cand), 150) for _ in range(2))
        obst_ix, obst_iy = (rng.integers(lo, 300, size=n_obst) for _ in range(2))
        keep = (obst_ix != node[0]) | (obst_iy != node[1])
        obst_ix, obst_iy = obst_ix[keep], obst_iy[keep]
        got = geometry.visible_from(node, cand_ix, cand_iy, obst_ix, obst_iy)
        assert np.array_equal(got, ref_visible_from(node, cand_ix, cand_iy, obst_ix, obst_iy))
        assert got[-1] and not got.all()


# ---------------------------------------------------------------------------
# disc search


def ref_disc_cells(mask, centers, r_cells):
    """Every cell of the mask in flat-index order, kept when it is set and
    within r_cells of some center."""
    h, w = mask.shape
    cells = [
        (ix, iy)
        for iy in range(h)
        for ix in range(w)
        if mask[iy, ix] and any((ix - cx) ** 2 + (iy - cy) ** 2 <= r_cells**2 for cx, cy in centers)
    ]
    return [ix for ix, _ in cells], [iy for _, iy in cells]


class WindowLog(np.ndarray):
    """A mask that records every index it is read at."""

    def __getitem__(self, key):
        self.keys.append(key)
        return np.asarray(self)[key]


class TestDiscCellsMatchesLoop:
    RADII = (0.5, 1.5, 3.0, 25.0)

    @classmethod
    def cases(cls):
        """(mask, centers, r_cells): random bool masks and 30 x 30 local
        grids compared with FREE_CELL, with one to four centers inside the
        grid, on its edges, and off it on every side, mostly to the left and
        below, where the window's bounds go negative."""
        rng = np.random.default_rng(46)
        states = np.array([UNKNOWN_CELL, FREE_CELL, OBSTACLE_CELL], dtype=np.int8)
        for k in range(240):
            if k % 2:
                h, w = (int(d) for d in rng.integers(1, 41, size=2))
                mask = rng.random((h, w)) < rng.uniform(0.0, 1.0)
            else:
                h = w = 30
                mask = states[rng.choice(3, size=(h, w), p=rng.dirichlet(np.ones(3)))] == FREE_CELL
            centers = []
            for _ in range(int(rng.integers(1, 5))):
                kind = rng.integers(0, 4)
                if kind == 0:  # inside
                    c = (int(rng.integers(0, w)), int(rng.integers(0, h)))
                elif kind == 1:  # on an edge
                    c = [(0, int(rng.integers(0, h))), (w - 1, int(rng.integers(0, h))),
                         (int(rng.integers(0, w)), 0), (int(rng.integers(0, w)), h - 1)][int(rng.integers(0, 4))]
                elif kind == 2:  # off to the left or below
                    c = [(int(rng.integers(-30, 0)), int(rng.integers(-5, h))),
                         (int(rng.integers(-5, w)), int(rng.integers(-30, 0)))][int(rng.integers(0, 2))]
                else:  # off anywhere
                    c = (int(rng.integers(-30, w + 30)), int(rng.integers(-30, h + 30)))
                centers.append(c)
            yield mask, centers, cls.RADII[k % len(cls.RADII)]

    def test_cells_match_the_loop_in_order(self):
        found = empty = several = 0
        for mask, centers, r_cells in self.cases():
            ixs, iys = geometry.disc_cells(mask, centers, r_cells)
            assert ixs.dtype == iys.dtype == np.intp
            assert [ixs.tolist(), iys.tolist()] == list(ref_disc_cells(mask, centers, r_cells)), (centers, r_cells)
            found += ixs.size > 0
            empty += ixs.size == 0
            several += len(centers) > 1 and ixs.size > 0
        assert found > 100 and empty > 20 and several > 50, (found, empty, several)

    def test_reads_only_the_window_clamped_to_the_grid(self):
        # a window wholly off the grid to the left or below has a negative
        # upper bound, which would wrap a slice round to the far side
        off_grid = 0
        for mask, centers, r_cells in self.cases():
            log = mask.view(WindowLog)
            log.keys = []
            geometry.disc_cells(log, centers, r_cells)
            h, w = mask.shape
            for ys, xs in log.keys:
                assert 0 <= ys.start <= ys.stop <= h and 0 <= xs.start <= xs.stop <= w, (centers, r_cells)
            off_grid += not log.keys
        assert off_grid > 10, off_grid


# ---------------------------------------------------------------------------
# distance transform and close


def assert_edt_matches_scipy(mask):
    got = planner._edt(mask)
    assert got.dtype == np.float64 and got.shape == mask.shape
    assert bits(got) == bits(distance_transform_edt(mask))


class TestDistanceTransformMatchesScipy:
    DENSITIES = (0.0005, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 1.0)

    def test_random_shapes_at_every_density(self):
        rng = np.random.default_rng(20)
        for density in self.DENSITIES:
            for _ in range(30):
                h, w = (int(v) for v in rng.integers(1, 71, size=2))
                mask = rng.random((h, w)) >= density  # True = free
                mask[rng.integers(h), rng.integers(w)] = False
                assert_edt_matches_scipy(mask)

    def test_single_rows_and_columns(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 7, 70, 199):
            for density in self.DENSITIES:
                row = rng.random((1, n)) >= density
                row[0, rng.integers(n)] = False
                assert_edt_matches_scipy(row)
                assert_edt_matches_scipy(np.ascontiguousarray(row.T))

    @pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
    def test_single_corner_obstacle_on_200x200(self, corner):
        mask = np.ones((200, 200), dtype=bool)
        mask[corner] = False
        assert_edt_matches_scipy(mask)

    def test_all_obstacle_grids(self):
        for shape in ((1, 1), (1, 9), (9, 1), (13, 8), (70, 70)):
            mask = np.zeros(shape, dtype=bool)
            assert_edt_matches_scipy(mask)
            assert not planner._edt(mask).any()

    def test_distance_field_in_meters(self):
        rng = np.random.default_rng(22)
        truth = make_map(cluttered_classes(rng, 47, 31), resolution=0.5, origin=(-3.0, 2.0))
        grid = planner.extract_traversability(truth, 0)
        assert bits(grid.dist) == bits(distance_transform_edt(grid.free) * 0.5)


class TestCloseMatchesScipy:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_random_masks(self, radius):
        rng = np.random.default_rng(30 + radius)
        for density in (0.02, 0.2, 0.5, 0.8, 0.98):
            for _ in range(12):
                h, w = (int(v) for v in rng.integers(1, 50, size=2))
                mask = rng.random((h, w)) < density
                got = planner._close(mask, radius)
                assert got.dtype == bool
                assert np.array_equal(got, ref_close(mask, radius))

    def test_road_network_with_holes(self):
        rng = np.random.default_rng(33)
        classes = cluttered_classes(rng, 60, 60, blocked=0.08)
        mask = traversable_mask(classes)
        for radius in (1, 2, 3):
            assert np.array_equal(planner._close(mask, radius), ref_close(mask, radius))


class TestRoiClustersMatchLoop:
    """``extract_rois`` gives the ROIs of the all-pairs union-find clusters:
    the same ids, members and goal cells."""

    def test_random_maps(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            w, h = (int(v) for v in rng.integers(4, 40, size=2))
            res = float(rng.uniform(0.5, 2.0))
            classes = cluttered_classes(rng, w, h, blocked=float(rng.uniform(0.05, 0.4)))
            grid_map = make_map(classes, resolution=res)
            radius = float(rng.uniform(0.5, 7.0))
            grid = planner.extract_traversability(grid_map, 0)
            want = sorted(
                (mission.ROI(mission.roi_id_for(cells), cells, mission._goal_for_cluster(cells, grid, 3.0))
                 for cells in ref_clusters(grid_map, radius)),
                key=lambda r: r.roi_id,
            )
            got = mission.extract_rois(grid_map, radius, dilation_radius=3.0, grid=grid)
            assert got == want

    @pytest.mark.parametrize("spacing, n_rois", [(3, 2000), (2, 1)])
    def test_lattice_of_2000_cells(self, spacing, n_rois):
        """Cells spaced wider than the 2.5-cell radius stay apart; spaced
        narrower, they form one ROI."""
        classes = np.full((40 * spacing, 50 * spacing), int(SemanticClass.ROAD), dtype=np.int8)
        classes[::spacing, ::spacing] = SemanticClass.VEHICLE
        rois = mission.extract_rois(make_map(classes), 2.5, dilation_radius=3.0, close_radius=0)
        assert len(rois) == n_rois
        assert sum(len(r.member_cells) for r in rois) == 2000
