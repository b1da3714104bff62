"""The array kernels of the scan and filter hot path give exactly the floats
of their step-by-step loop versions, which are kept here as references.

The array code does the same arithmetic in the same order, so every result
is compared for equality (bit for bit where floats are involved), never
within a tolerance.
"""

import math

import numpy as np
import pytest

from semteam.localize import ParticleSet, PolarObservation, match_costs
from semteam.world import SemanticClass, SemanticGridMap, ground_scan, traversable, traversable_mask

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
    filled = np.zeros((n_azimuth, n_range), dtype=bool)
    n_beams = len(scan)
    az_width = 2.0 * math.pi / n_azimuth
    rng_width = max_range / n_range
    dxs, dys, classes = [], [], []
    for i, (rng, hit_cls) in enumerate(scan):
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
    for i, (rng, hit_cls) in enumerate(scan):
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
    all_expected = np.concatenate([obs.bin_classes, np.full(obs.free_dx.size, -1, dtype=np.int64)])
    c, s = np.cos(particles.yaws)[:, None], np.sin(particles.yaws)[:, None]
    dx, dy = obs.all_dx[None, :], obs.all_dy[None, :]
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
        elevation=np.zeros((h, w)),
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


def bits(a):
    """Bytes of a float array, so that -0.0 and 0.0 differ too."""
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def assert_same_scan(got, want):
    assert len(got) == len(want)
    for (r1, c1), (r2, c2) in zip(got, want):
        assert type(r1) is float and type(c1) is SemanticClass
        assert (bits([r1]), c1) == (bits([r2]), c2)


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
        assert got == [(0.0, SemanticClass.BUILDING)] and math.copysign(1.0, got[0][0]) == 1.0
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
        assert got[0][1] == SemanticClass.VEHICLE
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
        assert all(c == SemanticClass.UNKNOWN for _, c in ground_scan(grid, (0.5, 0.5, 0.0), 15.0, 36))

    def test_non_traversable_start(self):
        rng = np.random.default_rng(6)
        classes = cluttered_classes(rng, 10, 10)
        classes[4, 4] = SemanticClass.VEGETATION
        grid = make_map(classes)
        got = ground_scan(grid, (4.5, 4.5, 0.2), 5.0, 12)
        assert_same_scan(got, ref_ground_scan(grid, (4.5, 4.5, 0.2), 5.0, 12))
        assert got == [(0.0, SemanticClass.VEGETATION)] * 12


# ---------------------------------------------------------------------------
# from_scan


def assert_same_observation(obs, want):
    fields = (obs.local_dx, obs.local_dy, obs.bin_classes, obs.free_dx, obs.free_dy)
    for got, ref in zip(fields, want):
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
    return scan


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
        scan = [(4.2, SemanticClass(2 + i % 4)) for i in range(72)]
        obs = PolarObservation.from_scan(scan, 36, 10, 15.0)
        assert obs.bin_classes.size == 36
        assert_same_observation(obs, ref_from_scan(scan, 36, 10, 15.0))

    def test_all_unknown_scan(self):
        scan = [(15.0, SemanticClass.UNKNOWN)] * 36
        for stride in (1, 3):
            obs = PolarObservation.from_scan(scan, 36, 10, 15.0, free_stride=stride)
            assert obs.bin_classes.size == 0
            assert_same_observation(obs, ref_from_scan(scan, 36, 10, 15.0, free_stride=stride))

    def test_blocked_start_scan(self):
        scan = [(0.0, SemanticClass.GRASS)] * 36
        obs = PolarObservation.from_scan(scan, 36, 10, 15.0)
        assert obs.free_dx.size == 0
        assert_same_observation(obs, ref_from_scan(scan, 36, 10, 15.0))

    def test_empty_scan(self):
        obs = PolarObservation.from_scan([], 8, 4, 5.0)
        assert obs.n_filled == 0
        assert_same_observation(obs, ref_from_scan([], 8, 4, 5.0))

    def test_ground_scans(self):
        rng = np.random.default_rng(8)
        grid = make_map(cluttered_classes(rng, 40, 40))
        for _ in range(30):
            pose = (float(rng.uniform(0, 40)), float(rng.uniform(0, 40)), float(rng.uniform(-4, 4)))
            scan = ground_scan(grid, pose, 15.0, 36)
            args = (scan, 36, 10, 15.0, 1.0)
            assert_same_observation(PolarObservation.from_scan(*args), ref_from_scan(*args))

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
                got = match_costs(particles, obs, grid, cost)
                assert got.tobytes() == ref_match_costs(particles, obs, grid, cost).tobytes()

    def test_particles_far_off_the_map(self):
        rng = np.random.default_rng(10)
        grid = make_map(cluttered_classes(rng, 20, 20))
        obs = PolarObservation.from_scan(ground_scan(grid, (10.5, 10.5, 0.0), 15.0, 36), 36, 10, 15.0)
        particles = particles_around(rng, 50, (10.0, 10.0), spread=1e6)
        got = match_costs(particles, obs, grid, 0.4)
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()

    def test_all_unknown_map(self):
        rng = np.random.default_rng(11)
        truth = make_map(cluttered_classes(rng, 30, 30))
        obs = PolarObservation.from_scan(ground_scan(truth, (15.5, 15.5, 0.4), 15.0, 36), 36, 10, 15.0)
        grid = SemanticGridMap.unknown(30, 30)
        particles = particles_around(rng, 100, (15.0, 15.0), spread=10.0)
        got = match_costs(particles, obs, grid, 0.4)
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()

    def test_empty_observation(self):
        rng = np.random.default_rng(12)
        obs = PolarObservation.from_scan([], 36, 10, 15.0)
        grid = make_map(cluttered_classes(rng, 10, 10))
        particles = particles_around(rng, 20, (5.0, 5.0), spread=2.0)
        got = match_costs(particles, obs, grid, 0.4)
        assert got.tobytes() == ref_match_costs(particles, obs, grid, 0.4).tobytes()
