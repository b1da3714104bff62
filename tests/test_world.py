"""World model: file format, footprint and scan queries."""

import math

import numpy as np
import pytest

from semteam import world
from semteam.world import (
    LETTER_TO_CLASS,
    Scan,
    SemanticClass,
    SemanticGridMap,
    WorldFormatError,
    WorldModel,
    beam_offsets,
    footprint_indices,
    ground_scan,
    parse_world,
    traversable,
    traversable_mask,
    world_to_text,
)


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
        observed=np.ones((h, w), dtype=bool),
        version=1,
    )


def vehicle_cells(grid):
    """The VEHICLE cells of a map, row by row."""
    iys, ixs = np.nonzero(grid.classes == SemanticClass.VEHICLE)
    return [(int(ix), int(iy)) for ix, iy in zip(ixs, iys)]


def uniform_map(cls, w, h, **kw):
    return make_map(np.full((h, w), int(cls), dtype=np.int8), **kw)


def random_world_text(rng, w=64, h=64):
    letters = list(LETTER_TO_CLASS)
    rows = ["".join(rng.choice(letters, size=w)) for _ in range(h)]
    elev = rng.integers(0, 500, size=(h, w)) / 100.0
    lines = [f"{w} {h} 1.0 0.0 0.0"] + rows
    lines += [" ".join(repr(float(v)) for v in row) for row in elev]
    return "\n".join(lines) + "\n"


class TestTraversability:
    def test_pure_function_of_class(self):
        for cls in SemanticClass:
            assert traversable(cls) == (
                cls in (SemanticClass.ROAD, SemanticClass.DIRT_GRAVEL)
            )

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(7)
        classes = rng.integers(0, 7, size=(12, 9)).astype(np.int8)
        mask = traversable_mask(classes)
        for iy in range(12):
            for ix in range(9):
                assert mask[iy, ix] == traversable(SemanticClass(int(classes[iy, ix])))


class TestWorldFile:
    def test_all_road_world_has_no_targets(self):
        text = "4 4 1.0 0.0 0.0\n" + "\n".join(["RRRR"] * 4) + "\n"
        world = parse_world(text)
        assert vehicle_cells(world.truth) == []
        assert world.truth.classes.shape == (4, 4)

    def test_single_vehicle_cell_is_target(self):
        rows = [["R"] * 5 for _ in range(5)]
        rows[3][2] = "C"
        text = "5 5 1.0 0.0 0.0\n" + "\n".join("".join(r) for r in rows) + "\n"
        world = parse_world(text)
        assert vehicle_cells(world.truth) == [(2, 3)]

    def test_round_trip_byte_identical(self):
        rng = np.random.default_rng(42)
        text = random_world_text(rng)
        saved = world_to_text(parse_world(text))
        # canonical form is a fixed point of parse/save
        assert world_to_text(parse_world(saved)) == saved

    def test_malformed_header(self):
        with pytest.raises(WorldFormatError, match="header"):
            parse_world("4 4 1.0\nRRRR\n")

    @pytest.mark.parametrize(
        "header", ["2 2 nan 0 0", "2 2 inf 0 0", "2 2 1.0 nan 0", "2 2 1.0 0 -inf", "2 2 1.0 inf nan"]
    )
    def test_non_finite_header_value(self, header):
        with pytest.raises(WorldFormatError, match="line 1: resolution and origin must be finite"):
            parse_world(header + "\nRR\nRR\n")

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(WorldFormatError, match="line 3"):
            parse_world("4 2 1.0 0.0 0.0\nRRRR\nRRR\n")

    def test_unknown_class_code_names_cell(self):
        with pytest.raises(WorldFormatError, match=r"cell \(2, 1\)"):
            parse_world("4 2 1.0 0.0 0.0\nRRRR\nRRXR\n")

    def test_elevation_block_loaded(self):
        text = "2 2 1.0 0.0 0.0\nRR\nRR\n1.0 2.0\n3.0 4.0\n"
        world = parse_world(text)
        assert world.truth.elevation[0, 1] == 2.0
        assert world.truth.elevation[1, 0] == 3.0

    def test_elevation_block_optional(self):
        text = "2 2 1.0 0.0 0.0\nRR\nRC\n"
        world = parse_world(text)
        assert world.truth.elevation is None
        assert world_to_text(world) == text
        # an all-zero block carries nothing and is not written back
        assert world_to_text(parse_world(text + "0.0 0.0\n0.0 0.0\n")) == text

    def test_malformed_elevation_row_names_row(self):
        with pytest.raises(WorldFormatError, match="elevation row 1"):
            parse_world("2 2 1.0 0.0 0.0\nRR\nRR\n1.0 2.0\n3.0\n")


class TestAerialFootprint:
    def test_tan45_square_side(self):
        grid = uniform_map(SemanticClass.ROAD, 40, 40)
        ixs, _ = footprint_indices(grid, (20.0, 20.0, 10.0, 0.0), math.radians(45))
        # side 20 m at 1 m resolution: 20x20 cells
        assert len(ixs) == 400

    def test_vanishing_altitude(self):
        grid = uniform_map(SemanticClass.ROAD, 10, 10)
        ixs, _ = footprint_indices(grid, (5.2, 5.2, 1e-9, 0.3), math.radians(45))
        assert len(ixs) <= 1

    def test_invalid_altitude(self):
        grid = uniform_map(SemanticClass.ROAD, 10, 10)
        with pytest.raises(ValueError):
            footprint_indices(grid, (5.0, 5.0, 0.0, 0.0), math.radians(45))

    def test_matches_brute_force_rotated_square(self):
        grid = uniform_map(SemanticClass.GRASS, 48, 48)
        yaw = math.radians(30)
        pose = (22.3, 25.1, 12.0, yaw)
        half = 12.0 * math.tan(math.radians(45))
        ixs, iys = footprint_indices(grid, pose, math.radians(45))
        got = set(zip(ixs.tolist(), iys.tolist()))
        assert len(got) == len(ixs)  # no cell twice

        expected = set()
        c, s = math.cos(yaw), math.sin(yaw)
        for iy in range(48):
            for ix in range(48):
                dx = (ix + 0.5) - pose[0]
                dy = (iy + 0.5) - pose[1]
                lx = c * dx + s * dy
                ly = -s * dx + c * dy
                if abs(lx) <= half and abs(ly) <= half:
                    expected.add((ix, iy))
        assert got == expected

    def test_area_within_one_cell_ring(self):
        grid = uniform_map(SemanticClass.GRASS, 200, 200)
        rng = np.random.default_rng(3)
        for _ in range(20):
            alt = float(rng.uniform(5, 40))
            fov = float(rng.uniform(0.3, 1.0))
            pose = (float(rng.uniform(60, 140)), float(rng.uniform(60, 140)), alt, float(rng.uniform(0, 6.28)))
            side = 2 * alt * math.tan(fov)
            ixs, _ = footprint_indices(grid, pose, fov)
            area = len(ixs) * grid.resolution**2
            ring = 4 * (side + 1) * grid.resolution  # one-cell ring around the square
            assert abs(area - side**2) <= ring


class TestGroundScan:
    def test_empty_world_all_misses(self):
        grid = uniform_map(SemanticClass.ROAD, 30, 30)
        scan = ground_scan(grid, (15.0, 15.0, 0.2), 8.0, 16)
        assert all(r == 8.0 and c == SemanticClass.UNKNOWN for r, c in zip(scan.ranges, scan.classes))

    def test_wall_ahead(self):
        classes = np.full((20, 20), int(SemanticClass.ROAD), dtype=np.int8)
        classes[:, 15] = SemanticClass.BUILDING
        grid = make_map(classes)
        scan = ground_scan(grid, (10.5, 10.5, 0.0), 12.0, 4)
        rng0, cls0 = scan.ranges[0], scan.classes[0]
        assert cls0 == SemanticClass.BUILDING
        assert abs(rng0 - 4.5) <= grid.resolution

    def test_pose_out_of_bounds(self):
        grid = uniform_map(SemanticClass.ROAD, 10, 10)
        with pytest.raises(ValueError):
            ground_scan(grid, (-1.0, 5.0, 0.0), 5.0, 4)

    def test_matches_fine_step_ray_march(self):
        rng = np.random.default_rng(11)
        classes = np.where(
            rng.random((32, 32)) < 0.25,
            int(SemanticClass.BUILDING),
            int(SemanticClass.ROAD),
        ).astype(np.int8)
        classes[16, 16] = SemanticClass.ROAD
        grid = make_map(classes)
        pose = (16.5, 16.5, 0.37)
        max_range = 14.0
        n_beams = 32
        scan = ground_scan(grid, pose, max_range, n_beams)

        diag = math.sqrt(2) * grid.resolution
        step = 0.01
        for i, (got_range, got_cls) in enumerate(zip(scan.ranges, scan.classes)):
            az = pose[2] + 2 * math.pi * i / n_beams
            c, s = math.cos(az), math.sin(az)
            oracle_range, oracle_cls = max_range, SemanticClass.UNKNOWN
            t = step
            while t <= max_range:
                ix = int(math.floor(pose[0] + t * c))
                iy = int(math.floor(pose[1] + t * s))
                if not grid.in_bounds(ix, iy):
                    break
                cls = SemanticClass(int(classes[iy, ix]))
                if not traversable(cls):
                    oracle_range, oracle_cls = t, cls
                    break
                t += step
            assert abs(got_range - oracle_range) <= diag, f"beam {i}"
            if oracle_range < max_range - diag:
                assert got_cls == oracle_cls

    def test_adding_obstacle_never_increases_range(self):
        rng = np.random.default_rng(5)
        base = np.full((24, 24), int(SemanticClass.ROAD), dtype=np.int8)
        base[rng.random((24, 24)) < 0.1] = SemanticClass.VEGETATION
        base[12, 12] = SemanticClass.ROAD
        grid = make_map(base.copy())
        before = ground_scan(grid, (12.5, 12.5, 0.0), 10.0, 24)
        for _ in range(30):
            ix, iy = int(rng.integers(0, 24)), int(rng.integers(0, 24))
            if (ix, iy) == (12, 12):
                continue
            base[iy, ix] = SemanticClass.BUILDING
            grid = make_map(base.copy())
            after = ground_scan(grid, (12.5, 12.5, 0.0), 10.0, 24)
            for r0, r1 in zip(before.ranges, after.ranges):
                assert r1 <= r0 + 1e-9
            before = after

    def test_scan_from_blocked_cell_reports_zero(self):
        classes = np.full((6, 6), int(SemanticClass.GRASS), dtype=np.int8)
        grid = make_map(classes)
        scan = ground_scan(grid, (3.5, 3.5, 0.0), 4.0, 8)
        assert all(r == 0.0 and c == SemanticClass.GRASS for r, c in zip(scan.ranges, scan.classes))

    @pytest.mark.parametrize("n_beams", [36, 1])
    @pytest.mark.parametrize("start", [SemanticClass.ROAD, SemanticClass.VEGETATION])
    def test_returns_one_array_entry_per_beam(self, start, n_beams):
        # a wall east of the pose; a VEGETATION start takes the blocked path
        classes = np.full((20, 20), int(SemanticClass.ROAD), dtype=np.int8)
        classes[:, 15] = SemanticClass.BUILDING
        classes[10, 10] = start
        scan = ground_scan(make_map(classes), (10.5, 10.5, 0.0), 8.0, n_beams)
        assert type(scan) is Scan
        assert scan.ranges.dtype == np.float64 and scan.ranges.shape == (n_beams,)
        assert scan.classes.dtype == np.int64 and scan.classes.shape == (n_beams,)
        want = (5.0, SemanticClass.BUILDING) if traversable(start) else (0.0, start)
        assert (scan.ranges[0], scan.classes[0]) == want

    def test_sees_a_cell_changed_on_a_writable_map(self):
        grid = uniform_map(SemanticClass.ROAD, 20, 20)
        assert ground_scan(grid, (10.5, 10.5, 0.0), 8.0, 4).classes[0] == SemanticClass.UNKNOWN
        grid.classes[10, 14] = SemanticClass.BUILDING
        scan = ground_scan(grid, (10.5, 10.5, 0.0), 8.0, 4)
        assert (scan.ranges[0], scan.classes[0]) == (4.0, SemanticClass.BUILDING)

    @pytest.mark.parametrize("n", [1, 7, 36])
    def test_beam_offsets_read_only_and_exact(self, n):
        offsets = beam_offsets(n)
        assert not offsets.flags.writeable
        want = 2.0 * math.pi * np.arange(n) / n
        assert offsets.dtype == want.dtype and offsets.tobytes() == want.tobytes()


class TestScansOfAFrozenMap:
    def test_same_pose_gets_the_same_read_only_scan(self):
        rng = np.random.default_rng(12)
        classes = np.full((40, 40), int(SemanticClass.ROAD), dtype=np.int8)
        classes[rng.random((40, 40)) < 0.1] = SemanticClass.BUILDING
        thawed = make_map(classes.copy())
        truth = WorldModel.from_map(make_map(classes)).truth
        poses = [(20.5, 20.5, 0.25), (20.5, 20.5, -0.0), (20.5, 20.5, 0.0), (7.25, 30.0, 2.0)]
        for pose in poses + poses:
            scan = ground_scan(truth, pose, 12.0, 24)
            want = ground_scan(thawed, pose, 12.0, 24)
            assert scan.ranges.tobytes() == want.ranges.tobytes()
            assert scan.classes.tobytes() == want.classes.tobytes()
            assert not (scan.ranges.flags.writeable or scan.classes.flags.writeable)
        # -0.0 and 0.0 are different poses, and so are other beam counts
        assert ground_scan(truth, poses[1], 12.0, 24) is not ground_scan(truth, poses[2], 12.0, 24)
        assert ground_scan(truth, poses[0], 12.0, 24) is not ground_scan(truth, poses[0], 12.0, 12)
        # a parked pose stays while moving ones come and go
        parked = ground_scan(truth, poses[0], 12.0, 24)
        for k in range(3 * world.SCANS_KEPT):
            ground_scan(truth, (3.0 + 0.1 * k, 12.0, 1.0), 12.0, 24)
            if k % (world.SCANS_KEPT // 2) == 0:
                assert ground_scan(truth, poses[0], 12.0, 24) is parked
        assert len(truth._scans) == world.SCANS_KEPT


class TestWorldModel:
    def test_targets_equal_vehicle_cells(self):
        rng = np.random.default_rng(9)
        classes = np.full((16, 16), int(SemanticClass.ROAD), dtype=np.int8)
        classes[rng.random((16, 16)) < 0.08] = SemanticClass.VEHICLE
        world = WorldModel.from_map(make_map(classes))
        expected = {
            (ix, iy)
            for iy in range(16)
            for ix in range(16)
            if classes[iy, ix] == SemanticClass.VEHICLE
        }
        assert set(vehicle_cells(world.truth)) == expected
