"""Aerial mapping: keyframes, fusion, snapshot format."""

import math

import numpy as np
import pytest

from semteam.aerial import (
    MapAccumulator,
    decode_snapshot,
    encode_snapshot,
    full_view_keyframe,
    maybe_create_keyframe,
)
from semteam.planner import extract_traversability
from semteam.world import SemanticClass, SemanticGridMap, WorldModel

FOV = math.radians(30)


def flat_world(w=40, h=40, cls=SemanticClass.ROAD, elevation=None):
    h_, w_ = h, w
    grid = SemanticGridMap(
        origin_x=0.0,
        origin_y=0.0,
        resolution=1.0,
        width=w_,
        height=h_,
        classes=np.full((h_, w_), int(cls), dtype=np.int8),
        elevation=np.zeros((h_, w_)) if elevation is None else elevation,
        observed=np.ones((h_, w_), dtype=bool),
        version=1,
    )
    return WorldModel.from_map(grid)


def kf_at(world, x, y, kf_id, alt=10.0):
    return maybe_create_keyframe(
        (x, y, alt, 0.0),
        None,
        1.0,
        kf_id=kf_id,
        world=world,
        fov_half_angle=FOV,
    )


def cells_of(kf):
    """(cell, class, elevation, center distance) per observed cell."""
    obs = kf.observed_cells
    return [
        ((int(ix), int(iy)), SemanticClass(int(c)), float(e), float(d))
        for ix, iy, c, e, d in zip(obs.ixs, obs.iys, obs.classes, obs.elevations, obs.center_dist)
    ]


class TestKeyframeCreation:
    def test_below_threshold_none(self):
        world = flat_world()
        out = maybe_create_keyframe(
            (4.9, 0, 10, 0), (0, 0, 10, 0), 5.0,
            kf_id=1, world=world, fov_half_angle=FOV,
        )
        assert out is None

    def test_boundary_inclusive(self):
        world = flat_world()
        out = maybe_create_keyframe(
            (5.0, 0, 10, 0), (0, 0, 10, 0), 5.0,
            kf_id=1, world=world, fov_half_angle=FOV,
        )
        assert out is not None

    def test_straight_flight_keyframe_count(self):
        world = flat_world(w=220, h=20)
        created = 0
        last = None
        next_id = 0
        # 100 m straight flight sampled every 0.25 m (exact float steps)
        for k in range(401):
            x = k * 0.25
            pose = (x, 10.0, 10.0, 0.0)
            kf = maybe_create_keyframe(
                pose, last, 5.0, kf_id=next_id, world=world, fov_half_angle=FOV,
            )
            if kf is not None:
                created += 1
                next_id += 1
                last = pose
        assert created == 21

    def test_center_distance_is_planar(self):
        world = flat_world()
        kf = kf_at(world, 20.0, 20.0, 0)
        for (ix, iy), _, _, dist in cells_of(kf):
            expected = math.hypot(ix + 0.5 - 20.0, iy + 0.5 - 20.0)
            assert dist == pytest.approx(expected)


class TestFusion:
    def test_elevation_cumulative_average(self):
        acc = MapAccumulator(8, 8)
        world = flat_world(8, 8)
        kf1 = kf_at(world, 4.0, 4.0, 0, alt=2.0)
        kf1.observed_cells.elevations[:] = 10.0
        kf2 = kf_at(world, 4.0, 4.0, 1, alt=2.0)
        kf2.observed_cells.elevations[:] = 12.0
        acc.fuse_keyframe(kf1)
        acc.fuse_keyframe(kf2)
        fused = acc.fused_elevation()
        assert fused[acc.observed].max() == pytest.approx(11.0)
        assert fused[acc.observed].min() == pytest.approx(11.0)

    def test_closer_center_overwrites_class(self):
        acc = MapAccumulator(16, 16)
        world_far = flat_world(16, 16, cls=SemanticClass.GRASS)
        world_near = flat_world(16, 16, cls=SemanticClass.ROAD)
        far = kf_at(world_far, 3.0, 8.0, 0, alt=4.0)   # cell (8, 8) ~5 m off-center
        near = kf_at(world_near, 8.0, 8.0, 1, alt=4.0)  # cell (8, 8) ~0.7 m off-center
        acc.fuse_keyframe(far)
        acc.fuse_keyframe(near)
        assert acc.best_class[8, 8] == SemanticClass.ROAD

    def test_later_farther_observation_keeps_class(self):
        acc = MapAccumulator(16, 16)
        near = kf_at(flat_world(16, 16, cls=SemanticClass.ROAD), 8.0, 8.0, 0, alt=4.0)
        far = kf_at(flat_world(16, 16, cls=SemanticClass.GRASS), 3.0, 8.0, 1, alt=4.0)
        acc.fuse_keyframe(near)
        acc.fuse_keyframe(far)
        assert acc.best_class[8, 8] == SemanticClass.ROAD

    def _random_keyframes(self, seed, n=50):
        rng = np.random.default_rng(seed)
        elev = rng.uniform(0, 20, size=(32, 32))
        classes = rng.integers(0, 6, size=(32, 32)).astype(np.int8)
        grid = SemanticGridMap(
            origin_x=0.0, origin_y=0.0, resolution=1.0, width=32, height=32,
            classes=classes, elevation=elev,
            observed=np.ones((32, 32), dtype=bool), version=1,
        )
        world = WorldModel.from_map(grid)
        kfs = []
        for k in range(n):
            x = float(rng.uniform(2, 30))
            y = float(rng.uniform(2, 30))
            alt = float(rng.uniform(3, 9))
            pose = (x, y, alt, float(rng.uniform(0, 2 * math.pi)))
            kf = maybe_create_keyframe(
                pose, None, 1.0, kf_id=k, world=world, fov_half_angle=FOV,
            )
            kfs.append(kf)
        return world, kfs

    def test_replay_all_elevation_oracle(self):
        world, kfs = self._random_keyframes(seed=21)
        acc = MapAccumulator(32, 32)
        for kf in kfs:
            acc.fuse_keyframe(kf)
        # independent pass: plain dict accumulation over every observation
        sums, counts = {}, {}
        for kf in kfs:
            for cell, _, elev, _ in cells_of(kf):
                sums[cell] = sums.get(cell, 0.0) + elev
                counts[cell] = counts.get(cell, 0) + 1
        fused = acc.fused_elevation()
        for (ix, iy), total in sums.items():
            assert fused[iy, ix] == pytest.approx(total / counts[(ix, iy)])

    def test_fusion_order_insensitive(self):
        world, kfs = self._random_keyframes(seed=33, n=30)
        rng = np.random.default_rng(5)
        layers = []
        for _ in range(3):
            order = list(kfs)
            rng.shuffle(order)
            acc = MapAccumulator(32, 32)
            for kf in order:
                acc.fuse_keyframe(kf)
            layers.append((acc.fused_elevation(), acc.best_class.copy()))
        for elev, cls in layers[1:]:
            np.testing.assert_allclose(elev, layers[0][0], atol=1e-9)
            assert np.array_equal(cls, layers[0][1])

    def test_global_minimum_class_rule(self):
        world, kfs = self._random_keyframes(seed=8, n=20)
        acc = MapAccumulator(32, 32)
        for kf in kfs:
            acc.fuse_keyframe(kf)
        best = {}
        for kf in kfs:
            for cell, cls, _, dist in cells_of(kf):
                key = (dist, kf.id)
                if cell not in best or key < best[cell][0]:
                    best[cell] = (key, cls)
        for (ix, iy), (_, cls) in best.items():
            assert acc.best_class[iy, ix] == cls

    def test_out_of_bounds_cells_dropped(self):
        acc = MapAccumulator(10, 10)
        world = flat_world(40, 40)
        kf = kf_at(world, 38.0, 38.0, 0, alt=6.0)  # footprint mostly beyond 10x10
        acc.fuse_keyframe(kf)
        assert acc.dropped_cells > 0


class TestSnapshot:
    def test_empty_accumulator_snapshot(self):
        acc = MapAccumulator(6, 6)
        snap = acc.snapshot()
        assert snap.version == 1
        assert not snap.observed.any()
        assert (snap.classes == SemanticClass.UNKNOWN).all()

    def test_single_keyframe_footprint_observed(self):
        world = flat_world(20, 20)
        acc = MapAccumulator(20, 20)
        kf = kf_at(world, 10.0, 10.0, 0, alt=5.0)
        acc.fuse_keyframe(kf)
        snap = acc.snapshot()
        observed = {cell for cell, *_ in cells_of(kf)}
        got = {(int(ix), int(iy)) for iy, ix in zip(*np.nonzero(snap.observed))}
        assert got == observed

    def test_versions_strictly_increasing(self):
        acc = MapAccumulator(4, 4)
        versions = [acc.snapshot().version for _ in range(5)]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_wire_roundtrip(self):
        rng = np.random.default_rng(3)
        acc = MapAccumulator(17, 9, resolution=0.5, origin_x=-3.0, origin_y=2.0)
        world = flat_world(17, 9)
        for k in range(4):
            kf = kf_at(world, float(rng.uniform(2, 8)), float(rng.uniform(2, 7)), k, alt=3.0)
            kf.observed_cells.elevations[:] = rng.uniform(-5, 5, size=len(kf.observed_cells))
            acc.fuse_keyframe(kf)
        snap = acc.snapshot()
        data = encode_snapshot(snap)
        back = decode_snapshot(data)
        assert back.version == snap.version
        assert back.width == snap.width and back.height == snap.height
        assert back.resolution == snap.resolution
        assert np.array_equal(back.classes, snap.classes)
        assert np.array_equal(back.observed, snap.observed)
        np.testing.assert_allclose(back.elevation, snap.elevation, atol=0.005 + 1e-9)
        # canonical bytes: encoding a decoded snapshot reproduces the bytes
        assert encode_snapshot(back) == data


class TestMapOnlyGrows:
    """Later snapshots keep every observed cell and its class, so their
    traversable masks are nested: the planner's roadmap relies on this."""

    def mixed_world(self, n=30):
        rng = np.random.default_rng(21)
        kinds = [SemanticClass.ROAD, SemanticClass.DIRT_GRAVEL, SemanticClass.VEGETATION,
                 SemanticClass.BUILDING, SemanticClass.VEHICLE]
        classes = np.array(kinds, dtype=np.int8)[rng.integers(0, len(kinds), size=(n, n))]
        grid = SemanticGridMap(
            origin_x=0.0,
            origin_y=0.0,
            resolution=1.0,
            width=n,
            height=n,
            classes=classes,
            elevation=rng.uniform(0, 5, size=(n, n)),
            observed=np.ones((n, n), dtype=bool),
            version=1,
        )
        return WorldModel.from_map(grid)

    def snapshots(self, world, preload):
        rng = np.random.default_rng(22)
        acc = MapAccumulator.like(world.truth)
        if preload:
            acc.fuse_keyframe(full_view_keyframe(world.truth))
        snaps, last, kf_id = [], None, 0
        x, y = 5.0, 5.0
        for _ in range(120):
            x = float(np.clip(x + rng.uniform(-2, 2), -2, 32))
            y = float(np.clip(y + rng.uniform(-2, 2), -2, 32))
            pose = (x, y, float(rng.uniform(2, 6)), 0.0)
            kf = maybe_create_keyframe(pose, last, 1.5, kf_id=kf_id, world=world, fov_half_angle=FOV)
            if kf is not None:
                last, kf_id = pose, kf_id + 1
                acc.fuse_keyframe(kf)
                snaps.append(acc.snapshot())
        assert kf_id > 20
        return snaps

    @pytest.mark.parametrize("preload", [False, True])
    def test_snapshots_never_unobserve_or_rewrite(self, preload):
        world = self.mixed_world()
        snaps = self.snapshots(world, preload)
        if not preload:
            assert snaps[-1].observed.sum() > 20 * snaps[0].observed.sum()
        for old, new in zip(snaps, snaps[1:]):
            assert not (old.observed & ~new.observed).any()
            assert np.array_equal(old.classes[old.observed], new.classes[old.observed])
        last = snaps[-1]
        assert np.array_equal(last.classes[last.observed], world.truth.classes[last.observed])

    @pytest.mark.parametrize("preload", [False, True])
    @pytest.mark.parametrize("close_radius", [0, 2])
    def test_traversable_masks_nested(self, preload, close_radius):
        snaps = self.snapshots(self.mixed_world(), preload)
        frees = [extract_traversability(s, close_radius).free for s in snaps]
        for old, new in zip(frees, frees[1:]):
            assert not (old & ~new).any()
        assert frees[-1].any()
