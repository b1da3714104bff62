"""Aerial mapping: keyframes, fusion, snapshot format."""

import math

import numpy as np
import pytest

from semteam.aerial import (
    Keyframe,
    MapAccumulator,
    decode_snapshot,
    encode_snapshot,
    full_view_keyframe,
    maybe_create_keyframe,
)
from semteam.planner import extract_traversability
from semteam.world import SemanticClass, SemanticGridMap, WorldModel

FOV = math.radians(30)


def flat_world(w=40, h=40, cls=SemanticClass.ROAD):
    grid = SemanticGridMap(
        origin_x=0.0,
        origin_y=0.0,
        resolution=1.0,
        width=w,
        height=h,
        classes=np.full((h, w), int(cls), dtype=np.int8),
        observed=np.ones((h, w), dtype=bool),
        version=1,
    )
    return WorldModel.from_map(grid)


def kf_at(world, x, y, alt=10.0):
    return maybe_create_keyframe(
        (x, y, alt, 0.0),
        None,
        1.0,
        world=world,
        fov_half_angle=FOV,
    )


def cells_of(kf):
    """(cell, class) per observed cell."""
    return [((int(ix), int(iy)), SemanticClass(int(c))) for ix, iy, c in zip(kf.ixs, kf.iys, kf.classes)]


class TestKeyframeCreation:
    def test_below_threshold_none(self):
        world = flat_world()
        out = maybe_create_keyframe(
            (4.9, 0, 10, 0), (0, 0, 10, 0), 5.0,
            world=world, fov_half_angle=FOV,
        )
        assert out is None

    def test_boundary_inclusive(self):
        world = flat_world()
        out = maybe_create_keyframe(
            (5.0, 0, 10, 0), (0, 0, 10, 0), 5.0,
            world=world, fov_half_angle=FOV,
        )
        assert out is not None

    def test_straight_flight_keyframe_count(self):
        world = flat_world(w=220, h=20)
        created = 0
        last = None
        # 100 m straight flight sampled every 0.25 m (exact float steps)
        for k in range(401):
            x = k * 0.25
            pose = (x, 10.0, 10.0, 0.0)
            kf = maybe_create_keyframe(
                pose, last, 5.0, world=world, fov_half_angle=FOV,
            )
            if kf is not None:
                created += 1
                last = pose
        assert created == 21


class TestFusion:
    def _random_keyframes(self, seed, n=50):
        rng = np.random.default_rng(seed)
        classes = rng.integers(0, 6, size=(32, 32)).astype(np.int8)
        grid = SemanticGridMap(
            origin_x=0.0, origin_y=0.0, resolution=1.0, width=32, height=32,
            classes=classes,
            observed=np.ones((32, 32), dtype=bool), version=1,
        )
        world = WorldModel.from_map(grid)
        kfs = []
        for _ in range(n):
            x = float(rng.uniform(2, 30))
            y = float(rng.uniform(2, 30))
            alt = float(rng.uniform(3, 9))
            pose = (x, y, alt, float(rng.uniform(0, 2 * math.pi)))
            kf = maybe_create_keyframe(
                pose, None, 1.0, world=world, fov_half_angle=FOV,
            )
            kfs.append(kf)
        return world, kfs

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
            layers.append(acc.classes.copy())
        for cls in layers[1:]:
            assert np.array_equal(cls, layers[0])

    def test_every_snapshot_holds_truth_where_observed(self):
        # every keyframe copies the truth, so the fused map needs no rule
        # to choose between observations of a cell
        world, kfs = self._random_keyframes(seed=8, n=20)
        truth = world.truth.classes
        rng = np.random.default_rng(9)
        for preload in (False, True):
            for _ in range(3):
                order = list(kfs)
                rng.shuffle(order)
                acc = MapAccumulator.like(world.truth)
                if preload:
                    acc.fuse_keyframe(full_view_keyframe(world.truth))
                for kf in order:
                    acc.fuse_keyframe(kf)
                    snap = acc.snapshot()
                    assert np.array_equal(snap.classes[snap.observed], truth[snap.observed])
                    assert (snap.classes[~snap.observed] == SemanticClass.UNKNOWN).all()
                assert snap.observed.all() == preload

    def test_out_of_bounds_cells_dropped(self):
        acc = MapAccumulator(10, 10)
        world = flat_world(40, 40)
        kf = kf_at(world, 8.0, 8.0, alt=6.0)  # footprint partly beyond 10x10
        acc.fuse_keyframe(kf)
        cells = {cell for cell, *_ in cells_of(kf)}
        inside = {(ix, iy) for ix, iy in cells if ix < 10 and iy < 10}
        assert inside and inside != cells
        got = {(int(ix), int(iy)) for iy, ix in zip(*np.nonzero(acc.observed))}
        assert got == inside


class TestCompletion:
    def test_new_and_partial_maps_are_not_complete(self):
        world = flat_world()
        acc = MapAccumulator.like(world.truth)
        assert acc.complete is False
        acc.fuse_keyframe(kf_at(world, 20.0, 20.0))
        assert acc.observed.any() and not acc.observed.all()
        assert acc.complete is False

    def test_a_full_view_completes_the_map(self):
        world = flat_world()
        acc = MapAccumulator.like(world.truth)
        acc.fuse_keyframe(full_view_keyframe(world.truth))
        assert acc.complete is True

    def test_complete_once_the_last_cell_is_seen(self):
        world, kfs = TestFusion()._random_keyframes(seed=4, n=20)
        acc = MapAccumulator.like(world.truth)
        for kf in kfs:
            acc.fuse_keyframe(kf)
            assert acc.complete is bool(acc.observed.all())
        iys, ixs = np.nonzero(~acc.observed)
        assert len(ixs) > 1
        acc.fuse_keyframe(Keyframe(ixs=ixs[1:], iys=iys[1:], classes=world.truth.classes[iys[1:], ixs[1:]]))
        assert acc.complete is False
        acc.fuse_keyframe(Keyframe(ixs=ixs[:1], iys=iys[:1], classes=world.truth.classes[iys[:1], ixs[:1]]))
        assert acc.complete is True

    def test_no_keyframe_changes_a_complete_map(self):
        # every keyframe copies the truth, which a complete map already holds
        world, kfs = TestFusion()._random_keyframes(seed=12, n=20)
        acc = MapAccumulator.like(world.truth)
        acc.fuse_keyframe(full_view_keyframe(world.truth))
        before = (acc.classes.tobytes(), acc.observed.tobytes())
        for kf in kfs + [full_view_keyframe(world.truth)]:
            acc.fuse_keyframe(kf)
            assert (acc.classes.tobytes(), acc.observed.tobytes()) == before
            assert acc.complete is True


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
        kf = kf_at(world, 10.0, 10.0, alt=5.0)
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

    def test_changed_until_a_snapshot_shows_every_seen_cell(self):
        world, kfs = TestFusion()._random_keyframes(seed=5, n=6)
        acc = MapAccumulator.like(world.truth)
        assert acc.changed is False
        for kf in kfs:
            shown = acc.observed.copy()
            acc.fuse_keyframe(kf)
            assert acc.changed is bool((acc.observed & ~shown).any())
            acc.fuse_keyframe(kf)
            assert acc.changed is bool((acc.observed & ~shown).any())
            acc.snapshot()
            assert acc.changed is False
        # seeing only cells that were shown before changes nothing
        acc.fuse_keyframe(kfs[0])
        acc.fuse_keyframe(Keyframe(ixs=np.array([-1]), iys=np.array([0]), classes=np.array([1], dtype=np.int8)))
        assert acc.changed is False

    def test_wire_roundtrip(self):
        rng = np.random.default_rng(3)
        acc = MapAccumulator(17, 9, resolution=0.5, origin_x=-3.0, origin_y=2.0)
        world = flat_world(17, 9)
        for _ in range(4):
            acc.fuse_keyframe(kf_at(world, float(rng.uniform(2, 8)), float(rng.uniform(2, 7)), alt=3.0))
        snap = acc.snapshot()
        data = encode_snapshot(snap)
        back = decode_snapshot(data)
        assert back.version == snap.version
        assert back.width == snap.width and back.height == snap.height
        assert back.resolution == snap.resolution
        assert (back.origin_x, back.origin_y) == (snap.origin_x, snap.origin_y)
        assert np.array_equal(back.classes, snap.classes)
        assert np.array_equal(back.observed, snap.observed)
        assert 0 < snap.observed.sum() < snap.observed.size
        # header, one class byte per cell, then ceil(153 / 8) bytes of bits
        assert len(data) == 36 + 17 * 9 + 20
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
            observed=np.ones((n, n), dtype=bool),
            version=1,
        )
        return WorldModel.from_map(grid)

    def snapshots(self, world, preload):
        rng = np.random.default_rng(22)
        acc = MapAccumulator.like(world.truth)
        if preload:
            acc.fuse_keyframe(full_view_keyframe(world.truth))
        snaps, last, n_keyframes = [], None, 0
        x, y = 5.0, 5.0
        for _ in range(120):
            x = float(np.clip(x + rng.uniform(-2, 2), -2, 32))
            y = float(np.clip(y + rng.uniform(-2, 2), -2, 32))
            pose = (x, y, float(rng.uniform(2, 6)), 0.0)
            kf = maybe_create_keyframe(pose, last, 1.5, world=world, fov_half_angle=FOV)
            if kf is not None:
                last, n_keyframes = pose, n_keyframes + 1
                acc.fuse_keyframe(kf)
                snaps.append(acc.snapshot())
        assert n_keyframes > 20
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
