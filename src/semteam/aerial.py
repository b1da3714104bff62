"""Online aerial semantic ortho-mapping.

The aerial robot maps from its GPS pose, which it takes as exact. A keyframe
is created every time the platform has moved a threshold distance. Each
keyframe's footprint cells are fused into a map accumulator, which marks
them observed and takes their class from the keyframe. Every keyframe copies
the true class of each cell it sees, so every observation of a cell carries
the same class, and the fused map is independent of arrival order. For the
same reason a complete accumulator, one that has observed every cell,
takes no more keyframes: none could change it, and only a fuse that sees a
cell for the first time changes the map at all. So the accumulator records
such a fuse, and a snapshot is published only after one: every published
map has cells that no earlier one had. Fusing noisy or estimated-pose
keyframes would need a tie-break between observations again, such as the
one that keeps the pixel closest to the image center, would have to fuse
past completion, and would have to publish on a changed class too.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from semteam.world import SemanticClass, SemanticGridMap, WorldModel, footprint_indices


@dataclass
class Keyframe:
    """One keyframe's observed cells, as parallel arrays: cell indices and
    class."""

    ixs: np.ndarray
    iys: np.ndarray
    classes: np.ndarray


def maybe_create_keyframe(
    pose: tuple[float, float, float, float],
    last_keyframe_pose: tuple[float, float, float, float] | None,
    threshold: float,
    *,
    world: WorldModel,
    fov_half_angle: float,
) -> Keyframe | None:
    """New keyframe iff the planar distance since the last one is >= threshold.

    The first call (no previous keyframe) always creates one. Observed cells
    come from the ground-truth footprint under ``pose``.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    last = last_keyframe_pose
    if last is not None and math.hypot(pose[0] - last[0], pose[1] - last[1]) < threshold:
        return None
    truth = world.truth
    ixs, iys = footprint_indices(truth, pose, fov_half_angle)
    return Keyframe(ixs=ixs, iys=iys, classes=truth.classes[iys, ixs])


def full_view_keyframe(grid: SemanticGridMap) -> Keyframe:
    """A keyframe that sees every cell of ``grid``; fused first, it makes
    the map complete."""
    iys, ixs = np.indices((grid.height, grid.width)).reshape(2, -1)
    return Keyframe(ixs=ixs, iys=iys, classes=grid.classes[iys, ixs])


class MapAccumulator:
    """Per-cell fusion state for the aerial map: which cells have been seen,
    and their class (UNKNOWN where none has). ``complete`` holds once every
    cell has been seen, and ``changed`` once a fuse has seen a cell that the
    last snapshot did not show."""

    def __init__(self, width: int, height: int, resolution: float = 1.0,
                 origin_x: float = 0.0, origin_y: float = 0.0) -> None:
        self.width = width
        self.height = height
        self.resolution = resolution
        self.origin_x = origin_x
        self.origin_y = origin_y
        shape = (height, width)
        self.classes = np.full(shape, SemanticClass.UNKNOWN, dtype=np.int8)
        self.observed = np.zeros(shape, dtype=bool)
        self.complete = False
        self.changed = False
        self._next_version = 1

    @classmethod
    def like(cls, grid: SemanticGridMap) -> "MapAccumulator":
        return cls(grid.width, grid.height, grid.resolution, grid.origin_x, grid.origin_y)

    def fuse_keyframe(self, kf: Keyframe) -> None:
        ok = (kf.ixs >= 0) & (kf.ixs < self.width) & (kf.iys >= 0) & (kf.iys < self.height)
        ixs, iys = kf.ixs[ok], kf.iys[ok]
        self.changed |= not self.observed[iys, ixs].all()
        self.observed[iys, ixs] = True
        self.classes[iys, ixs] = kf.classes[ok]
        self.complete = bool(self.observed.all())

    def snapshot(self) -> SemanticGridMap:
        """Immutable snapshot with a strictly increasing version; it shows
        every change so far, so ``changed`` is cleared."""
        snap = SemanticGridMap(
            origin_x=self.origin_x,
            origin_y=self.origin_y,
            resolution=self.resolution,
            width=self.width,
            height=self.height,
            classes=self.classes.copy(),
            observed=self.observed.copy(),
            version=self._next_version,
        )
        self._next_version += 1
        self.changed = False
        return snap.freeze()


# ---------------------------------------------------------------------------
# snapshot wire format (gossip payload)

_HEADER = struct.Struct("<IIIddd")


def encode_snapshot(grid: SemanticGridMap) -> bytes:
    """Compact deterministic binary layout for map snapshots.

    Header (version, width, height, resolution, origin), class layer one
    byte per cell, then the observed bitmask packed eight cells to a byte.
    """
    head = _HEADER.pack(
        grid.version, grid.width, grid.height,
        grid.resolution, grid.origin_x, grid.origin_y,
    )
    classes = grid.classes.astype(np.uint8).tobytes()
    obs_bits = np.packbits(grid.observed.ravel(), bitorder="little").tobytes()
    return head + classes + obs_bits


def decode_snapshot(data: bytes) -> SemanticGridMap:
    version, width, height, resolution, ox, oy = _HEADER.unpack_from(data, 0)
    n = width * height
    off = _HEADER.size
    classes = np.frombuffer(data, dtype=np.uint8, count=n, offset=off).astype(np.int8)
    off += n
    nbits = (n + 7) // 8
    packed = np.frombuffer(data, dtype=np.uint8, count=nbits, offset=off)
    observed = np.unpackbits(packed, count=n, bitorder="little").astype(bool)
    return SemanticGridMap(
        origin_x=ox,
        origin_y=oy,
        resolution=resolution,
        width=width,
        height=height,
        classes=classes.reshape(height, width),
        observed=observed.reshape(height, width),
        version=version,
    ).freeze()
