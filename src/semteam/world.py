"""Ground-truth world model: semantic/elevation rasters and the sensor
footprint queries every other subsystem observes the world through.

Conventions used throughout the package:

* rasters are numpy arrays of shape ``(height, width)`` indexed ``[iy, ix]``
* a cell index is an ``(ix, iy)`` pair; column ``ix`` spans world x
* cell ``(ix, iy)`` covers ``[origin + i*res, origin + (i+1)*res)`` on each
  axis, so its center is ``origin + (i + 0.5) * res``
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np


class SemanticClass(IntEnum):
    """Per-cell semantic classes. UNKNOWN never appears in ground truth."""

    ROAD = 0
    DIRT_GRAVEL = 1
    GRASS = 2
    VEGETATION = 3
    BUILDING = 4
    VEHICLE = 5
    UNKNOWN = 6


#: single-letter class codes used by the world file format
LETTER_TO_CLASS = {
    "R": SemanticClass.ROAD,
    "D": SemanticClass.DIRT_GRAVEL,
    "G": SemanticClass.GRASS,
    "V": SemanticClass.VEGETATION,
    "B": SemanticClass.BUILDING,
    "C": SemanticClass.VEHICLE,
}
CLASS_TO_LETTER = {v: k for k, v in LETTER_TO_CLASS.items()}

#: fixed render colors, one RGB triple per class
PALETTE = {
    SemanticClass.ROAD: (120, 120, 120),
    SemanticClass.DIRT_GRAVEL: (170, 130, 80),
    SemanticClass.GRASS: (120, 200, 80),
    SemanticClass.VEGETATION: (30, 110, 40),
    SemanticClass.BUILDING: (70, 70, 160),
    SemanticClass.VEHICLE: (255, 40, 40),
    SemanticClass.UNKNOWN: (0, 0, 0),
}

TRAVERSABLE_CLASSES = frozenset((SemanticClass.ROAD, SemanticClass.DIRT_GRAVEL))


def traversable(cls: SemanticClass) -> bool:
    """A ground robot can drive on road and dirt/gravel, nothing else."""
    return cls in TRAVERSABLE_CLASSES


def traversable_mask(classes: np.ndarray) -> np.ndarray:
    """Boolean mask of traversable cells for a whole class layer."""
    return (classes == SemanticClass.ROAD) | (classes == SemanticClass.DIRT_GRAVEL)


class WorldFormatError(ValueError):
    """Raised when a world file does not conform to the text format."""


@dataclass
class SemanticGridMap:
    """Versioned 2.5-D raster: class, elevation and observed flag per cell.

    A map object handed out as a snapshot is frozen (numpy write flags
    cleared); mutation happens only inside the owning accumulator, which
    bumps ``version`` for every batch.
    """

    origin_x: float
    origin_y: float
    resolution: float
    width: int
    height: int
    classes: np.ndarray
    elevation: np.ndarray
    observed: np.ndarray
    version: int

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError(f"resolution must be > 0, got {self.resolution}")
        shape = (self.height, self.width)
        for name in ("classes", "elevation", "observed"):
            layer = getattr(self, name)
            if layer.shape != shape:
                raise ValueError(f"{name} layer has shape {layer.shape}, expected {shape}")

    @classmethod
    def unknown(
        cls,
        width: int,
        height: int,
        resolution: float = 1.0,
        origin_x: float = 0.0,
        origin_y: float = 0.0,
        version: int = 1,
    ) -> "SemanticGridMap":
        """All-unknown map of the given geometry."""
        return cls(
            origin_x=origin_x,
            origin_y=origin_y,
            resolution=resolution,
            width=width,
            height=height,
            classes=np.full((height, width), SemanticClass.UNKNOWN, dtype=np.int8),
            elevation=np.zeros((height, width)),
            observed=np.zeros((height, width), dtype=bool),
            version=version,
        )

    def freeze(self) -> "SemanticGridMap":
        for layer in (self.classes, self.elevation, self.observed):
            layer.setflags(write=False)
        return self

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        ix = int(math.floor((x - self.origin_x) / self.resolution))
        iy = int(math.floor((y - self.origin_y) / self.resolution))
        return ix, iy

    def center_of(self, ix: int, iy: int) -> tuple[float, float]:
        return (
            self.origin_x + (ix + 0.5) * self.resolution,
            self.origin_y + (iy + 0.5) * self.resolution,
        )

    def in_bounds(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.width and 0 <= iy < self.height

    def class_at(self, ix: int, iy: int) -> SemanticClass:
        return SemanticClass(int(self.classes[iy, ix]))

    def contains_point(self, x: float, y: float) -> bool:
        ix, iy = self.cell_of(x, y)
        return self.in_bounds(ix, iy)


@dataclass
class WorldModel:
    """Fully observed ground truth plus the list of vehicle target cells."""

    truth: SemanticGridMap
    target_cells: list[tuple[int, int]]

    @classmethod
    def from_map(cls, truth: SemanticGridMap) -> "WorldModel":
        iys, ixs = np.nonzero(truth.classes == SemanticClass.VEHICLE)
        targets = [(int(ix), int(iy)) for ix, iy in zip(ixs, iys)]
        targets.sort(key=lambda c: (c[1], c[0]))
        return cls(truth=truth.freeze(), target_cells=targets)


# ---------------------------------------------------------------------------
# world file format


def load_world(path: str | Path) -> WorldModel:
    """Load a world from the text format (see ``save_world``).

    Raises WorldFormatError naming the offending line/cell on malformed
    header, dimension mismatch or unknown class code.
    """
    text = Path(path).read_text()
    return parse_world(text)


def parse_world(text: str) -> WorldModel:
    lines = text.splitlines()
    if not lines:
        raise WorldFormatError("empty world file")
    header = lines[0].split()
    if len(header) != 5:
        raise WorldFormatError(
            f"line 1: malformed header {lines[0]!r}, expected "
            "'width height resolution origin_x origin_y'"
        )
    try:
        width, height = int(header[0]), int(header[1])
        resolution, origin_x, origin_y = (float(t) for t in header[2:])
    except ValueError as exc:
        raise WorldFormatError(f"line 1: malformed header: {exc}") from exc
    if width <= 0 or height <= 0 or resolution <= 0:
        raise WorldFormatError("line 1: width, height and resolution must be positive")

    if len(lines) < 1 + height:
        raise WorldFormatError(
            f"dimension mismatch: expected {height} class rows, file has {len(lines) - 1}"
        )
    classes = np.empty((height, width), dtype=np.int8)
    for iy in range(height):
        row = lines[1 + iy]
        if len(row) != width:
            raise WorldFormatError(
                f"line {2 + iy}: dimension mismatch, row has {len(row)} cells, expected {width}"
            )
        for ix, letter in enumerate(row):
            try:
                classes[iy, ix] = LETTER_TO_CLASS[letter]
            except KeyError:
                raise WorldFormatError(
                    f"line {2 + iy}, cell ({ix}, {iy}): unknown class code {letter!r}"
                ) from None

    rest = [ln for ln in lines[1 + height :]]
    rest_nonempty = [ln for ln in rest if ln.strip()]
    elevation = np.zeros((height, width))
    if rest_nonempty:
        if len(rest_nonempty) != height:
            raise WorldFormatError(
                f"dimension mismatch: elevation block has {len(rest_nonempty)} rows, "
                f"expected {height}"
            )
        for iy, row in enumerate(rest_nonempty):
            values = row.split()
            if len(values) != width:
                raise WorldFormatError(
                    f"elevation row {iy}: has {len(values)} values, expected {width}"
                )
            try:
                elevation[iy, :] = [float(v) for v in values]
            except ValueError as exc:
                raise WorldFormatError(f"elevation row {iy}: {exc}") from exc

    truth = SemanticGridMap(
        origin_x=origin_x,
        origin_y=origin_y,
        resolution=resolution,
        width=width,
        height=height,
        classes=classes,
        elevation=elevation,
        observed=np.ones((height, width), dtype=bool),
        version=1,
    )
    return WorldModel.from_map(truth)


def world_to_text(world: WorldModel) -> str:
    """Canonical text form: save(load(w)) is byte-identical to save(w)."""
    m = world.truth
    out = [f"{m.width} {m.height} {m.resolution!r} {m.origin_x!r} {m.origin_y!r}"]
    for iy in range(m.height):
        out.append("".join(CLASS_TO_LETTER[SemanticClass(int(c))] for c in m.classes[iy]))
    if np.any(m.elevation != 0.0):
        for iy in range(m.height):
            out.append(" ".join(repr(float(v)) for v in m.elevation[iy]))
    return "\n".join(out) + "\n"


def save_world(world: WorldModel, path: str | Path) -> None:
    Path(path).write_text(world_to_text(world))


# ---------------------------------------------------------------------------
# sensor queries


def footprint_indices(
    grid: SemanticGridMap,
    pose: tuple[float, float, float, float],
    fov_half_angle: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Cells whose centers fall inside the camera's square ground footprint,
    as ``(ixs, iys)`` index arrays.

    The square has side ``2 * altitude * tan(fov_half_angle)``, is centered
    under the pose and axis-aligned with its yaw.
    """
    x, y, altitude, yaw = pose
    if altitude <= 0:
        raise ValueError(f"altitude must be > 0, got {altitude}")
    if not 0 < fov_half_angle < math.pi / 2:
        raise ValueError(f"fov_half_angle must be in (0, pi/2), got {fov_half_angle}")
    half = altitude * math.tan(fov_half_angle)
    res = grid.resolution
    reach = half * math.sqrt(2.0)
    ix_lo = max(0, int(math.floor((x - reach - grid.origin_x) / res)))
    ix_hi = min(grid.width - 1, int(math.ceil((x + reach - grid.origin_x) / res)))
    iy_lo = max(0, int(math.floor((y - reach - grid.origin_y) / res)))
    iy_hi = min(grid.height - 1, int(math.ceil((y + reach - grid.origin_y) / res)))
    if ix_lo > ix_hi or iy_lo > iy_hi:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ix = np.arange(ix_lo, ix_hi + 1)
    iy = np.arange(iy_lo, iy_hi + 1)
    cx = grid.origin_x + (ix + 0.5) * res
    cy = grid.origin_y + (iy + 0.5) * res
    dx = cx[None, :] - x
    dy = cy[:, None] - y
    c, s = math.cos(yaw), math.sin(yaw)
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    inside = (np.abs(lx) <= half) & (np.abs(ly) <= half)
    ry, rx = np.nonzero(inside)
    return ix[rx], iy[ry]


def ground_scan(
    grid: SemanticGridMap,
    pose: tuple[float, float, float],
    max_range: float,
    n_beams: int,
) -> list[tuple[float, SemanticClass]]:
    """Horizontal lidar-like scan against the ground-truth class layer.

    Beam ``i`` leaves at azimuth ``yaw + 2*pi*i/n_beams``; its range is the
    distance to the first non-traversable cell along the beam (exact grid
    traversal; reported at the midpoint of the beam's chord through that
    cell, so the point at the reported range lies inside the struck cell),
    clamped to ``max_range`` with class UNKNOWN when nothing is hit before
    the range limit or the map edge.
    """
    x, y, yaw = pose
    ix0, iy0 = grid.cell_of(x, y)
    if not grid.in_bounds(ix0, iy0):
        raise ValueError(f"pose ({x}, {y}) outside map bounds")
    if n_beams < 1:
        raise ValueError("n_beams must be >= 1")

    start_cls = grid.class_at(ix0, iy0)
    if not traversable(start_cls):
        return [(0.0, start_cls)] * n_beams

    # padded cell-state raster: 0 traversable, 1 blocking, 2 outside the map
    state_pad = getattr(grid, "_scan_state_pad", None)
    if state_pad is None:
        state_pad = np.full((grid.height + 2, grid.width + 2), 2, dtype=np.uint8)
        state_pad[1:-1, 1:-1] = np.where(traversable_mask(grid.classes), 0, 1)
        object.__setattr__(grid, "_scan_state_pad", state_pad)

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
            # chord midpoint inside the struck cell
            t_exit = np.minimum(tmax_x, tmax_y)
            ranges[blocked] = 0.5 * (t_enter[blocked] + t_exit[blocked])
            hit_cls[blocked] = grid.classes[iy[blocked], ix[blocked]]
            active = active & ~blocked

    return [(float(r), SemanticClass(int(c))) for r, c in zip(ranges, hit_cls)]


# ---------------------------------------------------------------------------
# rendering


def render_ppm(grid: SemanticGridMap, path: str | Path) -> None:
    """Emit the class layer as a binary portable pixmap (P6), one fixed RGB
    per class, top image row = highest world y."""
    lut = np.zeros((len(SemanticClass), 3), dtype=np.uint8)
    for cls, rgb in PALETTE.items():
        lut[int(cls)] = rgb
    rgb = lut[grid.classes[::-1, :].astype(np.int64)]
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + rgb.tobytes())
