"""Ground-robot localization: a particle filter matching a local polar
semantic observation against the aerial map.

Each lidar beam that hits something fills one bin of a robot-frame polar
map. For a particle, every filled bin is projected into the aerial map and
scored 0 on class match, 1 on mismatch, and a fixed intermediate cost where
the aerial map is still unknown.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from semteam.geometry import wrap_angle
from semteam.world import SemanticClass, SemanticGridMap

#: match-table layer of free-evidence bins; layers below it are classes
FREE_LAYER = len(SemanticClass)


@dataclass
class ParticleSet:
    """Weighted pose hypotheses. Weights sum to 1 after every update."""

    xs: np.ndarray
    ys: np.ndarray
    yaws: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def copy(self) -> "ParticleSet":
        return ParticleSet(self.xs.copy(), self.ys.copy(), self.yaws.copy(), self.weights.copy())


@dataclass
class OdomDelta:
    """Body-frame odometry increment; noise already applied by the engine."""

    forward: float
    lateral: float
    dyaw: float


@dataclass
class PolarObservation:
    """One scan binned into n_azimuth x n_range robot-frame polar bins.

    A bin is filled either by a beam hit (it keeps the hit's class and the
    robot-frame offset of the hit point, which lies inside the struck cell)
    or by traversable evidence: a beam that reached farther than a bin
    proves the ground there was drivable, the way lidar ground returns
    populate the real polar map. Both kinds of bins are scored by matching.
    """

    local_dx: np.ndarray
    local_dy: np.ndarray
    bin_classes: np.ndarray
    free_dx: np.ndarray
    free_dy: np.ndarray

    def __post_init__(self) -> None:
        # combined projection arrays and, per bin, its layer of the map's
        # match table: the expected class, or FREE_LAYER for free evidence
        self.all_dx = np.concatenate([self.local_dx, self.free_dx])
        self.all_dy = np.concatenate([self.local_dy, self.free_dy])
        self.all_layer = np.concatenate(
            [self.bin_classes, np.full(self.free_dx.size, FREE_LAYER, dtype=np.int64)]
        )

    @property
    def n_filled(self) -> int:
        return int(self.bin_classes.size + self.free_dx.size)

    @classmethod
    def from_scan(
        cls,
        scan: list[tuple[float, SemanticClass]],
        n_azimuth: int = 36,
        n_range: int = 10,
        max_range: float = 20.0,
        free_margin: float = 1.0,
        free_stride: int = 2,
    ) -> "PolarObservation":
        """Bin one ground_scan.

        Hit bins first (bin class is the first hit falling in the bin), then
        free bins at radial bin centers the beam is known to have cleared,
        keeping ``free_margin`` short of each hit so the sample stays out of
        the struck cell. ``free_stride`` thins the free evidence (adjacent
        radial bins on one beam carry largely redundant information).
        """
        n_beams = len(scan)
        az_width = 2.0 * math.pi / n_azimuth
        rng_width = max_range / n_range
        ranges = np.array([r for r, _ in scan], dtype=np.float64)
        classes = np.array([c for _, c in scan], dtype=np.int64)
        offset = 2.0 * math.pi * np.arange(n_beams) / n_beams
        cos, sin = np.cos(offset), np.sin(offset)
        ia = (offset / az_width).astype(np.int64) % n_azimuth
        hit = classes != SemanticClass.UNKNOWN

        # free samples in beam-major, then outward order; radii only grow
        # along a beam, so the samples short of r_stop are a prefix of it
        ks = np.arange(0, n_range, max(1, free_stride))
        r_k = (ks + 0.5) * rng_width
        r_stop = np.where(hit, ranges - free_margin, max_range)
        beam, k = np.nonzero(r_k[None, :] <= r_stop[:, None])

        # bins keyed ia * n_range + ir, hits before free samples: the first
        # claim on a bin fills it
        hits = np.flatnonzero(hit)
        ir = np.minimum((ranges[hits] / rng_width).astype(np.int64), n_range - 1)
        keys = np.concatenate([ia[hits] * n_range + ir, ia[beam] * n_range + ks[k]])
        _, first = np.unique(keys, return_index=True)
        first.sort()
        split = np.searchsorted(first, hits.size)
        free = first[split:] - hits.size
        hits = hits[first[:split]]
        return cls(
            local_dx=ranges[hits] * cos[hits],
            local_dy=ranges[hits] * sin[hits],
            bin_classes=classes[hits],
            free_dx=r_k[k[free]] * cos[beam[free]],
            free_dy=r_k[k[free]] * sin[beam[free]],
        )


@dataclass
class FilterParams:
    unknown_cost: float = 0.4
    temperature: float = 0.2
    ess_fraction: float = 0.5
    #: bin count at which ``temperature`` applies to the normalized cost;
    #: evidence scales with the number of filled bins, so observations that
    #: saw more keep proportionally more weight
    reference_bins: int = 36


def init_filter(
    initial_pose_guess: tuple[float, float, float],
    n_particles: int,
    init_spread,
    rng: np.random.Generator,
) -> ParticleSet:
    """Gaussian cloud around the guess with uniform weights."""
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    sx, sy, syaw = _spread3(init_spread)
    if n_particles > 1 and (sx <= 0 or sy <= 0 or syaw <= 0):
        warnings.warn("non-positive init spread with multiple particles: identical particles")
    x0, y0, yaw0 = initial_pose_guess
    xs = x0 + rng.normal(0.0, max(sx, 0.0), n_particles)
    ys = y0 + rng.normal(0.0, max(sy, 0.0), n_particles)
    yaws = wrap_angle(yaw0 + rng.normal(0.0, max(syaw, 0.0), n_particles))
    weights = np.full(n_particles, 1.0 / n_particles)
    return ParticleSet(xs, ys, np.atleast_1d(yaws), weights)


def _spread3(spread):
    if np.isscalar(spread):
        return float(spread), float(spread), float(spread)
    sx, sy, syaw = spread
    return float(sx), float(sy), float(syaw)


def predict(
    particles: ParticleSet,
    delta: OdomDelta,
    process_noise,
    rng: np.random.Generator,
) -> ParticleSet:
    """Advance every particle by the delta in its own frame plus noise."""
    n = particles.n
    sx, sy, syaw = _spread3(process_noise)
    f = delta.forward + (rng.normal(0.0, sx, n) if sx > 0 else 0.0)
    l = delta.lateral + (rng.normal(0.0, sy, n) if sy > 0 else 0.0)
    dyaw = delta.dyaw + (rng.normal(0.0, syaw, n) if syaw > 0 else 0.0)
    c, s = np.cos(particles.yaws), np.sin(particles.yaws)
    xs = particles.xs + c * f - s * l
    ys = particles.ys + s * f + c * l
    yaws = wrap_angle(particles.yaws + dyaw)
    return ParticleSet(xs, ys, yaws, particles.weights.copy())


def match_costs(
    particles: ParticleSet,
    obs: PolarObservation,
    grid: SemanticGridMap,
    unknown_cost: float,
) -> np.ndarray:
    """Normalized semantic mismatch between the observation and the map,
    one cost per particle."""
    if obs.n_filled == 0:
        return np.zeros(particles.n)
    # bin-by-particle layout: every numpy loop runs along the particles
    c, s = np.cos(particles.yaws), np.sin(particles.yaws)
    dx, dy = obs.all_dx[:, None], obs.all_dy[:, None]
    inv_res = 1.0 / grid.resolution
    # u = (x - origin_x) * inv_res + (c * dx - s * dy) * inv_res, and v the
    # same in y, evaluated in place: three bin-by-particle buffers in all
    u = c * dx
    v = s * dy
    u -= v
    u *= inv_res
    u += (particles.xs - grid.origin_x) * inv_res
    np.multiply(s, dx, out=v)
    scratch = c * dy
    v += scratch
    v *= inv_res
    v += (particles.ys - grid.origin_y) * inv_res
    np.floor(u, out=u)
    np.clip(u, -1, grid.width, out=u)
    np.floor(v, out=v)
    np.clip(v, -1, grid.height, out=v)
    # flat index into the match table: cells off the map land on its border
    stride = grid.width + 2
    v *= stride
    v += u
    v += (obs.all_layer * ((grid.height + 2) * stride) + stride + 1)[:, None]
    flat = scratch.view(np.intp)
    np.copyto(flat, v, casting="unsafe")
    codes = _match_table(grid).ravel().take(flat)
    # particle-by-bin costs, in u's buffer, so each particle's sum runs
    # over one row
    per_bin = u.reshape(particles.n, obs.n_filled)
    np.array([0.0, 1.0, unknown_cost]).take(codes.T, out=per_bin, mode="clip")
    return per_bin.sum(axis=1) / obs.n_filled


_DRIVABLE_BITS = (1 << int(SemanticClass.ROAD)) | (1 << int(SemanticClass.DIRT_GRAVEL))


def _match_table(grid: SemanticGridMap) -> np.ndarray:
    """Per-map cost codes, shape ``(FREE_LAYER + 1, H + 2, W + 2)`` int8.

    Layer ``c`` scores a bin expecting class ``c``, layer ``FREE_LAYER`` a
    free-evidence bin. A bin matches (code 0) when its class, or for free
    evidence a drivable class, occurs within one cell of the projected
    point: polar binning is coarse, so exact-cell matching would be sharper
    than the observation itself. Otherwise it mismatches (code 1). UNKNOWN
    cells and the one-cell border around the map give code 2.
    """
    cached = getattr(grid, "_match_table", None)
    if cached is not None:
        return cached
    h, w = grid.height, grid.width
    # bit c of near: class c occurs within one cell; no layer reads the
    # UNKNOWN bit, so UNKNOWN cells give no evidence to their neighbors
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = np.left_shift(1, grid.classes.astype(np.uint8), dtype=np.uint8)
    near = np.zeros((h, w), dtype=np.uint8)
    for dy_ in (0, 1, 2):
        for dx_ in (0, 1, 2):
            near |= padded[dy_ : dy_ + h, dx_ : dx_ + w]
    known = grid.classes != SemanticClass.UNKNOWN
    table = np.full((FREE_LAYER + 1, h + 2, w + 2), 2, dtype=np.int8)
    for layer, mask in enumerate([1 << int(c) for c in SemanticClass] + [_DRIVABLE_BITS]):
        table[layer, 1:-1, 1:-1] = np.where(known, (near & mask) == 0, 2)
    table.setflags(write=False)
    object.__setattr__(grid, "_match_table", table)
    return table


@dataclass
class UpdateInfo:
    ess: float
    resampled: bool
    diverged: bool


def update_and_resample(
    particles: ParticleSet,
    obs: PolarObservation,
    grid: SemanticGridMap,
    params: FilterParams,
    rng: np.random.Generator,
) -> tuple[ParticleSet, tuple[float, float, float], UpdateInfo]:
    """Likelihood weighting, ESS-triggered systematic resampling, estimate.

    The estimate is the weighted mean of (x, y) and the circular mean of
    yaw, taken before resampling.
    """
    costs = match_costs(particles, obs, grid, params.unknown_cost)
    evidence = max(obs.n_filled, 1) / params.reference_bins
    logw = np.log(np.maximum(particles.weights, 1e-300)) - costs * evidence / params.temperature
    logw -= logw.max()
    w = np.exp(logw)
    total = w.sum()
    diverged = not np.isfinite(total) or total <= 0.0
    if diverged:
        w = np.full(particles.n, 1.0 / particles.n)
    else:
        w = w / total

    estimate = _weighted_mean(particles.xs, particles.ys, particles.yaws, w)

    ess = float(1.0 / (w**2).sum())
    resampled = ess < params.ess_fraction * particles.n
    if resampled:
        positions = (rng.random() + np.arange(particles.n)) / particles.n
        cumw = np.cumsum(w)
        cumw[-1] = 1.0
        idx = np.searchsorted(cumw, positions)
        out = ParticleSet(
            xs=particles.xs[idx].copy(),
            ys=particles.ys[idx].copy(),
            yaws=particles.yaws[idx].copy(),
            weights=np.full(particles.n, 1.0 / particles.n),
        )
    else:
        out = ParticleSet(particles.xs.copy(), particles.ys.copy(), particles.yaws.copy(), w)
    return out, estimate, UpdateInfo(ess=ess, resampled=resampled, diverged=diverged)


def weighted_mean_pose(particles: ParticleSet) -> tuple[float, float, float]:
    return _weighted_mean(particles.xs, particles.ys, particles.yaws, particles.weights)


def _weighted_mean(xs, ys, yaws, w) -> tuple[float, float, float]:
    """Weighted mean of (x, y) and circular mean of yaw."""
    return (
        float((w * xs).sum()),
        float((w * ys).sum()),
        float(math.atan2((w * np.sin(yaws)).sum(), (w * np.cos(yaws)).sum())),
    )
