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
        # combined projection arrays; expected class -1 marks free evidence
        self.all_dx = np.concatenate([self.local_dx, self.free_dx])
        self.all_dy = np.concatenate([self.local_dy, self.free_dy])
        self.all_expected = np.concatenate(
            [self.bin_classes, np.full(self.free_dx.size, -1, dtype=np.int64)]
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
        return cls(
            local_dx=np.asarray(dxs),
            local_dy=np.asarray(dys),
            bin_classes=np.asarray(classes, dtype=np.int64),
            free_dx=np.asarray(fxs),
            free_dy=np.asarray(fys),
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
    near = _class_neighborhoods(grid)[iy, ix]

    expected = obs.all_expected[None, :]
    is_free_bin = expected < 0
    # a bin matches when its class occurs within one cell of the projected
    # point; polar binning is coarse, exact-cell matching would be sharper
    # than the observation itself
    drivable_near = (near & _DRIVABLE_BITS) != 0
    cls_near = (near & (1 << np.where(is_free_bin, 0, expected))) != 0
    mismatch = np.where(is_free_bin, ~drivable_near, ~cls_near).astype(np.float64)
    per_bin = np.where(~inside | (cls == SemanticClass.UNKNOWN), unknown_cost, mismatch)
    return per_bin.sum(axis=1) / obs.n_filled


_DRIVABLE_BITS = (1 << int(SemanticClass.ROAD)) | (1 << int(SemanticClass.DIRT_GRAVEL))


def _class_neighborhoods(grid: SemanticGridMap) -> np.ndarray:
    """Per-cell bitmask of classes present in the 3x3 neighborhood."""
    cached = getattr(grid, "_class_near", None)
    if cached is not None:
        return cached
    bits = (1 << grid.classes.astype(np.int64)).astype(np.int64)
    # UNKNOWN cells contribute no class evidence to their neighbors
    bits[grid.classes == SemanticClass.UNKNOWN] = 0
    padded = np.zeros((grid.height + 2, grid.width + 2), dtype=np.int64)
    padded[1:-1, 1:-1] = bits
    near = np.zeros_like(bits)
    for dy_ in (0, 1, 2):
        for dx_ in (0, 1, 2):
            near |= padded[dy_ : dy_ + grid.height, dx_ : dx_ + grid.width]
    object.__setattr__(grid, "_class_near", near)
    return near


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
