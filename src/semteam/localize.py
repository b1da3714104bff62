"""Ground-robot localization: a particle filter matching a local polar
semantic observation against the aerial map.

Each lidar beam that hits something fills one bin of a robot-frame polar
map. For a particle, every filled bin is projected into the aerial map and
scored 0 on class match, 1 on mismatch, and a fixed intermediate cost where
the aerial map is still unknown.
"""

from __future__ import annotations

import functools
import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from semteam.geometry import wrap_angle
from semteam.world import TRAVERSABLE_CLASSES, Scan, SemanticClass, SemanticGridMap, beam_offsets

#: match-table layer of free-evidence bins; layers below it are classes
FREE_LAYER = len(SemanticClass)

#: bin count at which ``temperature`` applies to the normalized cost;
#: evidence scales with the number of filled bins, so observations that saw
#: more keep proportionally more weight
REFERENCE_BINS = 36

#: cost of a bin that projects onto an unknown cell or off the map
UNKNOWN_COST = 0.4

#: resample once the effective sample size falls below this share of the set
ESS_FRACTION = 0.5


@dataclass
class ParticleSet:
    """Weighted pose hypotheses. Weights sum to 1 after every update.

    A set is never changed in place, so sets may share arrays. ``at_rest``
    marks a set that a noise-free zero step of ``predict`` returned bit for
    bit unchanged. ``cos`` and ``sin`` of the yaws are computed on first
    use and kept. A new set, ``dataclasses.replace`` included, starts
    without the mark and without the trig.
    """

    xs: np.ndarray
    ys: np.ndarray
    yaws: np.ndarray
    weights: np.ndarray
    at_rest: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return int(self.xs.size)

    @functools.cached_property
    def cos(self) -> np.ndarray:
        return np.cos(self.yaws)

    @functools.cached_property
    def sin(self) -> np.ndarray:
        return np.sin(self.yaws)


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

    One entry per filled bin, hit bins first: its robot-frame offset
    ``(dx, dy)`` and its ``layer`` of the map's match table, the hit class
    or ``FREE_LAYER`` for free evidence.
    """

    dx: np.ndarray
    dy: np.ndarray
    layer: np.ndarray

    @property
    def n_filled(self) -> int:
        return int(self.layer.size)

    @classmethod
    def from_scan(
        cls,
        scan: Scan,
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
        A read-only scan keeps its observation for the next call with the
        same parameters; on a miss the scan is binned by ``from_scans``.
        """
        return cls.from_scans([scan], n_azimuth, n_range, max_range, free_margin, free_stride)[0]

    @classmethod
    def from_scans(
        cls,
        scans: list[Scan],
        n_azimuth: int = 36,
        n_range: int = 10,
        max_range: float = 20.0,
        free_margin: float = 1.0,
        free_stride: int = 2,
    ) -> list["PolarObservation"]:
        """``from_scan`` of each scan, in order. The scans that keep no
        observation for these parameters are binned together in one array
        pass, and each read-only one keeps its observation."""
        key = (n_azimuth, n_range, max_range, free_margin, free_stride)
        todo = list({id(scan): scan for scan in scans if key not in scan.polar}.values())
        binned = {}
        if todo:
            for scan, obs in zip(todo, cls._bin(todo, n_azimuth, n_range, max_range, free_margin, free_stride)):
                binned[id(scan)] = obs
                if not (scan.ranges.flags.writeable or scan.classes.flags.writeable):
                    scan.polar[key] = obs
        return [binned[id(scan)] if id(scan) in binned else scan.polar[key] for scan in scans]

    @classmethod
    def _bin(cls, scans, n_azimuth, n_range, max_range, free_margin, free_stride) -> list["PolarObservation"]:
        """Every beam of every scan in one pass, keyed by its scan too."""
        rng_width = max_range / n_range
        layouts = [_beam_layout(scan.ranges.size, n_azimuth, n_range, max_range, free_stride) for scan in scans]
        ranges = np.concatenate([scan.ranges for scan in scans])
        classes = np.concatenate([scan.classes for scan in scans])
        cos, sin, ia = (np.concatenate([layout[i] for layout in layouts]) for i in range(3))
        ks, r_k = layouts[0][3:]
        owner = np.repeat(np.arange(len(scans)), [scan.ranges.size for scan in scans])
        hit = classes != int(SemanticClass.UNKNOWN)

        # free samples in beam-major, then outward order; radii only grow
        # along a beam, so the samples short of r_stop are a prefix of it
        r_stop = np.where(hit, ranges - free_margin, max_range)
        beam, k = np.nonzero(r_k[None, :] <= r_stop[:, None])

        # bins keyed (scan * n_azimuth + ia) * n_range + ir, hits before free
        # samples: the first claim on a bin fills it, and a stable unique
        # finds each scan's first claims among its own keys
        hits = np.flatnonzero(hit)
        ir = np.minimum((ranges[hits] / rng_width).astype(np.int64), n_range - 1)
        ia = ia + owner * n_azimuth
        keys = np.concatenate([ia[hits] * n_range + ir, ia[beam] * n_range + ks[k]])
        _, first = np.unique(keys, return_index=True)
        first.sort()
        split = np.searchsorted(first, hits.size)
        free = first[split:] - hits.size
        hits = hits[first[:split]]
        beams = np.concatenate([hits, beam[free]])
        radii = np.concatenate([ranges[hits], r_k[k[free]]])
        layer = np.concatenate([classes[hits], np.full(free.size, FREE_LAYER, dtype=np.int64)])
        # each scan's bins together, its hit bins first
        order = np.argsort(owner[beams], kind="stable")
        beams, radii, layer = beams[order], radii[order], layer[order]
        dx, dy = radii * cos[beams], radii * sin[beams]
        edges = np.searchsorted(owner[beams], np.arange(len(scans) + 1)).tolist()
        return [cls(dx=dx[a:b], dy=dy[a:b], layer=layer[a:b]) for a, b in zip(edges, edges[1:])]


@functools.lru_cache(maxsize=8)
def _beam_layout(n_beams: int, n_azimuth: int, n_range: int, max_range: float, free_stride: int):
    """Read-only arrays of one scan layout: each beam's cos and sin and its
    azimuth bin, then the radial bin of each free sample and its radius."""
    offset = beam_offsets(n_beams)
    ia = (offset / (2.0 * math.pi / n_azimuth)).astype(np.int64) % n_azimuth
    ks = np.arange(0, n_range, max(1, free_stride))
    layout = (np.cos(offset), np.sin(offset), ia, ks, (ks + 0.5) * (max_range / n_range))
    for a in layout:
        a.setflags(write=False)
    return layout


def init_filter(
    initial_pose_guess: tuple[float, float, float],
    n_particles: int,
    init_spread,
    rng: np.random.Generator,
) -> ParticleSet:
    """Gaussian cloud around the guess with uniform weights."""
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    sx, sy, syaw = init_spread
    if n_particles > 1 and (sx <= 0 or sy <= 0 or syaw <= 0):
        warnings.warn("non-positive init spread with multiple particles: identical particles")
    x0, y0, yaw0 = initial_pose_guess
    xs = x0 + rng.normal(0.0, max(sx, 0.0), n_particles)
    ys = y0 + rng.normal(0.0, max(sy, 0.0), n_particles)
    yaws = wrap_angle(yaw0 + rng.normal(0.0, max(syaw, 0.0), n_particles))
    weights = np.full(n_particles, 1.0 / n_particles)
    return ParticleSet(xs, ys, yaws, weights)


def predict(
    particles: ParticleSet,
    delta: OdomDelta,
    process_noise,
    rng: np.random.Generator,
) -> ParticleSet:
    """Advance every particle by the delta in its own frame plus noise.

    A noise-free zero step draws nothing from ``rng``, and its steps are
    all +0.0 whatever the signs of the delta's zeros, so its result depends
    on the set alone. It is not always the identity (``wrap_angle`` can
    round a yaw), but once it has returned a set unchanged, that set is
    ``at_rest`` and the step returns it as it is.
    """
    n = particles.n
    sx, sy, syaw = process_noise
    still = not (sx > 0 or sy > 0 or syaw > 0 or delta.forward or delta.lateral or delta.dyaw)
    if still and particles.at_rest:
        return particles
    f = delta.forward + (rng.normal(0.0, sx, n) if sx > 0 else 0.0)
    l = delta.lateral + (rng.normal(0.0, sy, n) if sy > 0 else 0.0)
    dyaw = delta.dyaw + (rng.normal(0.0, syaw, n) if syaw > 0 else 0.0)
    c, s = particles.cos, particles.sin
    xs = particles.xs + c * f - s * l
    ys = particles.ys + s * f + c * l
    yaws = wrap_angle(particles.yaws + dyaw)
    out = ParticleSet(xs, ys, yaws, particles.weights)
    out.at_rest = still and all(
        a.tobytes() == b.tobytes()
        for a, b in ((xs, particles.xs), (ys, particles.ys), (yaws, particles.yaws))
    )
    return out


def match_costs(
    particles: ParticleSet,
    obs: PolarObservation,
    grid: SemanticGridMap,
    unknown_cost: float,
    table: np.ndarray,
) -> np.ndarray:
    """Normalized semantic mismatch between the observation and the map,
    one cost per particle. ``table`` is the map's ``match_table``.

    The particles-by-bins temporaries, 25 bytes per (particle, bin) pair,
    live in a per-thread workspace kept across calls. Fresh arrays there
    would be about 1.2 MiB per call for 500 particles and the 102 filled
    bins of a median standard-world scan: above the allocator's threshold
    for mapping memory straight from the kernel, so every call would fault
    in new pages.
    """
    if obs.n_filled == 0:
        return np.zeros(particles.n)
    n, bins = particles.n, obs.n_filled
    floats, codes = _workspace(n * bins)
    u, v, scratch = (a[: n * bins].reshape(n, bins) for a in floats)
    codes = codes[: n * bins].reshape(n, bins)
    # particle-by-bin layout: each particle's bins are one row, so the sum
    # at the end runs along rows with no transpose
    c, s = particles.cos, particles.sin
    dx, dy = obs.dx, obs.dy
    inv_res = 1.0 / grid.resolution
    xs = particles.xs - grid.origin_x
    ys = particles.ys - grid.origin_y
    # u = (x - origin_x) * inv_res + (c * dx - s * dy) * inv_res, and v the
    # same in y, one contraction each. For two or more bins, einsum adds the
    # k terms of each output in order, unfused, onto zero (a test in
    # tests/test_kernel_reference.py probes this): ((0 + c * dx) + (-s) * dy)
    # is c * dx - s * dy but for the sign of a zero, which the floor and clip
    # below map to the same index. For one bin it sums over k in another
    # order, which is exact for two terms only
    # the operands are C-contiguous bin rows (k, bins) and particle matrices
    # (n, k), written into fresh arrays: np.stack builds the same arrays at
    # about three times the cost
    fold = inv_res == 1.0 and bins > 1
    k = 3 if fold else 2
    rows = np.empty((k, bins))
    rows[0], rows[1] = dx, dy
    mat = np.empty((n, k))
    mat[:, 0], mat[:, 1] = c, -s
    if fold:
        # the shift multiplies a row of ones: one contraction per coordinate
        rows[2] = 1.0
        mat[:, 2] = xs
        np.einsum("ik,kj->ij", mat, rows, out=u)
        mat[:, 0], mat[:, 1], mat[:, 2] = s, c, ys
        np.einsum("ik,kj->ij", mat, rows, out=v)
    else:
        np.einsum("ik,kj->ij", mat, rows, out=u)
        u *= inv_res
        u += (xs * inv_res)[:, None]
        mat[:, 0], mat[:, 1] = s, c
        np.einsum("ik,kj->ij", mat, rows, out=v)
        v *= inv_res
        v += (ys * inv_res)[:, None]
    np.floor(u, out=u)
    np.floor(v, out=v)
    # |c * dx - s * dy| <= |dx| + |dy|: clip only if some particle's reach,
    # with a cell of margin for rounding, can leave the map and its border
    reach = (np.abs(dx) + np.abs(dy)).max() * inv_res + 1.0
    if not (
        xs.min() * inv_res - reach >= 0.0
        and xs.max() * inv_res + reach <= grid.width
        and ys.min() * inv_res - reach >= 0.0
        and ys.max() * inv_res + reach <= grid.height
    ):
        # cells off the map land on its border
        np.clip(u, -1, grid.width, out=u)
        np.clip(v, -1, grid.height, out=v)
    # flat index into the match table
    stride = grid.width + 2
    v *= stride
    v += u
    v += (obs.layer * ((grid.height + 2) * stride) + stride + 1).astype(np.float64)
    flat = scratch.view(np.intp)
    np.copyto(flat, v, casting="unsafe")
    # every index is in range; take buffers its output in the default mode
    table.ravel().take(flat, out=codes, mode="clip")
    # the codes go to intp first, which take would otherwise copy them to
    # on every call; the costs go in u's buffer
    np.copyto(flat, codes)
    np.array([0.0, 1.0, unknown_cost]).take(flat, out=u, mode="clip")
    return u.sum(axis=1) / bins


_scratch = threading.local()


def _workspace(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Three float64 rows and one int8 row of at least ``size`` elements,
    reused by every ``match_costs`` call of this thread. It grows to half
    again the size asked for, so a slowly growing bin count regrows it a few
    times, not on every new maximum."""
    if getattr(_scratch, "size", 0) < size:
        size += size // 2
        _scratch.floats = np.empty((3, size))
        _scratch.codes = np.empty(size, dtype=np.int8)
        _scratch.size = size
    return _scratch.floats, _scratch.codes


_DRIVABLE_BITS = sum(1 << int(c) for c in TRAVERSABLE_CLASSES)


def match_table(grid: SemanticGridMap) -> np.ndarray:
    """Per-map cost codes, shape ``(FREE_LAYER + 1, H + 2, W + 2)`` int8.

    Layer ``c`` scores a bin expecting class ``c``, layer ``FREE_LAYER`` a
    free-evidence bin. A bin matches (code 0) when its class, or for free
    evidence a drivable class, occurs within one cell of the projected
    point: polar binning is coarse, so exact-cell matching would be sharper
    than the observation itself. Otherwise it mismatches (code 1). UNKNOWN
    cells and the one-cell border around the map give code 2.
    """
    h, w = grid.height, grid.width
    # bit c of near: class c occurs within one cell; no layer reads the
    # UNKNOWN bit, so UNKNOWN cells give no evidence to their neighbors
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = np.left_shift(1, grid.classes.astype(np.uint8), dtype=np.uint8)
    near = np.zeros((h, w), dtype=np.uint8)
    for dy_ in (0, 1, 2):
        for dx_ in (0, 1, 2):
            near |= padded[dy_ : dy_ + h, dx_ : dx_ + w]
    known = grid.classes != int(SemanticClass.UNKNOWN)
    table = np.full((FREE_LAYER + 1, h + 2, w + 2), 2, dtype=np.int8)
    for layer, mask in enumerate([1 << int(c) for c in SemanticClass] + [_DRIVABLE_BITS]):
        table[layer, 1:-1, 1:-1] = np.where(known, (near & mask) == 0, 2)
    table.setflags(write=False)
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
    temperature: float,
    rng: np.random.Generator,
    table: np.ndarray,
) -> tuple[ParticleSet, tuple[float, float, float], UpdateInfo]:
    """Likelihood weighting, ESS-triggered systematic resampling, estimate.

    The estimate is the weighted mean of (x, y) and the circular mean of
    yaw, taken before resampling. ``table`` is the map's ``match_table``.
    """
    costs = match_costs(particles, obs, grid, UNKNOWN_COST, table)
    evidence = max(obs.n_filled, 1) / REFERENCE_BINS
    logw = np.log(np.maximum(particles.weights, 1e-300)) - costs * evidence / temperature
    logw -= logw.max()
    w = np.exp(logw)
    total = w.sum()
    diverged = not np.isfinite(total) or total <= 0.0
    if diverged:
        w = np.full(particles.n, 1.0 / particles.n)
    else:
        w = w / total

    # the weighted set shares the poses and their trig, and is the result
    # when the set is not resampled
    out = ParticleSet(particles.xs, particles.ys, particles.yaws, w)
    out.cos, out.sin = particles.cos, particles.sin
    estimate = weighted_mean_pose(out)

    ess = float(1.0 / (w**2).sum())
    resampled = ess < ESS_FRACTION * particles.n
    if resampled:
        positions = (rng.random() + np.arange(particles.n)) / particles.n
        cumw = np.cumsum(w)
        cumw[-1] = 1.0
        idx = np.searchsorted(cumw, positions)
        out = ParticleSet(
            xs=particles.xs[idx],
            ys=particles.ys[idx],
            yaws=particles.yaws[idx],
            weights=np.full(particles.n, 1.0 / particles.n),
        )
    return out, estimate, UpdateInfo(ess=ess, resampled=resampled, diverged=diverged)


def weighted_mean_pose(particles: ParticleSet) -> tuple[float, float, float]:
    """Weighted mean of (x, y) and circular mean of yaw."""
    w = particles.weights
    return (
        float((w * particles.xs).sum()),
        float((w * particles.ys).sum()),
        float(math.atan2((w * particles.sin).sum(), (w * particles.cos).sum())),
    )
