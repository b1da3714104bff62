"""Segment-vs-grid and disc geometry shared by the planner, missions and trackers.

A segment between two cell centers "touches" every cell whose closed unit
square it intersects (the supercover of the segment). Touch tests are done
as exact slab intersections, vectorized over cells, which makes them
symmetric in the endpoints and free of stepping artifacts.

The batched kernels, ``visible_from`` over candidate cells and
``segments_min_value`` over many segments, work in blocks of at most
``BLOCK`` cells, so a call's temporaries stay small whatever its size.
"""

from __future__ import annotations

import math

import numpy as np

#: most elements in one block of a batched kernel's temporaries: at 64 KiB
#: of float64 a block stays below the size at which the allocator maps
#: fresh pages from the kernel on every call
BLOCK = 8192


def segment_cells(u: tuple[int, int], v: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """All cells touched by the segment between the centers of u and v.

    Returns (ixs, iys) arrays. Symmetric: segment_cells(u, v) and
    segment_cells(v, u) return the same cell set.
    """
    if v < u:
        u, v = v, u
    x0, y0 = u[0] + 0.5, u[1] + 0.5
    x1, y1 = v[0] + 0.5, v[1] + 0.5
    ax = np.arange(min(u[0], v[0]), max(u[0], v[0]) + 1)
    ay = np.arange(min(u[1], v[1]), max(u[1], v[1]) + 1)

    # one direction: a (1, columns) row of x slabs, a (1, rows) row of y slabs
    with np.errstate(divide="ignore"):
        tx_lo, tx_hi = _axis_intervals(x0, np.array([[x1 - x0]]), ax)
        ty_lo, ty_hi = _axis_intervals(y0, np.array([[y1 - y0]]), ay)

    lo = np.maximum(np.maximum(tx_lo, ty_lo.T), 0.0)
    hi = np.minimum(np.minimum(tx_hi, ty_hi.T), 1.0)
    iyy, ixx = np.nonzero(lo <= hi)
    return ax[ixx], ay[iyy]


def segments_min_value(ends: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Minimum of a per-cell field over each segment's supercover, for an
    (N, 4) integer array of segments ``(ux, uy, vx, vy)``.

    A segment is tested cell by cell along its major axis, on the ``BAND``
    cells across it that can touch the segment, with exactly the floats of
    ``segment_cells``: every minimum is the one a single-segment call gives.
    Segments are sorted by length and taken in blocks of at most ``BLOCK``
    tested cells, or one segment, which may test more.
    """
    ends = np.asarray(ends, dtype=np.int64).reshape(-1, 4)
    d = ends[:, 2:] - ends[:, :2]
    # start from the lesser (x, y) end, as segment_cells does
    swap = ((d[:, 0] < 0) | ((d[:, 0] == 0) & (d[:, 1] < 0)))[:, None]
    u = np.where(swap, ends[:, 2:], ends[:, :2])
    d = np.where(swap, -d, d)
    # (major, minor) axis columns: x first unless steeper than 45 degrees
    flip = (np.abs(d[:, 1]) > np.abs(d[:, 0]))[:, None]
    u = np.where(flip, u[:, ::-1], u)
    d = np.where(flip, d[:, ::-1], d)
    stride = np.where(flip, [field.shape[1], 1], [1, field.shape[1]])
    steps = np.abs(d[:, 0]) + 1
    width = int(steps.max(initial=0))
    if len(ends) * width * BAND <= BLOCK:
        return _band_min(u, d, stride, width, field)
    out = np.empty(len(ends))
    order = np.argsort(steps)
    start = 0
    for k, width in enumerate(steps[order].tolist()):
        if k > start and (k + 1 - start) * width * BAND > BLOCK:
            sel = order[start:k]
            out[sel] = _band_min(u[sel], d[sel], stride[sel], int(steps[sel].max()), field)
            start = k
    sel = order[start:]
    out[sel] = _band_min(u[sel], d[sel], stride[sel], int(steps[sel].max()), field)
    return out


#: cells tested across a segment at each cell along its major axis
BAND = 3


def _band_min(u: np.ndarray, d: np.ndarray, stride: np.ndarray, width: int, field: np.ndarray) -> np.ndarray:
    """Supercover minima of segments from cells ``u`` by ``d``, both in
    (major, minor) axis order, at most ``width`` cells long in the major
    axis; ``stride`` holds the field's strides in that order.

    With a slope of at most 1, the line moves at most one cell across over
    one cell along, so every supercover cell lies within one cell of
    ``mid``, the line's cell at the middle of that cell along; the rest of
    the box is at least half a cell away. ``mid`` is an exact integer floor.
    Cells past a segment's own box, off the map included, fail the slab
    test, so the field value read for them does not count.
    """
    along = u[:, :1] + np.minimum(d[:, :1], 0) + np.arange(width)
    # floor(u1 + 0.5 + (along - u0) * d1 / d0), in integers
    mid = u[:, 1:] + (d[:, :1] + 2 * (along - u[:, :1]) * d[:, 1:]) // np.where(d[:, :1] == 0, 1, 2 * d[:, :1])
    across = mid[:, :, None] + np.arange(-(BAND // 2), BAND // 2 + 1)
    with np.errstate(divide="ignore"):
        lo, hi = _axis_intervals(u[:, :1] + 0.5, d[:, :1], along)
        t_lo, t_hi = _axis_intervals(u[:, 1:, None] + 0.5, d[:, 1:, None], across)
    np.maximum(t_lo, lo[:, :, None], out=t_lo)
    np.maximum(t_lo, 0.0, out=t_lo)
    np.minimum(t_hi, hi[:, :, None], out=t_hi)
    np.minimum(t_hi, 1.0, out=t_hi)
    across *= stride[:, 1:, None]
    across += (along * stride[:, :1])[:, :, None]
    vals = field.ravel().take(across, mode="clip")
    return np.minimum.reduce(vals, axis=(1, 2), where=t_lo <= t_hi, initial=np.inf)


def visible_from(
    node: tuple[int, int],
    cand_ix: np.ndarray,
    cand_iy: np.ndarray,
    obst_ix: np.ndarray,
    obst_iy: np.ndarray,
) -> np.ndarray:
    """Which candidate cells have an unobstructed segment to ``node``.

    Batched supercover test: candidate j is blocked iff the segment from the
    node center to candidate j's center intersects any obstacle cell square.
    All obstacle cells that could possibly intersect any of these segments
    must be included by the caller (any superset is fine).

    Candidates are split by quadrant around the node: ``cand_ix >= nx`` or
    not, and the same in y. A segment into a quadrant stays on the node's
    side of it, so it can touch only the obstacles with ``obst_ix >= nx``
    (``<= nx`` on the other side), and the same in y; the slab test finds
    every other obstacle clear of it anyway. Within a quadrant the sign of
    each direction is known, so the near and far face of every obstacle are
    known too, and each slab bound is one quotient, the float that the
    general ``_axis_intervals`` picks. Candidates and obstacles of a
    quadrant are taken in blocks of at most ``BLOCK`` pairs.
    """
    n = cand_ix.size
    seen = np.ones(n, dtype=bool)
    if n == 0 or obst_ix.size == 0:
        return seen
    nx, ny = node
    px, py = nx + 0.5, ny + 0.5
    dx = (cand_ix + 0.5) - px
    dy = (cand_iy + 0.5) - py
    # (candidates, obstacles, near face, far face) on each side of each axis;
    # a zero direction is +0.0, which orders the faces as a positive one does
    east, north = cand_ix >= nx, cand_iy >= ny
    x_sides = (
        (east, obst_ix >= nx, obst_ix - px, obst_ix + 1 - px),
        (~east, obst_ix <= nx, obst_ix + 1 - px, obst_ix - px),
    )
    y_sides = (
        (north, obst_iy >= ny, obst_iy - py, obst_iy + 1 - py),
        (~north, obst_iy <= ny, obst_iy + 1 - py, obst_iy - py),
    )
    for cand_x, obst_x, near_x, far_x in x_sides:
        for cand_y, obst_y, near_y, far_y in y_sides:
            j = np.flatnonzero(cand_x & cand_y)
            k = np.flatnonzero(obst_x & obst_y)
            if j.size and k.size:
                seen[j] = ~_blocked(dx[j], dy[j], near_x[k], far_x[k], near_y[k], far_y[k])
    return seen


def _blocked(dx, dy, near_x, far_x, near_y, far_y) -> np.ndarray:
    """Whether each direction ``(dx, dy)`` from a cell center meets an
    obstacle whose faces lie ``near`` and ``far`` from that center along
    each axis, in the order the direction crosses them.

    Every far bound is above 0, since an obstacle on the quadrant's side
    ends past the center, so the clamp of the near bound at 0 changes no
    comparison and is left out.
    """
    n, k = dx.size, near_x.size
    blocked = np.zeros(n, dtype=bool)
    k_step = min(k, BLOCK)
    j_step = BLOCK // k_step
    with np.errstate(divide="ignore"):
        for k0 in range(0, k, k_step):
            kk = slice(k0, k0 + k_step)
            for j0 in range(0, n, j_step):
                jx = dx[j0 : j0 + j_step, None]
                jy = dy[j0 : j0 + j_step, None]
                lo = near_x[kk] / jx
                t = near_y[kk] / jy
                np.maximum(lo, t, out=lo)
                hi = far_x[kk] / jx
                np.divide(far_y[kk], jy, out=t)
                np.minimum(hi, t, out=hi)
                np.minimum(hi, 1.0, out=hi)
                blocked[j0 : j0 + j_step] |= (lo <= hi).any(axis=1)
    return blocked


def _axis_intervals(
    p0, d: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter intervals in which the point p0 + t*d lies in [cell, cell +
    1], broadcast over p0, d and cells: (J, K) for J directions d of shape
    (J, 1) and K cells.

    p0 is a cell center, so ``cells - p0`` is never 0, and a zero direction
    gives infinite bounds: (-inf, inf) for the cell holding p0, and bounds
    of one sign, an interval that misses [0, 1], for every other cell.
    Callers ignore division by zero.
    """
    t1 = (cells - p0) / d
    t2 = (cells + 1 - p0) / d
    return np.minimum(t1, t2), np.maximum(t1, t2)


def disc_cells(mask: np.ndarray, centers, r_cells: float) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``mask`` within ``r_cells`` of any integer cell of
    ``centers``, as (ixs, iys) in flat-index order. Only the window around
    the centers, clamped to the grid, is read; it holds no cell when it lies
    wholly off the grid, where a negative bound would wrap the slice."""
    h, w = mask.shape
    xs, ys = zip(*centers)
    x_lo = max(0, int(math.floor(min(xs) - r_cells)))
    x_hi = min(w - 1, int(math.ceil(max(xs) + r_cells)))
    y_lo = max(0, int(math.floor(min(ys) - r_cells)))
    y_hi = min(h - 1, int(math.ceil(max(ys) + r_cells)))
    if x_lo > x_hi or y_lo > y_hi:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    fy, fx = np.nonzero(mask[y_lo : y_hi + 1, x_lo : x_hi + 1])
    gx, gy = fx + x_lo, fy + y_lo
    near = np.zeros(gx.size, dtype=bool)
    for cx, cy in centers:
        near |= (gx - cx) ** 2 + (gy - cy) ** 2 <= r_cells**2
    return gx[near], gy[near]


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]. A float, ``np.float64`` included, takes
    a scalar path that gives the array path's bits and a Python float."""
    if isinstance(a, float):
        r = (float(a) + math.pi) % (2 * math.pi) - math.pi
        return math.pi if r == -math.pi else r
    if np.isscalar(a) or np.asarray(a).ndim == 0:
        r = np.mod(np.asarray(a) + np.pi, 2 * np.pi) - np.pi
        return float(np.where(r == -np.pi, np.pi, r))
    # the same operations in place on one fresh array; np.mod returns a
    # value in [0, 2 pi) unchanged, so it runs only on the others
    r = np.asarray(a) + np.pi
    np.mod(r, 2 * np.pi, out=r, where=(r < 0.0) | (r >= 2 * np.pi))
    r -= np.pi
    np.copyto(r, np.pi, where=r == -np.pi)
    return r
