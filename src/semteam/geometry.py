"""Segment-vs-grid geometry shared by the planner and trackers.

A segment between two cell centers "touches" every cell whose closed unit
square it intersects (the supercover of the segment). Touch tests are done
as exact slab intersections, vectorized over cells, which makes them
symmetric in the endpoints and free of stepping artifacts.
"""

from __future__ import annotations

import numpy as np


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
    tx_lo, tx_hi = _axis_intervals(x0, np.array([x1 - x0]), ax)
    ty_lo, ty_hi = _axis_intervals(y0, np.array([y1 - y0]), ay)

    lo = np.maximum(np.maximum(tx_lo, ty_lo.T), 0.0)
    hi = np.minimum(np.minimum(tx_hi, ty_hi.T), 1.0)
    iyy, ixx = np.nonzero(lo <= hi)
    return ax[ixx], ay[iyy]


def segment_free(u: tuple[int, int], v: tuple[int, int], free: np.ndarray) -> bool:
    """True iff every cell the segment touches is free (conservative LOS)."""
    ixs, iys = segment_cells(u, v)
    return bool(free[iys, ixs].all())


def segment_min_value(
    u: tuple[int, int], v: tuple[int, int], field: np.ndarray
) -> float:
    """Minimum of a per-cell field over the cells the segment touches."""
    ixs, iys = segment_cells(u, v)
    return float(field[iys, ixs].min())


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
    """
    n = cand_ix.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    if obst_ix.size == 0:
        return np.ones(n, dtype=bool)
    px, py = node[0] + 0.5, node[1] + 0.5
    dx = (cand_ix + 0.5) - px
    dy = (cand_iy + 0.5) - py

    tx_lo, tx_hi = _axis_intervals(px, dx, obst_ix)
    ty_lo, ty_hi = _axis_intervals(py, dy, obst_iy)

    lo = np.maximum(np.maximum(tx_lo, ty_lo), 0.0)
    hi = np.minimum(np.minimum(tx_hi, ty_hi), 1.0)
    blocked = (lo <= hi).any(axis=1)
    return ~blocked


def _axis_intervals(
    p0: float, d: np.ndarray, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(J, K) parameter intervals in which the point p0 + t*d[j] lies in
    [cell k, cell k + 1], for J segment directions and K cells.

    p0 is a cell center, so ``cells - p0`` is never 0, and a zero direction
    gives infinite bounds: (-inf, inf) for the cell holding p0, and bounds
    of one sign, an interval that misses [0, 1], for every other cell.
    """
    with np.errstate(divide="ignore"):
        t1 = (cells - p0) / d[:, None]
        t2 = (cells + 1 - p0) / d[:, None]
    return np.minimum(t1, t2), np.maximum(t1, t2)


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    r = np.mod(np.asarray(a) + np.pi, 2 * np.pi) - np.pi
    r = np.where(r == -np.pi, np.pi, r)
    if np.isscalar(a) or np.asarray(a).ndim == 0:
        return float(r)
    return r
