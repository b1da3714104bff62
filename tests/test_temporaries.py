"""The per-call temporaries of the hot kernels stay small.

An array above the allocator's mmap threshold (128 KiB by default) gets
fresh pages from the kernel on every call, and each page costs a fault.
tracemalloc sees numpy's data buffers, so its peak over one call bounds what
the call allocates.
"""

import tracemalloc

import numpy as np

from semteam.config import PlannerConfig
from semteam.geometry import visible_from
from semteam.localize import PolarObservation, init_filter, match_costs, match_table
from semteam.planner import NODE_RADIUS, _window_obstacles, extract_traversability
from semteam.standard import build_standard_world
from semteam.world import ground_scan, traversable_mask


def traced_peak(fn) -> int:
    """Bytes by which the traced memory peaks above its level before fn()."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_match_costs_reuses_its_workspace():
    world = build_standard_world()
    grid = world.truth
    table = match_table(grid)
    cells = np.argwhere(traversable_mask(grid.classes))
    iy, ix = cells[len(cells) // 2]
    pose = ((ix + 0.5) * grid.resolution + grid.origin_x, (iy + 0.5) * grid.resolution + grid.origin_y, 0.3)
    obs = PolarObservation.from_scan(ground_scan(grid, pose, 15.0, 36), 36, 10, 15.0)
    assert obs.n_filled > 50
    particles = init_filter(pose, 500, (4.0, 4.0, 0.3), np.random.default_rng(0))
    match_costs(particles, obs, grid, 0.4, table)  # warm-up at this bin count
    peak = traced_peak(lambda: match_costs(particles, obs, grid, 0.4, table))
    assert peak < 128 * 1024, peak


def test_visible_from_blocks_stay_under_one_mib():
    world = build_standard_world()
    grid = extract_traversability(world.truth, PlannerConfig().close_radius)
    free = grid.free
    r_cells = NODE_RADIUS / grid.resolution
    fy, fx = np.nonzero(free)
    # the first node the roadmap places, and more free cells spread over the map
    first = int(np.argmax(np.where(free, grid.dist, -np.inf)))
    nodes = [(first % free.shape[1], first // free.shape[1])]
    nodes += [(int(fx[k]), int(fy[k])) for k in np.linspace(0, fx.size - 1, 12).astype(int)]
    worst = 0
    for nx, ny in nodes:
        disc = (fx - nx) ** 2 + (fy - ny) ** 2 <= r_cells**2
        cand_ix, cand_iy = fx[disc], fy[disc]
        ob_ix, ob_iy = _window_obstacles(free, (nx, ny), cand_ix, cand_iy)
        worst = max(worst, traced_peak(lambda: visible_from((nx, ny), cand_ix, cand_iy, ob_ix, ob_iy)))
    assert worst < 1024 * 1024, worst
