"""Particle filter: prediction, matching, resampling, convergence."""

import dataclasses
import math

import numpy as np
import pytest

from semteam.config import LocalizerConfig
from semteam.localize import (
    FREE_LAYER,
    OdomDelta,
    ParticleSet,
    PolarObservation,
    init_filter,
    match_costs,
    match_table,
    predict,
    update_and_resample,
    weighted_mean_pose,
)
from semteam.world import SemanticClass, SemanticGridMap, WorldModel, ground_scan
from test_kernel_reference import pairs_of, scan_of

#: the scenario's default likelihood temperature
TEMPERATURE = LocalizerConfig().temperature


def make_map(classes, resolution=1.0, origin=(0.0, 0.0), observed=None):
    classes = np.asarray(classes, dtype=np.int8)
    h, w = classes.shape
    return SemanticGridMap(
        origin_x=origin[0],
        origin_y=origin[1],
        resolution=resolution,
        width=w,
        height=h,
        classes=classes,
        observed=np.ones((h, w), dtype=bool) if observed is None else observed,
        version=1,
    )


def ring_world():
    """64x64 world: road ring with buildings and vegetation for texture."""
    cls = np.full((64, 64), int(SemanticClass.GRASS), dtype=np.int8)
    cls[:2, :] = SemanticClass.VEGETATION
    cls[-2:, :] = SemanticClass.VEGETATION
    cls[:, :2] = SemanticClass.VEGETATION
    cls[:, -2:] = SemanticClass.VEGETATION
    band = np.zeros((64, 64), dtype=bool)
    band[8:56, 8:56] = True
    band[14:50, 14:50] = False
    cls[band] = SemanticClass.ROAD
    cls[20:27, 20:29] = SemanticClass.BUILDING
    cls[30:41, 36:45] = SemanticClass.BUILDING
    cls[16:19, 30:33] = SemanticClass.VEGETATION
    cls[44:48, 18:22] = SemanticClass.BUILDING
    cls[3:6, 28:31] = SemanticClass.VEGETATION
    cls[58:61, 40:44] = SemanticClass.BUILDING
    cls[28:31, 58:61] = SemanticClass.VEGETATION
    return WorldModel.from_map(make_map(cls))


def rect_path_pose(arc, corners=((11.5, 11.5), (52.5, 11.5), (52.5, 52.5), (11.5, 52.5))):
    """Pose at arc length `arc` along the rectangle through the corners."""
    sides = []
    for k in range(4):
        x0, y0 = corners[k]
        x1, y1 = corners[(k + 1) % 4]
        sides.append(((x0, y0), (x1, y1), math.hypot(x1 - x0, y1 - y0)))
    total = sum(s[2] for s in sides)
    arc = arc % total
    for (x0, y0), (x1, y1), length in sides:
        if arc <= length:
            t = arc / length
            yaw = math.atan2(y1 - y0, x1 - x0)
            return (x0 + t * (x1 - x0), y0 + t * (y1 - y0), yaw)
        arc -= length
    raise AssertionError


def run_loop_sim(
    seed,
    n_particles=500,
    odom_sigma=(0.05, 0.05, 0.01),
    process_noise=(0.05, 0.05, 0.01),
    n_ticks=1600,
    scan_every=3,
    step_len=0.1,
    init_offset=(4.0, -3.0),
    init_spread=(6.0, 6.0, 0.3),
):
    """Drive a loop on the ring world; return per-tick error series."""
    world = ring_world()
    grid = world.truth
    rng = np.random.default_rng(seed)
    table = match_table(grid)

    true_pose = rect_path_pose(0.0)
    guess = (true_pose[0] + init_offset[0], true_pose[1] + init_offset[1], true_pose[2])
    particles = init_filter(guess, n_particles, init_spread, rng)
    dr = np.array(guess)

    est = guess
    filter_err, dr_err = [], []
    for tick in range(1, n_ticks + 1):
        prev = true_pose
        true_pose = rect_path_pose(tick * step_len)
        dxw, dyw = true_pose[0] - prev[0], true_pose[1] - prev[1]
        c, s = math.cos(prev[2]), math.sin(prev[2])
        delta = OdomDelta(
            forward=c * dxw + s * dyw + rng.normal(0, odom_sigma[0]),
            lateral=-s * dxw + c * dyw + rng.normal(0, odom_sigma[1]),
            dyaw=(true_pose[2] - prev[2]) + rng.normal(0, odom_sigma[2]),
        )
        c, s = math.cos(dr[2]), math.sin(dr[2])
        dr = dr + np.array([c * delta.forward - s * delta.lateral,
                            s * delta.forward + c * delta.lateral,
                            delta.dyaw])
        particles = predict(particles, delta, process_noise, rng)
        if tick % scan_every == 0:
            scan = ground_scan(grid, true_pose, 15.0, 36)
            obs = PolarObservation.from_scan(scan, 36, 10, 15.0)
            particles, est, _ = update_and_resample(particles, obs, grid, TEMPERATURE, rng, table)
        filter_err.append(math.hypot(est[0] - true_pose[0], est[1] - true_pose[1]))
        dr_err.append(math.hypot(dr[0] - true_pose[0], dr[1] - true_pose[1]))
    return np.array(filter_err), np.array(dr_err)


@pytest.fixture(scope="module")
def loop_runs():
    return {seed: run_loop_sim(seed) for seed in range(10)}


class TestInit:
    def test_single_particle_zero_spread(self):
        ps = init_filter((3.0, 4.0, 0.5), 1, (0.0, 0.0, 0.0), np.random.default_rng(0))
        assert ps.n == 1
        assert (ps.xs[0], ps.ys[0], ps.yaws[0]) == (3.0, 4.0, 0.5)
        assert ps.weights[0] == 1.0

    def test_uniform_weights(self):
        ps = init_filter((0, 0, 0), 1000, (1, 1, 0.1), np.random.default_rng(1))
        assert np.allclose(ps.weights, 1e-3)
        assert ps.weights.sum() == pytest.approx(1.0)

    def test_worst_case_spread(self):
        # (16 m, 16 m, 0.3 rad) covers the worst-case initial offset
        ps = init_filter((0, 0, 0), 20000, (16.0, 16.0, 0.3), np.random.default_rng(2))
        assert ps.xs.std() == pytest.approx(16.0, rel=0.05)
        assert ps.ys.std() == pytest.approx(16.0, rel=0.05)

    def test_zero_spread_many_particles_warns(self):
        with pytest.warns(UserWarning):
            ps = init_filter((1, 2, 0.3), 10, (0.0, 0.0, 0.0), np.random.default_rng(3))
        assert np.all(ps.xs == 1.0)


class TestPredict:
    def test_identity(self):
        ps = init_filter((0, 0, 0), 50, (1, 1, 0.2), np.random.default_rng(4))
        out = predict(ps, OdomDelta(0, 0, 0), (0, 0, 0), np.random.default_rng(5))
        assert np.array_equal(out.xs, ps.xs)
        assert np.array_equal(out.ys, ps.ys)
        assert np.array_equal(out.yaws, ps.yaws)

    def test_zero_step_returns_a_set_at_rest_as_it_is(self):
        ps = init_filter((0, 0, 0), 50, (1, 1, 0.2), np.random.default_rng(4))
        yaws = ps.yaws.copy()
        yaws[:3] = [-math.pi, 3.5, -4.0]  # the zero step wraps these
        ps = ParticleSet(ps.xs, ps.ys, yaws, ps.weights)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        first = predict(ps, OdomDelta(0.0, -0.0, 0.0), (0, 0, 0), rng)
        assert not first.at_rest and first.yaws[0] == math.pi
        second = predict(first, OdomDelta(-0.0, 0.0, -0.0), (0, 0, 0), rng)
        assert second is not first and second.at_rest
        assert all(a.tobytes() == b.tobytes() for a, b in zip(
            (second.xs, second.ys, second.yaws, second.weights), (first.xs, first.ys, first.yaws, first.weights)))
        assert predict(second, OdomDelta(0.0, 0.0, 0.0), (0, 0, 0), rng) is second
        assert rng.bit_generator.state == state
        # motion, noise or a new set each take the full step
        assert predict(second, OdomDelta(1e-300, 0.0, 0.0), (0, 0, 0), rng) is not second
        assert predict(second, OdomDelta(0.0, 0.0, 0.0), (0.1, 0, 0), rng) is not second
        assert not ParticleSet(second.xs, second.ys, second.yaws, second.weights).at_rest

    def test_trig_is_numpys_of_the_yaws_and_a_new_set_takes_its_own(self):
        ps = init_filter((0, 0, 3.0), 200, (1, 1, 2.0), np.random.default_rng(15))
        yaws = ps.yaws.copy()
        yaws[:6] = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2]
        ps = ParticleSet(ps.xs, ps.ys, yaws, ps.weights)
        assert ps.cos.tobytes() == np.cos(yaws).tobytes()
        assert ps.sin.tobytes() == np.sin(yaws).tobytes()
        assert ps.cos is ps.cos and ps.sin is ps.sin
        turned = dataclasses.replace(ps, yaws=yaws + 0.5)
        assert turned.cos.tobytes() == np.cos(yaws + 0.5).tobytes()
        assert turned.sin.tobytes() == np.sin(yaws + 0.5).tobytes()
        # predict reads the input's trig and leaves the output's to first use
        out = predict(ps, OdomDelta(1.0, 0.5, 0.1), (0, 0, 0), np.random.default_rng(16))
        assert out.weights is ps.weights and "cos" not in vars(out)
        assert out.cos.tobytes() == np.cos(out.yaws).tobytes()
        assert out.xs.tobytes() == (ps.xs + np.cos(yaws) * 1.0 - np.sin(yaws) * 0.5).tobytes()

    def test_forward_shift_along_own_yaw(self):
        ps = init_filter((0, 0, 0), 100, (2, 2, 1.0), np.random.default_rng(6))
        out = predict(ps, OdomDelta(1.0, 0, 0), (0, 0, 0), np.random.default_rng(7))
        np.testing.assert_allclose(out.xs, ps.xs + np.cos(ps.yaws), atol=1e-12)
        np.testing.assert_allclose(out.ys, ps.ys + np.sin(ps.yaws), atol=1e-12)

    def test_law_of_large_numbers(self):
        n = 100_000
        sigma = 0.05
        ps = init_filter((0, 0, 0), n, (0.0, 0.0, 0.0), np.random.default_rng(8))
        out = predict(ps, OdomDelta(1.0, 0, 0), (sigma, sigma, 0.0), np.random.default_rng(9))
        tol = 3 * sigma / math.sqrt(n)
        assert abs(out.xs.mean() - 1.0) < tol
        assert abs(out.ys.mean() - 0.0) < tol


def test_read_only_scan_keeps_its_observation():
    grid = make_map(np.full((30, 30), int(SemanticClass.ROAD), dtype=np.int8))
    grid.classes[:, 20] = SemanticClass.BUILDING
    scan = ground_scan(grid, (10.5, 12.5, 0.3), 15.0, 36)
    assert scan.ranges.flags.writeable  # a scan of a writable map
    first = PolarObservation.from_scan(scan, 36, 10, 15.0)
    assert PolarObservation.from_scan(scan, 36, 10, 15.0) is not first
    frozen = ground_scan(WorldModel.from_map(grid).truth, (10.5, 12.5, 0.3), 15.0, 36)
    kept = PolarObservation.from_scan(frozen, 36, 10, 15.0)
    assert PolarObservation.from_scan(frozen, 36, 10, 15.0) is kept
    assert PolarObservation.from_scan(frozen, 36, 5, 15.0) is not kept
    for name in ("dx", "dy", "layer"):
        assert getattr(kept, name).tobytes() == getattr(first, name).tobytes()


def scan_obs(grid, pose, max_range=15.0, beams=36, n_az=36, n_rng=10):
    scan = ground_scan(grid, pose, max_range, beams)
    return PolarObservation.from_scan(scan, n_az, n_rng, max_range)


def one_particle(pose):
    return ParticleSet(
        xs=np.array([pose[0]]), ys=np.array([pose[1]]), yaws=np.array([pose[2]]), weights=np.array([1.0])
    )


class TestMatchCost:
    def test_true_pose_zero_cost(self):
        world = ring_world()
        pose = (11.5, 11.5, 0.3)
        obs = scan_obs(world.truth, pose)
        assert obs.n_filled > 0
        assert match_costs(one_particle(pose), obs, world.truth, 0.4, match_table(world.truth))[0] == 0.0

    def test_all_unknown_map_gives_fixed_cost(self):
        world = ring_world()
        pose = (11.5, 11.5, 0.0)
        obs = scan_obs(world.truth, pose)
        unknown = SemanticGridMap.unknown(64, 64)
        assert match_costs(one_particle(pose), obs, unknown, 0.4, match_table(unknown))[0] == pytest.approx(0.4)

    def test_empty_observation_zero_cost(self):
        obs = PolarObservation.from_scan(scan_of([]), 8, 4, 5.0)
        grid = SemanticGridMap.unknown(8, 8)
        assert obs.n_filled == 0
        assert match_costs(one_particle((1, 1, 0)), obs, grid, 0.7, match_table(grid))[0] == 0.0

    def test_all_miss_scan_yields_free_evidence(self):
        scan = scan_of([(5.0, SemanticClass.UNKNOWN)] * 8)
        obs = PolarObservation.from_scan(scan, 8, 4, 5.0)
        assert np.count_nonzero(obs.layer != FREE_LAYER) == 0
        assert np.count_nonzero(obs.layer == FREE_LAYER) == 8 * 2  # default stride samples every other bin
        dense = PolarObservation.from_scan(scan, 8, 4, 5.0, free_stride=1)
        assert np.count_nonzero(dense.layer == FREE_LAYER) == 8 * 4

    def test_recount_oracle(self):
        world = ring_world()
        grid = world.truth
        table = match_table(grid)
        rng = np.random.default_rng(10)
        n_az, n_rng_bins, max_range = 36, 10, 15.0
        for _ in range(20):
            pose_eval = (float(rng.uniform(9, 55)), float(rng.uniform(9, 12)), float(rng.uniform(0, 6.3)))
            scan = ground_scan(grid, (11.5, 11.5, 0.0), max_range, 36)
            obs = PolarObservation.from_scan(scan, n_az, n_rng_bins, max_range)
            got = match_costs(one_particle(pose_eval), obs, grid, 0.4, table)[0]

            # independent recount: re-bin the raw scan (hits, then free
            # evidence) and score every filled bin by hand
            rng_width = max_range / n_rng_bins
            filled: dict[tuple[int, int], tuple[float, float, int | None]] = {}
            pairs = pairs_of(scan)
            for i, (rng_i, hit_cls) in enumerate(pairs):
                if hit_cls == SemanticClass.UNKNOWN:
                    continue
                offset = 2 * math.pi * i / len(pairs)
                ia = int(offset / (2 * math.pi / n_az)) % n_az
                ir = min(int(rng_i / rng_width), n_rng_bins - 1)
                if (ia, ir) not in filled:
                    filled[(ia, ir)] = (
                        rng_i * math.cos(offset),
                        rng_i * math.sin(offset),
                        int(hit_cls),
                    )
            for i, (rng_i, hit_cls) in enumerate(pairs):
                offset = 2 * math.pi * i / len(pairs)
                ia = int(offset / (2 * math.pi / n_az)) % n_az
                r_stop = max_range if hit_cls == SemanticClass.UNKNOWN else rng_i - 1.0
                for k in range(0, n_rng_bins, 2):
                    r_k = (k + 0.5) * rng_width
                    if r_k > r_stop:
                        break
                    if (ia, k) not in filled:
                        filled[(ia, k)] = (r_k * math.cos(offset), r_k * math.sin(offset), None)
            def near_classes(ix, iy):
                out = set()
                for ddx in (-1, 0, 1):
                    for ddy in (-1, 0, 1):
                        jx, jy = ix + ddx, iy + ddy
                        if 0 <= jx < grid.width and 0 <= jy < grid.height:
                            c = int(grid.classes[jy, jx])
                            if c != SemanticClass.UNKNOWN:
                                out.add(c)
                return out

            total = 0.0
            for dx, dy, cls_bin in filled.values():
                cy, sy = math.cos(pose_eval[2]), math.sin(pose_eval[2])
                wx = pose_eval[0] + cy * dx - sy * dy
                wy = pose_eval[1] + sy * dx + cy * dy
                ix = math.floor((wx - grid.origin_x) / grid.resolution)
                iy = math.floor((wy - grid.origin_y) / grid.resolution)
                if not (0 <= ix < grid.width and 0 <= iy < grid.height):
                    total += 0.4
                elif int(grid.classes[iy, ix]) == SemanticClass.UNKNOWN:
                    total += 0.4
                else:
                    near = near_classes(ix, iy)
                    if cls_bin is None:
                        if not near & {int(SemanticClass.ROAD), int(SemanticClass.DIRT_GRAVEL)}:
                            total += 1.0
                    elif cls_bin not in near:
                        total += 1.0
            assert got == pytest.approx(total / len(filled), abs=1e-12)

    def test_rigid_transform_invariance(self):
        world = ring_world()
        g1 = world.truth
        # translate world content by an integer offset via the origin
        g2 = SemanticGridMap(
            origin_x=g1.origin_x + 37.0,
            origin_y=g1.origin_y - 12.0,
            resolution=1.0,
            width=g1.width,
            height=g1.height,
            classes=g1.classes.copy(),
            observed=g1.observed.copy(),
            version=1,
        )
        rng = np.random.default_rng(11)
        t1, t2 = match_table(g1), match_table(g2)
        for _ in range(10):
            pose = (float(rng.uniform(9, 54)), float(rng.uniform(9, 54)), float(rng.uniform(0, 6.3)))
            obs = scan_obs(g1, (11.5, 11.5, 0.0))
            c1 = match_costs(one_particle(pose), obs, g1, 0.4, t1)[0]
            c2 = match_costs(one_particle((pose[0] + 37.0, pose[1] - 12.0, pose[2])), obs, g2, 0.4, t2)[0]
            assert c1 == c2


class TestUpdateResample:
    def test_uniform_costs_keep_weights(self):
        grid = SemanticGridMap.unknown(32, 32)  # every bin scores unknown_cost
        world = ring_world()
        obs = scan_obs(world.truth, (11.5, 11.5, 0.0))
        rng = np.random.default_rng(12)
        ps = init_filter((16, 16, 0), 64, (2, 2, 0.2), rng)
        ps.weights = rng.random(64)
        ps.weights /= ps.weights.sum()
        out, _, info = update_and_resample(ps, obs, grid, TEMPERATURE, rng, match_table(grid))
        if not info.resampled:
            np.testing.assert_allclose(out.weights, ps.weights, atol=1e-12)

    def test_the_weighted_set_shares_poses_and_trig(self):
        world = ring_world()
        obs = scan_obs(world.truth, (11.5, 11.5, 0.0))
        table = match_table(world.truth)
        ps = init_filter((11.5, 11.5, 0.0), 200, (0.3, 0.3, 0.05), np.random.default_rng(17))
        out, est, info = update_and_resample(ps, obs, world.truth, 1e6, np.random.default_rng(18), table)
        assert not info.resampled
        assert all(a is b for a, b in zip((out.xs, out.ys, out.yaws, out.cos, out.sin), (ps.xs, ps.ys, ps.yaws, ps.cos, ps.sin)))
        fresh = ParticleSet(ps.xs.copy(), ps.ys.copy(), ps.yaws.copy(), out.weights.copy())
        assert np.array(est).tobytes() == np.array(weighted_mean_pose(fresh)).tobytes()
        # a resampled set takes the trig of its own yaws
        ps = init_filter((11.5, 11.5, 0.0), 200, (4.0, 4.0, 0.5), np.random.default_rng(19))
        out, _, info = update_and_resample(ps, obs, world.truth, 1e-3, np.random.default_rng(18), table)
        assert info.resampled
        assert out.cos.tobytes() == np.cos(out.yaws).tobytes()
        assert out.sin.tobytes() == np.sin(out.yaws).tobytes()

    def test_dominant_particle_wins(self):
        world = ring_world()
        grid = world.truth
        true_pose = (11.5, 11.5, 0.0)
        obs = scan_obs(grid, true_pose)
        n = 100
        # inside a building block: strongly mismatching hypotheses
        xs = np.full(n, 40.5)
        ys = np.full(n, 35.5)
        yaws = np.zeros(n)
        xs[17], ys[17], yaws[17] = true_pose
        ps = ParticleSet(xs, ys, yaws, np.full(n, 1.0 / n))
        out, est, info = update_and_resample(
            ps, obs, grid, 0.05, np.random.default_rng(13), match_table(grid)
        )
        assert est[0] == pytest.approx(true_pose[0], abs=0.5)
        assert est[1] == pytest.approx(true_pose[1], abs=0.5)

    def test_weights_sum_one_and_count_preserved(self, loop_runs):
        world = ring_world()
        grid = world.truth
        table = match_table(grid)
        rng = np.random.default_rng(14)
        ps = init_filter((11.5, 11.5, 0), 200, (4, 4, 0.3), rng)
        for k in range(30):
            pose = rect_path_pose(k * 0.5)
            obs = scan_obs(grid, pose)
            ps = predict(ps, OdomDelta(0.5, 0, 0), (0.05, 0.05, 0.01), rng)
            ps, _, _ = update_and_resample(ps, obs, grid, TEMPERATURE, rng, table)
            assert ps.n == 200
            assert ps.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_noise_convergence_within_50_steps(self):
        world = ring_world()
        grid = world.truth
        table = match_table(grid)
        passed = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            true_arc = 0.0
            true_pose = rect_path_pose(true_arc)
            guess = (true_pose[0] + 2.0, true_pose[1] - 1.5, true_pose[2])
            ps = init_filter(guess, 500, (2.0, 2.0, 0.2), rng)
            est = guess
            errs = []
            for step in range(50):
                prev = rect_path_pose(step * 0.5)
                cur = rect_path_pose((step + 1) * 0.5)
                c, s = math.cos(prev[2]), math.sin(prev[2])
                delta = OdomDelta(
                    c * (cur[0] - prev[0]) + s * (cur[1] - prev[1]),
                    -s * (cur[0] - prev[0]) + c * (cur[1] - prev[1]),
                    cur[2] - prev[2],
                )
                ps = predict(ps, delta, (0.02, 0.02, 0.005), rng)
                obs = scan_obs(grid, cur)
                ps, est, _ = update_and_resample(ps, obs, grid, TEMPERATURE, rng, table)
                errs.append(math.hypot(est[0] - cur[0], est[1] - cur[1]))
            if errs[-1] < 1.0:
                passed += 1
        assert passed >= 9

    def test_loop_convergence_under_3_cells(self, loop_runs):
        means = []
        for seed, (filt, _) in loop_runs.items():
            post = filt[len(filt) // 4 :]
            means.append(post.mean())
        assert np.mean(means) < 3.0, f"per-seed means: {means}"

    def test_filter_beats_dead_reckoning(self, loop_runs):
        ratios = []
        for seed, (filt, dr) in loop_runs.items():
            start = len(filt) // 10
            ratios.append(filt[start:].mean() / dr[start:].mean())
        assert np.mean(ratios) <= 0.25, f"ratios: {ratios}"
