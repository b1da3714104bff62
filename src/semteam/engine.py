"""Deterministic lockstep simulation.

Every tick runs a fixed order: kinematics, noisy odometry, sensing,
per-agent autonomy in ascending robot id, pairwise gossip syncs over the
fixed-range communication topology, event logging. All randomness flows
from counter-based Philox streams keyed by (master seed, robot, purpose),
so identical (config, seed) reproduce byte-identical event logs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semteam import aerial as am
from semteam import gossip, localize, mission as msn, planner as pln, tracker as trk
from semteam.config import ScenarioConfig
from semteam.geometry import wrap_angle
from semteam.standard import build_standard_world
from semteam.world import SemanticGridMap, WorldModel, ground_scan, load_world


def rng_stream(master_seed: int, robot_id: int, purpose: str) -> np.random.Generator:
    """Independent counter-based stream per (robot, purpose)."""
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4], "little")
    seq = np.random.SeedSequence((master_seed, robot_id, tag))
    return np.random.Generator(np.random.Philox(seq))


def inject_odometry_noise(
    delta: localize.OdomDelta, sigma, rng: np.random.Generator
) -> localize.OdomDelta:
    """Ground-truth motion plus zero-mean Gaussian noise per component."""
    sx, sy, syaw = sigma
    if sx < 0 or sy < 0 or syaw < 0:
        raise ValueError(f"odometry sigma must be >= 0, got {sigma}")
    return localize.OdomDelta(
        forward=delta.forward + (rng.normal(0.0, sx) if sx > 0 else 0.0),
        lateral=delta.lateral + (rng.normal(0.0, sy) if sy > 0 else 0.0),
        dyaw=delta.dyaw + (rng.normal(0.0, syaw) if syaw > 0 else 0.0),
    )


def resolve_world(spec: str) -> WorldModel:
    if spec == "standard":
        return build_standard_world()
    return load_world(spec)


def boustrophedon(world: WorldModel, altitude: float, fov_half_angle: float, margin: float):
    """Serpentine sweep waypoints covering the world bounds."""
    truth = world.truth
    w = truth.width * truth.resolution
    h = truth.height * truth.resolution
    side = 2.0 * altitude * math.tan(fov_half_angle)
    n_legs = max(1, math.ceil(w / side))
    xs = [truth.origin_x + (k + 0.5) * w / n_legs for k in range(n_legs)]
    y_lo = truth.origin_y + margin
    y_hi = truth.origin_y + h - margin
    pts = []
    for k, x in enumerate(xs):
        if k % 2 == 0:
            pts += [(x, y_lo), (x, y_hi)]
        else:
            pts += [(x, y_hi), (x, y_lo)]
    return pts


MAP_KEY = "map"
POSE_PERIOD = 10  # ticks between poses.csv rows


class AerialAgent:
    """Waypoint-flying mapper. It takes its GPS pose as exact and maps
    every keyframe at that pose."""

    kind = "aerial"

    def __init__(self, robot_id: int, cfg: ScenarioConfig, world: WorldModel):
        self.id = robot_id
        self.cfg = cfg
        self.world = world
        a = cfg.aerial
        self.fov = math.radians(a.fov_half_angle_deg)
        self.waypoints = (
            [tuple(p) for p in a.waypoints]
            if a.waypoints
            else boustrophedon(world, a.altitude, self.fov, a.sweep_margin)
        )
        self.wp_index = 0
        x, y = cfg.start
        self.true_pose = np.array([x, y, a.altitude, 0.0])
        self.distance = 0.0
        self.db = gossip.Database(owner=robot_id)
        truth = world.truth
        self.acc = am.MapAccumulator(
            truth.width, truth.height, truth.resolution, truth.origin_x, truth.origin_y
        )
        self.last_kf_pose = None
        self.kf_count = 0
        self.events: list[dict] = []

    def integrate(self, dt: float) -> None:
        if not self.waypoints:
            return
        tx, ty = self.waypoints[self.wp_index]
        dx, dy = tx - self.true_pose[0], ty - self.true_pose[1]
        dist = math.hypot(dx, dy)
        step = self.cfg.aerial.speed * dt
        if dist <= step:
            self.true_pose[0], self.true_pose[1] = tx, ty
            self.distance += dist
            if self.wp_index + 1 < len(self.waypoints):
                self.wp_index += 1
            elif self.cfg.aerial.loop:
                self.wp_index = 0
        else:
            self.true_pose[0] += dx / dist * step
            self.true_pose[1] += dy / dist * step
            self.true_pose[3] = math.atan2(dy, dx)
            self.distance += step

    def autonomy(self, tick: int) -> None:
        a = self.cfg.aerial
        pose = tuple(self.true_pose)
        kf = am.maybe_create_keyframe(
            pose,
            self.last_kf_pose,
            a.keyframe_threshold,
            kf_id=self.kf_count,
            world=self.world,
            fov_half_angle=self.fov,
        )
        if kf is not None:
            self.last_kf_pose = pose
            self.kf_count += 1
            self.acc.fuse_keyframe(kf)
        if tick % a.snapshot_period_ticks == 0 and self.acc.observed.any():
            snap = self.acc.snapshot()
            rec = self.db.put_local(MAP_KEY, am.encode_snapshot(snap))
            self.events.append(
                {"tick": tick, "ev": "map", "robot": self.id, "version": snap.version, "seq": rec.seq}
            )


class GroundAgent:
    """Localizes in the gossiped aerial map, plans, tracks, runs missions."""

    kind = "ground"

    def __init__(self, robot_id: int, cfg: ScenarioConfig, world: WorldModel, seed: int):
        self.id = robot_id
        self.cfg = cfg
        self.world = world
        g = cfg.ground

        # staging: an L around the start corner so every robot keeps nearby
        # structure in scan range while its filter converges
        idx = robot_id - cfg.n_aerial
        x, y = cfg.start
        yaw = cfg.start_yaw
        if idx > 0:
            if idx % 2 == 1:
                x += g.start_spacing * ((idx + 1) // 2)
                yaw = 0.0
            else:
                y += g.start_spacing * (idx // 2)
                yaw = math.pi / 2
        self.true_pose = np.array([x, y, 0.0, yaw])
        self.command = (0.0, 0.0)
        self.distance = 0.0
        self.moving = False

        self.odom_rng = rng_stream(seed, robot_id, "odom")
        self.filter_rng = rng_stream(seed, robot_id, "filter")
        init_rng = rng_stream(seed, robot_id, "init")
        err = cfg.localizer.init_error
        r = err * math.sqrt(init_rng.uniform()) if err > 0 else 0.0
        theta = init_rng.uniform(0.0, 2.0 * math.pi)
        # position estimate degraded up to init_error; orientation known
        guess = (x + r * math.cos(theta), y + r * math.sin(theta), float(self.true_pose[3]))
        self.particles = localize.init_filter(
            guess, cfg.localizer.n_particles, cfg.localizer.init_spread, self.filter_rng
        )
        self.believed = np.array(guess)
        self.dr_pose = np.array(guess)
        self.filter_params = localize.FilterParams(
            unknown_cost=cfg.localizer.unknown_cost,
            temperature=cfg.localizer.temperature,
            ess_fraction=cfg.localizer.ess_fraction,
        )
        self.last_update = localize.UpdateInfo(ess=float(cfg.localizer.n_particles), resampled=False, diverged=False)

        self.db = gossip.Database(owner=robot_id)
        self.local_grid = trk.LocalObstacleGrid.create(g.local_grid_side, world.truth.resolution)
        self.tracker_params = trk.TrackerParams(
            v_max=g.v_max,
            yaw_rate_max=g.yaw_rate_max,
            k_yaw=cfg.tracker.k_yaw,
            align_threshold=cfg.tracker.align_threshold,
            arrival_tolerance=cfg.tracker.arrival_tolerance,
            search_radius=cfg.tracker.search_radius,
        )
        self.tracker_state: trk.TrackerState | None = None
        self.mission = msn.MissionController(robot_id=robot_id, reselect_period=cfg.mission.reselect_period)
        self.map: SemanticGridMap | None = None
        self.map_version = 0
        self.map_source: tuple[int, int] | None = None  # (origin, seq) consumed
        self.grid = None
        self.field = None
        self.roadmap = pln.Roadmap(radius=cfg.planner.node_radius, lam=cfg.planner.lam)
        self.vis = None
        self.rois: list[msn.ROI] = []
        self.backtracks = 0
        self.cancellations = 0
        self.events: list[dict] = []
        self._wp_script = self._waypoint_script()
        self._in_shakeout = False

    def _waypoint_script(self):
        m = self.cfg.mission
        if m.mode != "waypoint" or not m.waypoints:
            return None
        idx = (self.id - self.cfg.n_aerial) % len(m.waypoints)
        return [tuple(p) for p in m.waypoints[idx]]

    # ---- engine-called phases -------------------------------------------

    def integrate(self, dt: float) -> None:
        v, w = self.command
        x, y, _, yaw = self.true_pose
        self.true_pose[0] = x + v * math.cos(yaw) * dt
        self.true_pose[1] = y + v * math.sin(yaw) * dt
        self.true_pose[3] = wrap_angle(yaw + w * dt)
        self.distance += abs(v) * dt
        self.moving = abs(v) > 1e-6 or abs(w) > 1e-6

    def odometry(self, prev_pose: np.ndarray) -> localize.OdomDelta:
        dxw = self.true_pose[0] - prev_pose[0]
        dyw = self.true_pose[1] - prev_pose[1]
        c, s = math.cos(prev_pose[3]), math.sin(prev_pose[3])
        exact = localize.OdomDelta(
            forward=c * dxw + s * dyw,
            lateral=-s * dxw + c * dyw,
            dyaw=float(self.true_pose[3] - prev_pose[3]),
        )
        # wheel odometry reports zero when parked; noise accompanies motion
        if self.moving:
            delta = inject_odometry_noise(exact, self.cfg.ground.odom_sigma, self.odom_rng)
        else:
            delta = exact
        # dead reckoning integrates the identical noisy stream
        c, s = math.cos(self.dr_pose[2]), math.sin(self.dr_pose[2])
        self.dr_pose = self.dr_pose + np.array(
            [
                c * delta.forward - s * delta.lateral,
                s * delta.forward + c * delta.lateral,
                delta.dyaw,
            ]
        )
        # process noise accompanies motion; re-diffusing a parked cloud only
        # impoverishes the particle set
        noise = self.cfg.localizer.process_noise if self.moving else (0.0, 0.0, 0.0)
        self.particles = localize.predict(self.particles, delta, noise, self.filter_rng)
        self.believed = np.array(localize.weighted_mean_pose(self.particles))
        return delta

    def autonomy(self, tick: int) -> None:
        cfg = self.cfg
        truth = self.world.truth
        if tick % cfg.ground.scan_period_ticks == 0:
            scan = ground_scan(
                truth,
                (self.true_pose[0], self.true_pose[1], self.true_pose[3]),
                cfg.ground.scan_max_range,
                cfg.ground.scan_beams,
            )
            obs = localize.PolarObservation.from_scan(
                scan,
                cfg.localizer.azimuth_bins,
                cfg.localizer.range_bins,
                cfg.ground.scan_max_range,
                free_margin=truth.resolution,
            )
            # measurement updates are gated on motion: stationary re-scans of
            # the same scene add no information and let resampling noise
            # collapse the cloud onto corridor aliases
            if self.map is not None and self.moving:
                self.particles, est, self.last_update = localize.update_and_resample(
                    self.particles, obs, self.map, self.filter_params, self.filter_rng
                )
                self.believed = np.array(est)
            trk.integrate_scan(
                self.local_grid,
                scan,
                (self.believed[0], self.believed[1], self.believed[2]),
                cfg.ground.scan_max_range,
            )

        self._ingest_map(tick)
        if self._wp_script is not None:
            self._waypoint_mission(tick)
        elif tick < cfg.mission.warmup_ticks:
            self._shakeout(tick)
        else:
            if self._in_shakeout:
                self._in_shakeout = False
                self.tracker_state = None
            self._roi_mission(tick)

        if self.tracker_state is not None and self.tracker_state.phase not in ("cancelled", "done"):
            before_bt = self.tracker_state.n_backtracks
            before_cx = self.tracker_state.n_cancellations
            self.command, self.tracker_state = trk.step(
                self.tracker_state,
                self.local_grid,
                (self.believed[0], self.believed[1], self.believed[2]),
                self.tracker_params,
            )
            self.backtracks += self.tracker_state.n_backtracks - before_bt
            self.cancellations += self.tracker_state.n_cancellations - before_cx
        else:
            self.command = (0.0, 0.0)

    # ---- internals -------------------------------------------------------

    def _ingest_map(self, tick: int) -> None:
        best = None
        for (origin, key), rec in self.db.records.items():
            if key != MAP_KEY:
                continue
            if best is None or (rec.seq, origin) > (best.seq, best.origin):
                best = rec
        if best is None:
            return
        if self.map_source == (best.origin, best.seq):
            return
        self.map_source = (best.origin, best.seq)
        snap = am.decode_snapshot(best.payload)
        if self.map is not None and snap.version <= self.map.version:
            return
        unchanged = (
            self.map is not None
            and np.array_equal(snap.classes, self.map.classes)
            and np.array_equal(snap.observed, self.map.observed)
        )
        self.map = snap
        self.map_version = snap.version
        if unchanged:
            return
        self.grid = pln.extract_traversability(snap, self.cfg.planner.close_radius)
        self.field = pln.distance_transform(self.grid)
        self.roadmap, self.vis = pln.update_roadmap(self.roadmap, self.vis, self.grid, self.field)
        self.rois = msn.extract_rois(
            snap,
            self.cfg.mission.cluster_radius,
            dilation_radius=self.cfg.mission.dilation_radius,
            close_radius=self.cfg.planner.close_radius,
            grid=self.grid,
            field_=self.field,
        )
        self.events.append(
            {
                "tick": tick,
                "ev": "map_ingested",
                "robot": self.id,
                "version": snap.version,
                "nodes": len(self.roadmap.nodes),
                "rois": len(self.rois),
            }
        )

    def _plan_to(self, goal_cell):
        if self.grid is None:
            return pln.PlanResult(ok=False, reason="unmapped")
        start = self.map.cell_of(self.believed[0], self.believed[1])
        if not self.map.in_bounds(*start):
            return pln.PlanResult(ok=False, reason="unmapped")
        return pln.plan(self.roadmap, self.vis, self.grid, self.field, start, goal_cell)

    def _roi_mission(self, tick: int) -> None:
        tracker_phase = self.tracker_state.phase if self.tracker_state is not None else None
        events = self.mission.tick(
            tick,
            self.db,
            self.map_version,
            self.rois,
            self._plan_to,
            tracker_phase,
        )
        self.events.extend(events)
        if self.mission.pending_plan is not None and self.mission.phase == "planning":
            res = self.map
            waypoints = [
                (res.origin_x + (ix + 0.5) * res.resolution, res.origin_y + (iy + 0.5) * res.resolution)
                for ix, iy in self.mission.pending_plan.waypoints
            ]
            self.tracker_state = trk.TrackerState(waypoints=waypoints)
            self.mission.pending_plan = None
        if self.mission.current_roi is None and self.mission.phase in ("idle", "selecting"):
            if self.tracker_state is not None:
                self.tracker_state = None

    def _waypoint_mission(self, tick: int) -> None:
        """Drive the script once from the believed pose; retry it if cancelled."""
        if self.tracker_state is None or self.tracker_state.phase == "cancelled":
            # the tracker takes its first waypoint as the start of the path
            x, y, _ = self.believed
            self.tracker_state = trk.TrackerState(waypoints=[(x, y)] + list(self._wp_script))

    def _shakeout(self, tick: int) -> None:
        """Warmup drive: a short out-and-back leg from the staging area.

        Stationary scans cannot disambiguate corridor aliases, so the
        localizer needs motion before the mission may act on its estimate.
        """
        if tick < 40:  # let the first scans build a local obstacle grid
            return
        if self.tracker_state is None or self.tracker_state.phase in ("cancelled", "done"):
            x, y, yaw = self.believed
            out = (x + 10.0 * math.cos(yaw), y + 10.0 * math.sin(yaw))
            self.tracker_state = trk.TrackerState(waypoints=[(x, y), out, (x, y)])
            self._in_shakeout = True


@dataclass
class RunReport:
    seed: int
    team_size: int
    comm_range: float
    ticks: int
    duration_s: float | None
    targets_visited: int
    n_targets: int
    total_distance_m: float
    loc_err_mean: float
    loc_err_max: float
    loc_err_early_mean: float
    loc_err_late_mean: float
    dr_err_late_mean: float
    backtracks: int
    cancellations: int
    failures_reported: int
    db_records_mean: float

    def metrics_row(self) -> dict:
        return {
            "seed": self.seed,
            "team_size": self.team_size,
            "comm_range": self.comm_range,
            "ticks": self.ticks,
            "duration_s": "" if self.duration_s is None else round(self.duration_s, 3),
            "targets_visited": self.targets_visited,
            "n_targets": self.n_targets,
            "total_distance_m": round(self.total_distance_m, 3),
            "loc_err_mean": round(self.loc_err_mean, 4),
            "loc_err_max": round(self.loc_err_max, 4),
            "loc_err_early_mean": round(self.loc_err_early_mean, 4),
            "loc_err_late_mean": round(self.loc_err_late_mean, 4),
            "dr_err_late_mean": round(self.dr_err_late_mean, 4),
            "backtracks": self.backtracks,
            "cancellations": self.cancellations,
            "failures_reported": self.failures_reported,
            "db_records_mean": round(self.db_records_mean, 2),
        }


class Simulation:
    def __init__(self, config: ScenarioConfig, world: WorldModel | None = None):
        config.validate()
        self.cfg = config
        self.world = world if world is not None else resolve_world(config.world)
        self.dt = config.tick_seconds
        self.tick_count = 0

        self.agents: list = []
        for rid in range(config.n_aerial):
            self.agents.append(AerialAgent(rid, config, self.world))
        for k in range(config.n_ground):
            self.agents.append(GroundAgent(config.n_aerial + k, config, self.world, config.seed))

        if config.initial_map == "full":
            # the aerial robot's own map starts complete, so that none of the
            # snapshots it publishes later replaces the preload with less
            truth = self.world.truth
            acc = self.agents[0].acc if config.n_aerial else am.MapAccumulator.like(truth)
            acc.fuse_keyframe(am.full_view_keyframe(truth))
            source = self.agents[0].id if config.n_aerial else 65000
            rec = gossip.DbRecord(origin=source, key=MAP_KEY, seq=1, payload=am.encode_snapshot(acc.snapshot()))
            for agent in self.agents:
                agent.db.merge([rec])

        # ground-truth targets for mission accounting
        self.true_targets = msn.extract_rois(
            self.world.truth,
            config.mission.cluster_radius,
            dilation_radius=config.mission.dilation_radius,
            close_radius=config.planner.close_radius,
        )
        self.visited_targets: set[str] = set()
        self.duration_s: float | None = None

        self.events: list[str] = []
        self.pose_rows: list[str] = []
        self.loc_err: dict[int, list[float]] = {a.id: [] for a in self.agents if a.kind == "ground"}
        self.dr_err: dict[int, list[float]] = {a.id: [] for a in self.agents if a.kind == "ground"}

    @property
    def ground_agents(self) -> list[GroundAgent]:
        return [a for a in self.agents if a.kind == "ground"]

    def tick(self) -> None:
        t = self.tick_count
        # (1) kinematics
        prev = {a.id: a.true_pose.copy() for a in self.agents}
        for agent in self.agents:
            agent.integrate(self.dt)
        # (2) noisy odometry
        for agent in self.ground_agents:
            agent.odometry(prev[agent.id])
        # (3)+(4) sensing and autonomy, ascending id
        for agent in self.agents:
            agent.autonomy(t)
        for agent in self.agents:
            for ev in agent.events:
                self._log(ev)
                if ev["ev"] == "visited":
                    self._check_true_visit(ev, agent)
            agent.events.clear()
        # (5) communication topology + syncs
        for i, a in enumerate(self.agents):
            for b in self.agents[i + 1 :]:
                dx = a.true_pose[0] - b.true_pose[0]
                dy = a.true_pose[1] - b.true_pose[1]
                if math.hypot(dx, dy) <= self.cfg.comm_range:
                    applied_b, applied_a = gossip.sync_pair(a.db, b.db)
                    if applied_b or applied_a:
                        self._log(
                            {"tick": t, "ev": "sync", "a": a.id, "b": b.id,
                             "applied_a": applied_a, "applied_b": applied_b}
                        )
        # (6) per-tick bookkeeping
        for agent in self.ground_agents:
            err = math.hypot(
                agent.believed[0] - agent.true_pose[0], agent.believed[1] - agent.true_pose[1]
            )
            self.loc_err[agent.id].append(err)
            self.dr_err[agent.id].append(
                math.hypot(agent.dr_pose[0] - agent.true_pose[0], agent.dr_pose[1] - agent.true_pose[1])
            )
            if t % POSE_PERIOD == 0:
                self.pose_rows.append(
                    f"{t},{agent.id},"
                    f"{agent.believed[0]:.4f},{agent.believed[1]:.4f},{agent.believed[2]:.5f},"
                    f"{agent.true_pose[0]:.4f},{agent.true_pose[1]:.4f},{agent.true_pose[3]:.5f},"
                    f"{agent.dr_pose[0]:.4f},{agent.dr_pose[1]:.4f},{agent.dr_pose[2]:.5f},"
                    f"{agent.last_update.ess:.2f},{int(agent.last_update.diverged)}"
                )
        self.tick_count += 1

    def _check_true_visit(self, ev: dict, agent: GroundAgent) -> None:
        vr = self.cfg.mission.visit_radius
        x, y = agent.true_pose[0], agent.true_pose[1]
        res = self.world.truth.resolution
        ox, oy = self.world.truth.origin_x, self.world.truth.origin_y
        for target in self.true_targets:
            if target.roi_id in self.visited_targets:
                continue
            spots = list(target.member_cells)
            if target.goal_cell is not None:
                spots.append(target.goal_cell)
            if any(
                math.hypot((cx + 0.5) * res + ox - x, (cy + 0.5) * res + oy - y) <= vr
                for cx, cy in spots
            ):
                self.visited_targets.add(target.roi_id)
                self._log(
                    {"tick": ev["tick"], "ev": "target_reached", "robot": agent.id,
                     "target": target.roi_id, "count": len(self.visited_targets)}
                )
        if (
            self.duration_s is None
            and self.true_targets
            and len(self.visited_targets) == len(self.true_targets)
        ):
            self.duration_s = (ev["tick"] + 1) * self.dt
            self._log({"tick": ev["tick"], "ev": "all_targets_visited",
                       "duration_s": round(self.duration_s, 3)})

    def _log(self, ev: dict) -> None:
        self.events.append(json.dumps(ev, sort_keys=True, separators=(",", ":")))

    def mission_complete(self) -> bool:
        if self.cfg.mission.mode == "waypoint":
            # every ground robot drives its script, never the shake-out leg
            grounds = self.ground_agents
            return bool(grounds) and all(
                a.tracker_state is not None and a.tracker_state.phase == "done" for a in grounds
            )
        return bool(self.true_targets) and len(self.visited_targets) == len(self.true_targets)

    def run(self, out_dir: str | Path | None = None) -> RunReport:
        while self.tick_count < self.cfg.max_ticks and not self.mission_complete():
            self.tick()
        report = self._report()
        if out_dir is not None:
            self._write_outputs(Path(out_dir), report)
        return report

    def _report(self) -> RunReport:
        grounds = self.ground_agents
        all_err = [e for a in grounds for e in self.loc_err[a.id]]
        early_ticks = int(60.0 / self.dt)
        early = [e for a in grounds for e in self.loc_err[a.id][:early_ticks]]
        late = [e for a in grounds for e in self.loc_err[a.id][early_ticks:]]
        dr_late = [e for a in grounds for e in self.dr_err[a.id][early_ticks:]]
        failures = sum(len(a.mission.failures) for a in grounds)
        return RunReport(
            seed=self.cfg.seed,
            team_size=self.cfg.n_ground,
            comm_range=self.cfg.comm_range,
            ticks=self.tick_count,
            duration_s=self.duration_s,
            targets_visited=len(self.visited_targets),
            n_targets=len(self.true_targets),
            total_distance_m=sum(a.distance for a in grounds),
            loc_err_mean=float(np.mean(all_err)) if all_err else 0.0,
            loc_err_max=float(np.max(all_err)) if all_err else 0.0,
            loc_err_early_mean=float(np.mean(early)) if early else 0.0,
            loc_err_late_mean=float(np.mean(late)) if late else 0.0,
            dr_err_late_mean=float(np.mean(dr_late)) if dr_late else 0.0,
            backtracks=sum(a.backtracks for a in grounds),
            cancellations=sum(a.cancellations for a in grounds),
            failures_reported=failures,
            db_records_mean=float(np.mean([len(a.db) for a in self.agents])) if self.agents else 0.0,
        )

    def _write_outputs(self, out: Path, report: RunReport) -> None:
        out.mkdir(parents=True, exist_ok=True)
        self.cfg.save(out / "config.json")
        (out / "events.jsonl").write_bytes(("\n".join(self.events) + "\n").encode("ascii"))
        header = "tick,robot,bel_x,bel_y,bel_yaw,true_x,true_y,true_yaw,dr_x,dr_y,dr_yaw,ess,diverged"
        (out / "poses.csv").write_text(header + "\n" + "\n".join(self.pose_rows) + "\n")
        row = report.metrics_row()
        (out / "metrics.csv").write_text(",".join(row) + "\n" + ",".join(str(v) for v in row.values()) + "\n")
        latest = None
        for agent in self.agents:
            rec = agent.db.get(agent.id, MAP_KEY) if agent.kind == "aerial" else None
            if rec is not None and (latest is None or rec.seq > latest.seq):
                latest = rec
        if latest is not None:
            (out / "map_final.bin").write_bytes(latest.payload)
