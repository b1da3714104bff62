"""Deterministic lockstep simulation.

Every tick runs a fixed order: kinematics, noisy odometry, the team's
sensing pass on scan ticks, per-agent autonomy in ascending robot id,
event logging, pairwise gossip syncs over the fixed-range communication
topology. The sensing pass is staged for the whole ground team: it casts
every robot's scan and bins it in one call each, then runs each robot's
``sense`` (its filter update) in ascending id, then puts the scans of the
robots whose scan or belief changed into their local grids in one
``tracker.integrate_scans`` call. A scan reads only the truth and the
robot's true pose, which are fixed once kinematics has run, so each robot
finds its own scan and observation kept on the truth. Each stage of a robot
reads only that robot's state, and its map ingest, mission and tracker run
after it in its autonomy, so the staged order gives what running each
robot's stages back to back gives. All randomness flows
from counter-based Philox streams keyed by (master seed, robot, purpose),
so identical (config, seed) reproduce byte-identical event logs. The
ground robots share one decode of each map record and the planning
products built from it alone (``TeamMaps``). The aerial robot publishes a
map record only when its map has changed.
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from semteam import aerial as am
from semteam import gossip, localize, mission as msn, planner as pln, tracker as trk
from semteam.config import ConfigError, ScenarioConfig
from semteam.geometry import wrap_angle
from semteam.standard import build_standard_world
from semteam.world import Scan, SemanticGridMap, WorldModel, ground_scan, ground_scans, load_world


def rng_stream(master_seed: int, robot_id: int, purpose: str) -> np.random.Generator:
    """Independent counter-based stream per (robot, purpose)."""
    tag = int.from_bytes(hashlib.sha256(purpose.encode()).digest()[:4], "little")
    seq = np.random.SeedSequence((master_seed, robot_id, tag))
    return np.random.Generator(np.random.Philox(seq))


# the aerial robot
FOV_HALF_ANGLE = math.radians(45.0)  # of its camera
KEYFRAME_THRESHOLD = 5.0  # m flown between keyframes
SWEEP_MARGIN = 10.0  # m between the sweep's turns and the world edge

# the ground robots
SCAN_BEAMS = 36
SCAN_MAX_RANGE = 15.0  # m
SCAN_PERIOD_TICKS = 4
START_YAW = math.pi / 2  # of the first robot; the others face along their side of the L
START_SPACING = 3.0  # m between robots staged along one side of the L
LOCAL_GRID_SIDE = 30.0  # m, of the tracker's local obstacle grid
# sigma of (forward m, lateral m, yaw rad) per moving tick, of the wheel
# odometry and of the particle filter's process noise
ODOM_SIGMA = (0.05, 0.05, 0.01)
PROCESS_NOISE = (0.05, 0.05, 0.01)

VISIT_RADIUS = 5.0  # m, truth-side distance within which a visit reaches a target


def resolve_world(spec: str) -> WorldModel:
    if spec == "standard":
        return build_standard_world()
    return load_world(spec)


def boustrophedon(world: WorldModel, altitude: float):
    """Serpentine sweep waypoints covering the world bounds; at least two."""
    truth = world.truth
    w = truth.width * truth.resolution
    h = truth.height * truth.resolution
    side = 2.0 * altitude * math.tan(FOV_HALF_ANGLE)
    n_legs = max(1, math.ceil(w / side))
    xs = [truth.origin_x + (k + 0.5) * w / n_legs for k in range(n_legs)]
    y_lo = truth.origin_y + SWEEP_MARGIN
    y_hi = truth.origin_y + h - SWEEP_MARGIN
    pts = []
    for k, x in enumerate(xs):
        if k % 2 == 0:
            pts += [(x, y_lo), (x, y_hi)]
        else:
            pts += [(x, y_hi), (x, y_lo)]
    return pts


MAP_KEY = "map"
MAP_ORIGIN = 0  # the one aerial robot's id; a preloaded map is minted under it too
POSE_PERIOD = 10  # ticks between poses.csv rows


@dataclass(eq=False)
class MapProducts:
    """What a ground robot localizes and plans on, built from one map record
    alone: the decoded map, its particle-filter match table, its planning
    grid (free cells and clearance), its ROIs, and its roadmap. Robots that
    took the same record share one and only read it."""

    map: SemanticGridMap
    match_table: np.ndarray
    grid: pln.TraversabilityGrid
    rois: list[msn.ROI]
    roadmap: pln.Roadmap
    vis: pln.VisibilityMap


class TeamMaps:
    """The ground team's map products, one per map record, built once and
    shared by the robots that take the record.

    Each record's products are a function of its map alone, so they are
    keyed by the record's seq, and a robot that skipped a record while cut
    off from gossip takes the same products as one that did not. The table
    holds them weakly, so an entry goes when the last robot drops it and a
    long flight with many versions keeps only what the robots hold.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.products: weakref.WeakValueDictionary[int, MapProducts] = weakref.WeakValueDictionary()

    def take(self, rec: gossip.DbRecord) -> MapProducts:
        """The products of a map record, decoded and built once for the team."""
        products = self.products.get(rec.seq)
        if products is None:
            products = self.products[rec.seq] = self._build(am.decode_snapshot(rec.payload))
        return products

    def _build(self, snap: SemanticGridMap) -> MapProducts:
        cfg = self.cfg
        table = localize.match_table(snap)
        grid = pln.extract_traversability(snap, cfg.planner.close_radius)
        rois = msn.extract_rois(
            snap, cfg.mission.cluster_radius, dilation_radius=cfg.mission.dilation_radius, grid=grid
        )
        roadmap, vis = pln.update_roadmap(grid, pln.NODE_RADIUS)
        return MapProducts(snap, table, grid, rois, roadmap, vis)


class AerialAgent:
    """Mapper that flies a looping boustrophedon sweep. It takes its GPS
    pose as exact and maps every keyframe at that pose."""

    kind = "aerial"

    def __init__(self, robot_id: int, cfg: ScenarioConfig, world: WorldModel):
        self.id = robot_id
        self.cfg = cfg
        self.world = world
        self.waypoints = boustrophedon(world, cfg.aerial.altitude)
        self.wp_index = 0
        x, y = map(float, cfg.start)
        self.true_pose = (x, y, float(cfg.aerial.altitude), 0.0)
        self.db = gossip.Database(owner=robot_id)
        self.acc = am.MapAccumulator.like(world.truth)
        self.last_kf_pose = None
        self.events: list[dict] = []

    def integrate(self, dt: float) -> None:
        x, y, altitude, yaw = self.true_pose
        tx, ty = self.waypoints[self.wp_index]
        dx, dy = tx - x, ty - y
        dist = math.hypot(dx, dy)
        step = self.cfg.aerial.speed * dt
        if dist <= step:
            self.true_pose = (tx, ty, altitude, yaw)
            self.wp_index = (self.wp_index + 1) % len(self.waypoints)
        else:
            self.true_pose = (x + dx / dist * step, y + dy / dist * step, altitude, math.atan2(dy, dx))

    def autonomy(self, tick: int) -> None:
        # a keyframe copies truth, so a complete map needs none
        if not self.acc.complete:
            pose = self.true_pose
            kf = am.maybe_create_keyframe(
                pose, self.last_kf_pose, KEYFRAME_THRESHOLD, world=self.world, fov_half_angle=FOV_HALF_ANGLE
            )
            if kf is not None:
                self.last_kf_pose = pose
                self.acc.fuse_keyframe(kf)
        if tick % self.cfg.aerial.snapshot_period_ticks == 0 and self.acc.changed:
            snap = self.acc.snapshot()
            rec = self.db.put_local(MAP_KEY, am.encode_snapshot(snap))
            self.events.append(
                {"tick": tick, "ev": "map", "robot": self.id, "version": snap.version, "seq": rec.seq}
            )


class GroundAgent:
    """Localizes in the gossiped aerial map, plans, tracks, runs missions."""

    kind = "ground"

    def __init__(self, robot_id: int, cfg: ScenarioConfig, world: WorldModel, seed: int, team_maps: TeamMaps):
        self.id = robot_id
        self.cfg = cfg
        self.world = world
        self.team_maps = team_maps

        # staging: an L around the start corner so every robot keeps nearby
        # structure in scan range while its filter converges
        idx = robot_id - cfg.n_aerial
        x, y = map(float, cfg.start)
        yaw = START_YAW
        if idx > 0:
            if idx % 2 == 1:
                x += START_SPACING * ((idx + 1) // 2)
                yaw = 0.0
            else:
                y += START_SPACING * (idx // 2)
                yaw = math.pi / 2
        self.true_pose = (x, y, yaw)
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
        guess = (x + r * math.cos(theta), y + r * math.sin(theta), yaw)
        self.particles = localize.init_filter(
            guess, cfg.localizer.n_particles, cfg.localizer.init_spread, self.filter_rng
        )
        self.believed = self.dr_pose = guess
        self.last_update = localize.UpdateInfo(ess=float(cfg.localizer.n_particles), resampled=False, diverged=False)

        self.db = gossip.Database(owner=robot_id)
        self.local_grid = trk.LocalObstacleGrid.create(LOCAL_GRID_SIDE, world.truth.resolution)
        # the last scan put in the local grid, and the belief it went in at
        self._grid_scan: Scan | None = None
        self._grid_belief: tuple[float, float, float] | None = None
        self.tracker_state: trk.TrackerState | None = None
        self.mission = msn.MissionController(robot_id=robot_id)
        self.map_seq = 0  # of the last map record taken; records start at seq 1
        self.products: MapProducts | None = None  # set with the first map
        self.backtracks = 0
        self.cancellations = 0
        self.events: list[dict] = []
        self._wp_script = self._waypoint_script()

    def _waypoint_script(self):
        m = self.cfg.mission
        if m.mode != "waypoint" or not m.waypoints:
            return None
        idx = (self.id - self.cfg.n_aerial) % len(m.waypoints)
        return [tuple(p) for p in m.waypoints[idx]]

    @property
    def map(self) -> SemanticGridMap | None:
        """The map of the last record taken."""
        return self.products.map if self.products is not None else None

    # ---- engine-called phases -------------------------------------------

    def integrate(self, dt: float) -> None:
        v, w = self.command
        x, y, yaw = self.true_pose
        nx, ny = x + v * math.cos(yaw) * dt, y + v * math.sin(yaw) * dt
        truth = self.world.truth
        # the map edge stops the robot as a wall would: it turns in place
        if not truth.in_bounds(*truth.cell_of(nx, ny)):
            nx, ny, v = x, y, 0.0
        self.true_pose = (nx, ny, wrap_angle(yaw + w * dt))
        self.distance += abs(v) * dt
        self.moving = abs(v) > 1e-6 or abs(w) > 1e-6

    def odometry(self, prev_pose: tuple[float, float, float]) -> None:
        px, py, pyaw = prev_pose
        x, y, yaw = self.true_pose
        dxw, dyw = x - px, y - py
        c, s = math.cos(pyaw), math.sin(pyaw)
        forward, lateral, dyaw = c * dxw + s * dyw, -s * dxw + c * dyw, yaw - pyaw
        # wheel odometry reports zero when parked; zero-mean Gaussian noise
        # of ODOM_SIGMA accompanies motion
        if self.moving:
            sx, sy, syaw = ODOM_SIGMA
            forward += self.odom_rng.normal(0.0, sx)
            lateral += self.odom_rng.normal(0.0, sy)
            dyaw += self.odom_rng.normal(0.0, syaw)
        delta = localize.OdomDelta(forward=forward, lateral=lateral, dyaw=dyaw)
        # dead reckoning integrates the identical noisy stream
        x, y, yaw = self.dr_pose
        c, s = math.cos(yaw), math.sin(yaw)
        self.dr_pose = (x + (c * forward - s * lateral), y + (s * forward + c * lateral), yaw + dyaw)
        # process noise accompanies motion; re-diffusing a parked cloud only
        # impoverishes the particle set
        noise = PROCESS_NOISE if self.moving else (0.0, 0.0, 0.0)
        particles = localize.predict(self.particles, delta, noise, self.filter_rng)
        # a parked set at rest comes back as it is; the belief was taken
        # from it when predict first returned it, and has not moved since
        if particles is not self.particles:
            self.particles = particles
            self.believed = localize.weighted_mean_pose(particles)

    def sense(self, tick: int) -> bool:
        """A scan tick's sensing, up to the local grid: take the kept scan
        and observation, and run the motion-gated filter update. Returns
        whether the local grid must take the scan; the engine puts it in
        with the other robots' in one pass."""
        truth = self.world.truth
        scan = ground_scan(truth, self.true_pose, SCAN_MAX_RANGE, SCAN_BEAMS)
        obs = localize.PolarObservation.from_scan(scan, max_range=SCAN_MAX_RANGE, free_margin=truth.resolution)
        # measurement updates are gated on motion: stationary re-scans of
        # the same scene add no information and let resampling noise
        # collapse the cloud onto corridor aliases
        if self.map is not None and self.moving:
            self.particles, self.believed, self.last_update = localize.update_and_resample(
                self.particles,
                obs,
                self.map,
                self.cfg.localizer.temperature,
                self.filter_rng,
                self.products.match_table,
            )
        # the grid takes each cell the scan touches by assignment, and
        # recentering on the same pose does nothing, so the same scan at
        # the same belief leaves it as it is (a 0.0 and a -0.0 belief put
        # the same cells in the grid)
        if scan is self._grid_scan and self.believed == self._grid_belief:
            return False
        self._grid_scan, self._grid_belief = scan, self.believed
        return True

    def autonomy(self, tick: int) -> None:
        """Everything after the local grid: map ingest, mission and tracker."""
        cfg = self.cfg
        self._ingest_map(tick)
        if self._wp_script is not None:
            self._waypoint_mission(tick)
        elif tick < cfg.mission.warmup_ticks:
            self._shakeout(tick)
        else:
            if tick == cfg.mission.warmup_ticks:  # the first mission tick ends the shake-out leg
                self.tracker_state = None
            self._roi_mission(tick)

        if self.tracker_state is not None and self.tracker_state.phase not in ("cancelled", "done"):
            before_bt = self.tracker_state.n_backtracks
            before_cx = self.tracker_state.n_cancellations
            self.command, self.tracker_state = trk.step(self.tracker_state, self.local_grid, self.believed)
            self.backtracks += self.tracker_state.n_backtracks - before_bt
            self.cancellations += self.tracker_state.n_cancellations - before_cx
        else:
            self.command = (0.0, 0.0)

    # ---- internals -------------------------------------------------------

    def _ingest_map(self, tick: int) -> None:
        rec = self.db.get(MAP_ORIGIN, MAP_KEY)
        if rec is None or rec.seq == self.map_seq:
            return
        # every record has content that no earlier one had
        self.map_seq = rec.seq
        self.products = self.team_maps.take(rec)
        self.events.append(
            {
                "tick": tick,
                "ev": "map_ingested",
                "robot": self.id,
                "version": self.map.version,
                "nodes": len(self.products.roadmap.nodes),
                "rois": len(self.products.rois),
            }
        )

    def _plan_to(self, *goal_cells):
        """Plan to the cheapest cell on the held products; only their ROIs call this."""
        start = self.map.cell_of(*self.believed[:2])
        if not self.map.in_bounds(*start):
            return pln.PlanResult(ok=False)
        p = self.products
        return pln.plan(p.roadmap, p.vis, p.grid, start, *goal_cells)

    def _roi_mission(self, tick: int) -> None:
        tracker_phase = self.tracker_state.phase if self.tracker_state is not None else None
        events = self.mission.tick(
            tick,
            self.db,
            self.products.rois if self.products is not None else [],
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
        """The ``metrics.csv`` row: every field, floats rounded; a run that
        did not finish has an empty ``duration_s``."""
        row = asdict(self)
        for name, digits in METRIC_DIGITS.items():
            row[name] = "" if row[name] is None else round(row[name], digits)
        return row


#: decimal digits of the rounded ``metrics.csv`` columns
METRIC_DIGITS = {
    "duration_s": 3,
    "total_distance_m": 3,
    "loc_err_mean": 4,
    "loc_err_max": 4,
    "loc_err_early_mean": 4,
    "loc_err_late_mean": 4,
    "dr_err_late_mean": 4,
    "db_records_mean": 2,
}


class Simulation:
    def __init__(self, config: ScenarioConfig, world: WorldModel | None = None):
        config.validate()
        self.cfg = config
        self.world = world if world is not None else resolve_world(config.world)
        self.dt = config.tick_seconds
        self.tick_count = 0

        self.team_maps = TeamMaps(config)
        self.agents: list = [AerialAgent(rid, config, self.world) for rid in range(config.n_aerial)]
        self.ground_agents = [
            GroundAgent(config.n_aerial + k, config, self.world, config.seed, self.team_maps)
            for k in range(config.n_ground)
        ]
        self.agents += self.ground_agents
        truth = self.world.truth
        off = [a for a in self.ground_agents if not truth.in_bounds(*truth.cell_of(*a.true_pose[:2]))]
        if off:
            raise ConfigError([f"ground robot {a.id} stages at {a.true_pose[:2]}, outside the world" for a in off])

        if config.initial_map == "full":
            # the aerial robot's own map starts complete, and the preload is
            # its first snapshot: it never publishes another
            truth = self.world.truth
            acc = self.agents[0].acc if config.n_aerial else am.MapAccumulator.like(truth)
            acc.fuse_keyframe(am.full_view_keyframe(truth))
            rec = gossip.DbRecord(origin=MAP_ORIGIN, key=MAP_KEY, seq=1, payload=am.encode_snapshot(acc.snapshot()))
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
        self._synced: dict[tuple[int, int], tuple[int, int]] = {}  # pair -> db versions after its last sync

        self.events: list[str] = []
        self.pose_rows: list[str] = []
        self.loc_err: dict[int, list[float]] = {a.id: [] for a in self.ground_agents}
        self.dr_err: dict[int, list[float]] = {a.id: [] for a in self.ground_agents}

    def tick(self) -> None:
        t = self.tick_count
        # (1) kinematics
        prev = [a.true_pose for a in self.ground_agents]
        for agent in self.agents:
            agent.integrate(self.dt)
        # (2) noisy odometry
        for agent, pose in zip(self.ground_agents, prev):
            agent.odometry(pose)
        # (3) the team's sensing pass: each robot's sense finds the scan
        # and observation kept here, then its filter update runs, and the
        # robots whose scan or belief changed take the scan into their local
        # grids in one pass
        if t % SCAN_PERIOD_TICKS == 0 and self.ground_agents:
            truth = self.world.truth
            scans = ground_scans(truth, [a.true_pose for a in self.ground_agents], SCAN_MAX_RANGE, SCAN_BEAMS)
            localize.PolarObservation.from_scans(scans, max_range=SCAN_MAX_RANGE, free_margin=truth.resolution)
            fresh = [a for a in self.ground_agents if a.sense(t)]
            if fresh:
                trk.integrate_scans(
                    [a.local_grid for a in fresh], [a._grid_scan for a in fresh],
                    [a._grid_belief for a in fresh], SCAN_MAX_RANGE,
                )
        # (4) autonomy, ascending id
        for agent in self.agents:
            agent.autonomy(t)
        for agent in self.agents:
            for ev in agent.events:
                self._log(ev)
                if ev["ev"] == "visited":
                    self._check_true_visit(ev, agent)
            agent.events.clear()
        # (5) communication topology + syncs; a pair leaves a sync with equal
        # replicas, so while neither has changed since, a sync would ship
        # nothing and is skipped
        for i, a in enumerate(self.agents):
            for b in self.agents[i + 1 :]:
                dx = a.true_pose[0] - b.true_pose[0]
                dy = a.true_pose[1] - b.true_pose[1]
                if math.hypot(dx, dy) <= self.cfg.comm_range:
                    versions = (a.db.version, b.db.version)
                    if self._synced.get((a.id, b.id)) == versions:
                        continue
                    applied_b, applied_a = gossip.sync_pair(a.db, b.db)
                    self._synced[a.id, b.id] = (a.db.version, b.db.version)
                    if applied_b or applied_a:
                        self._log(
                            {"tick": t, "ev": "sync", "a": a.id, "b": b.id,
                             "applied_a": applied_a, "applied_b": applied_b}
                        )
        # (6) per-tick bookkeeping
        for agent in self.ground_agents:
            x, y, yaw = agent.true_pose
            bx, by, byaw = agent.believed
            rx, ry, ryaw = agent.dr_pose
            self.loc_err[agent.id].append(math.hypot(bx - x, by - y))
            self.dr_err[agent.id].append(math.hypot(rx - x, ry - y))
            if t % POSE_PERIOD == 0:
                self.pose_rows.append(
                    f"{t},{agent.id},{bx:.4f},{by:.4f},{byaw:.5f},{x:.4f},{y:.4f},{yaw:.5f},"
                    f"{rx:.4f},{ry:.4f},{ryaw:.5f},{agent.last_update.ess:.2f},{int(agent.last_update.diverged)}"
                )
        self.tick_count += 1

    def _check_true_visit(self, ev: dict, agent: GroundAgent) -> None:
        x, y, _ = agent.true_pose
        res = self.world.truth.resolution
        ox, oy = self.world.truth.origin_x, self.world.truth.origin_y
        for target in self.true_targets:
            if target.roi_id in self.visited_targets:
                continue
            spots = list(target.member_cells)
            if target.goal_cell is not None:
                spots.append(target.goal_cell)
            if any(
                math.hypot((cx + 0.5) * res + ox - x, (cy + 0.5) * res + oy - y) <= VISIT_RADIUS
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
            comm_range=float(self.cfg.comm_range),
            ticks=self.tick_count,
            duration_s=self.duration_s,
            targets_visited=len(self.visited_targets),
            n_targets=len(self.true_targets),
            total_distance_m=sum((a.distance for a in grounds), 0.0),
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
        (out / "events.jsonl").write_bytes("".join(ev + "\n" for ev in self.events).encode("ascii"))
        header = "tick,robot,bel_x,bel_y,bel_yaw,true_x,true_y,true_yaw,dr_x,dr_y,dr_yaw,ess,diverged"
        (out / "poses.csv").write_text("".join(row + "\n" for row in [header, *self.pose_rows]))
        row = report.metrics_row()
        (out / "metrics.csv").write_text(",".join(row) + "\n" + ",".join(str(v) for v in row.values()) + "\n")
        rec = self.agents[0].db.get(MAP_ORIGIN, MAP_KEY) if self.cfg.n_aerial else None
        if rec is not None:
            (out / "map_final.bin").write_bytes(rec.payload)
