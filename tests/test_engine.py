"""Engine and scenario config: determinism, output files, config loading."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semteam
from semteam import aerial, engine, gossip, localize, mission, planner, tracker
from semteam.aerial import MapAccumulator, decode_snapshot, encode_snapshot, full_view_keyframe
from semteam.config import ConfigError, ScenarioConfig
from semteam.engine import MAP_KEY, MAP_ORIGIN, POSE_PERIOD, RunReport, Simulation, resolve_world
from semteam.gossip import DbRecord
from semteam.standard import build_standard_world
from semteam.world import SemanticClass, SemanticGridMap, WorldModel, world_to_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import spans  # noqa: E402

STANDARD_WORLD_SHA256 = "1366f5bc4fa144b4290d116ab954e5a4a275b9a418b42dd851c9668a6d5c5913"

#: sha256 of each output file of the small-world run at seed 0
SMALL_RUN_SHA256 = {
    "events.jsonl": "765289d3c4a8038d535bbe12cccfafc31dde2eb29d2f9da84c97b3a0975fa9e2",
    "poses.csv": "2f5ab2f19d074ab5c820ef84f07b16665c515abd88e5a1cf36d19f1943588860",
    "metrics.csv": "17d837515bd41476d480b0d0b7080927ec5dfdc36a2fea1ee947bb0c3e44e763",
    "map_final.bin": "5270c863b0b0d158d8dcbbba41bdbbeed4cbf3afa73044ebd1a85e96d8bf5b1f",
}


#: config keys that are gone, each with its last default: ``planner.lam``,
#: and the fixed robot and sensor setup, whose values are module constants
REMOVED_KEYS = {
    "planner.lam": 1.0,
    "start_yaw": math.pi / 2,
    "aerial.fov_half_angle_deg": 45.0,
    "aerial.keyframe_threshold": 5.0,
    "aerial.waypoints": None,
    "aerial.loop": True,
    "aerial.sweep_margin": 10.0,
    "ground": {},
    "ground.v_max": 2.0,
    "ground.yaw_rate_max": 1.5,
    "ground.scan_beams": 36,
    "ground.scan_max_range": 15.0,
    "ground.scan_period_ticks": 4,
    "ground.odom_sigma": [0.05, 0.05, 0.01],
    "ground.start_spacing": 3.0,
    "ground.local_grid_side": 30.0,
    "localizer.unknown_cost": 0.4,
    "localizer.ess_fraction": 0.5,
    "localizer.azimuth_bins": 36,
    "localizer.range_bins": 10,
    "localizer.process_noise": [0.05, 0.05, 0.01],
    "planner.node_radius": 25.0,
    "tracker": {},
    "tracker.k_yaw": 2.0,
    "tracker.align_threshold": 0.6,
    "tracker.arrival_tolerance": 1.5,
    "tracker.search_radius": 3.0,
    "mission.visit_radius": 5.0,
    "mission.reselect_period": 100,
}


def small_world(n=40):
    """Open road square with a vegetation border, two buildings as landmarks
    and one 2x2 vehicle."""
    cls = np.full((n, n), int(SemanticClass.ROAD), dtype=np.int8)
    cls[:2, :] = cls[-2:, :] = cls[:, :2] = cls[:, -2:] = SemanticClass.VEGETATION
    cls[12:18, 12:18] = SemanticClass.BUILDING
    cls[24:28, 6:9] = SemanticClass.BUILDING
    cls[28:30, 28:30] = SemanticClass.VEHICLE
    grid = SemanticGridMap(
        origin_x=0.0, origin_y=0.0, resolution=1.0, width=n, height=n,
        classes=cls,
        observed=np.ones((n, n), dtype=bool), version=1,
    )
    return WorldModel.from_map(grid)


def small_config(**overrides):
    """Two ground robots that finish the small world's mission in about 250 ticks."""
    data = {
        "max_ticks": 300,
        "start": [6.0, 6.0],
        "initial_map": "full",
        "aerial": {"altitude": 15.0, "speed": 3.0},
        "mission": {"warmup_ticks": 50},
        "localizer": {"n_particles": 100, "init_error": 1.0, "init_spread": [1.0, 1.0, 0.1]},
    }
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


class TestRun:
    @pytest.fixture(scope="class")
    def two_runs(self, tmp_path_factory):
        cfg = small_config()
        outs = []
        for name in ("a", "b"):
            out = tmp_path_factory.mktemp(name)
            report = Simulation(cfg, world=small_world()).run(out)
            outs.append((out, report))
        return cfg, outs

    def test_same_config_and_seed_byte_identical(self, two_runs):
        _, ((a, _), (b, _)) = two_runs
        for name in ("events.jsonl", "poses.csv", "metrics.csv", "map_final.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_traced_run_logs_the_same_events(self, two_runs, tmp_path):
        # the benchmark's tracer wraps functions at the names it patches and
        # reads their results; a run under it must still reach them all
        cfg, ((plain, _), _) = two_runs
        tracer = spans.Tracer()
        spans.install_semteam(tracer)
        try:
            Simulation(cfg, world=small_world()).run(tmp_path)
        finally:
            tracer.uninstall()
        assert (tmp_path / "events.jsonl").read_bytes() == (plain / "events.jsonl").read_bytes()
        summary = tracer.summary()
        for name in ("planner.plan", "planner.update_roadmap", "mission.extract_rois"):
            assert summary.get(name, {}).get("calls", 0) > 0, name
        # every traversability build takes one distance transform, whatever
        # name it was called by: the truth's and the preloaded map's
        builds = summary["planner.distance_transform"]["calls"]
        assert builds == 2
        assert summary["planner.extract_traversability"]["calls"] == builds

    @staticmethod
    def load_tool(name):
        """Import ``tools/<name>.py`` without running it."""
        path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        tool = importlib.util.module_from_spec(spec)
        saved = list(sys.path)
        try:
            spec.loader.exec_module(tool)
        finally:
            sys.path[:] = saved
        return tool

    def test_page_fault_tool_wraps_functions_that_exist(self):
        # tools/page_faults.py wraps module attributes by the names callers
        # look them up by; each must still be a callable of its module
        tool = self.load_tool("page_faults")
        assert ("planner", "plan") in tool.WRAPPED
        for mod, attr in tool.WRAPPED:
            assert callable(getattr(importlib.import_module(f"semteam.{mod}"), attr, None)), (mod, attr)

    def test_setup_sample_tool_times_the_benchmarks_set_up_child(self):
        tool = self.load_tool("setup_samples")
        cfg = tool.workloads.config("team2", tool.workloads.REFERENCE_SEED)
        got = tool.sample(cfg)
        assert set(got) == {"setup_s", "scaled_s", "minflt"}
        assert got["setup_s"] > 0 and got["scaled_s"] > 0
        # the whole set-up process: imports, world and agents, and the burst
        assert type(got["minflt"]) is int and got["minflt"] > 1000

    def test_kernel_time_tool_times_functions_that_exist(self):
        # tools/kernel_times.py patches and replays kernels by these names
        tool = self.load_tool("kernel_times")
        assert [attr for _, attr in tool.KERNELS] == [
            "match_costs", "predict", "_select_local_goal_ex", "ground_scans", "integrate_scans"
        ]
        for mod, attr in tool.KERNELS:
            assert callable(getattr(importlib.import_module(f"semteam.{mod}"), attr, None)), (mod, attr)

    @pytest.mark.parametrize("name", sorted(SMALL_RUN_SHA256))
    def test_output_matches_golden_digest(self, two_runs, name):
        _, ((out, _), _) = two_runs
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == SMALL_RUN_SHA256[name]

    def test_mission_completes_before_tick_cap(self, two_runs):
        cfg, ((out, report), _) = two_runs
        assert report.targets_visited == report.n_targets == 1
        assert report.ticks < cfg.max_ticks
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        kinds = {ev["ev"] for ev in events}
        assert {"sync", "map_ingested", "claimed", "visited", "target_reached", "all_targets_visited"} <= kinds
        # the preload is the only map record: the aerial robot's map never
        # changes after it
        assert "map" not in kinds
        assert report.duration_s == report.ticks * cfg.tick_seconds

    def test_pose_rows_every_pose_period(self, two_runs):
        _, ((out, report), _) = two_runs
        rows = (out / "poses.csv").read_text().splitlines()[1:]
        ticks = sorted({int(row.split(",")[0]) for row in rows})
        assert ticks == list(range(0, report.ticks, POSE_PERIOD))
        assert len(rows) == 2 * len(ticks)

    def test_out_dir_files_follow_their_schema(self, two_runs):
        _, ((out, _), _) = two_runs
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert events and all(type(ev) is dict for ev in events)
        assert all(type(ev["tick"]) is int and type(ev["ev"]) is str for ev in events)
        ticks = [ev["tick"] for ev in events]
        assert ticks == sorted(ticks)
        with open(out / "poses.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == (
            "tick,robot,bel_x,bel_y,bel_yaw,true_x,true_y,true_yaw,dr_x,dr_y,dr_yaw,ess,diverged".split(",")
        )
        assert rows and all(len(row) == 13 and int(row[0]) % POSE_PERIOD == 0 for row in rows)
        with open(out / "metrics.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == [fld.name for fld in dataclasses.fields(RunReport)]
        assert len(rows) == 1 and len(rows[0]) == len(header)
        snap = decode_snapshot((out / "map_final.bin").read_bytes())
        assert snap.observed.shape == snap.classes.shape == (snap.height, snap.width)

    def test_written_config_loads_back(self, two_runs):
        cfg, ((out, _), _) = two_runs
        assert ScenarioConfig.load(out / "config.json") == cfg


class TestReplicas:
    @pytest.fixture(scope="class")
    def stepped(self):
        """A small-world run stepped tick by tick, with the UNKNOWN-cell count
        of every map a ground robot holds after each tick."""
        cfg = small_config()
        sim = Simulation(cfg, world=small_world())
        unknown = []
        while sim.tick_count < cfg.max_ticks and not sim.mission_complete():
            sim.tick()
            unknown += [
                int((g.map.classes == SemanticClass.UNKNOWN).sum()) for g in sim.ground_agents if g.map is not None
            ]
        return sim, unknown

    def test_full_preload_is_never_replaced_by_a_partial_map(self, stepped):
        sim, unknown = stepped
        assert len(unknown) == 2 * sim.tick_count
        assert max(unknown) == 0

    def test_every_replica_holds_only_map_and_claims(self, stepped):
        sim, _ = stepped
        for agent in sim.agents:
            assert {key for _, key in agent.db.records} == {"map", "claims"}, agent.id


def test_claims_view_cache_matches_a_fresh_merge():
    """On every mission tick of a 3-robot run whose gossip partitions the
    team, the claims view the mission reads equals a fresh merge of the
    robot's replica."""
    cfg = small_config(n_ground=3, comm_range=8.0)
    sim = Simulation(cfg, world=small_world())
    raw = mission.MissionController._claims_view
    checks = []

    def claims_view(ctrl, db):
        view = raw(ctrl, db)
        checks.append(view == mission.merged_claim_view(db))
        return view

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mission.MissionController, "_claims_view", claims_view)
        sim.run()
    assert sim.mission_complete()
    mission_ticks = sim.tick_count - cfg.mission.warmup_ticks
    assert len(checks) == 3 * mission_ticks and all(checks)
    # the robots claimed apart and met later
    assert sum(json.loads(line)["ev"] == "claim_released" for line in sim.events) >= 1


def test_preloaded_map_without_an_aerial_robot(tmp_path):
    world = small_world()
    sim = Simulation(small_config(n_aerial=0), world=world)
    report = sim.run(tmp_path)
    assert report.duration_s is not None
    for g in sim.ground_agents:
        assert g.db.get(MAP_ORIGIN, MAP_KEY).seq == g.map_seq == 1
        assert np.array_equal(g.map.classes, world.truth.classes) and g.map.observed.all()
    assert not (tmp_path / "map_final.bin").exists()


def test_a_run_without_events_or_pose_rows_writes_well_formed_files(tmp_path):
    # each event and pose row ends its own line: an empty log is an empty
    # file, and a run without ground robots has just the poses header
    Simulation(ScenarioConfig.from_dict({"n_ground": 0, "n_aerial": 0, "max_ticks": 5})).run(tmp_path)
    assert (tmp_path / "events.jsonl").read_bytes() == b""
    poses = (tmp_path / "poses.csv").read_text()
    assert poses.startswith("tick,robot,") and poses.count("\n") == 1 and poses.endswith("\n")
    with open(tmp_path / "metrics.csv", newline="") as f:
        (row,) = csv.DictReader(f)
    floats = [fld.name for fld in dataclasses.fields(RunReport) if fld.type == "float"]
    assert "total_distance_m" in floats
    assert {name: row[name] for name in floats} == {name: "0.0" for name in floats} | {"comm_range": "60.0"}


def test_metrics_print_an_integer_comm_range_as_a_float(tmp_path):
    # the column reads as the default's does, however the JSON spelled it
    cfg = small_config(max_ticks=3, comm_range=60)
    assert cfg.comm_range == 60 and isinstance(cfg.comm_range, int)
    report = Simulation(cfg, world=small_world()).run(tmp_path)
    assert isinstance(report.comm_range, float)
    with open(tmp_path / "metrics.csv", newline="") as f:
        (row,) = csv.DictReader(f)
    assert row["comm_range"] == "60.0"


class NeverComplete(MapAccumulator):
    """An accumulator that never reports complete, so its robot keeps
    taking keyframes for the whole run."""

    complete = property(lambda self: False, lambda self, value: None)


class TestCompleteAerialMap:
    @staticmethod
    def flight(monkeypatch, acc_type=MapAccumulator, **overrides):
        """An aerial-only run of the standard world, whose map completes at
        tick 440. Returns the simulation, for each ``maybe_create_keyframe``
        call whether the map was already complete, and the sha256 of every
        published map payload."""
        cfg = ScenarioConfig.from_dict({"n_ground": 0, "max_ticks": 600} | overrides)
        sim = Simulation(cfg)
        robot = sim.agents[0]
        if acc_type is not MapAccumulator:
            robot.acc = acc_type.like(sim.world.truth)
        seen_complete, payloads = [], []
        make, encode = aerial.maybe_create_keyframe, aerial.encode_snapshot

        def maybe_create_keyframe(*args, **kwargs):
            seen_complete.append(bool(robot.acc.observed.all()))
            return make(*args, **kwargs)

        def encode_snapshot(grid):
            data = encode(grid)
            payloads.append(hashlib.sha256(data).hexdigest())
            return data

        with monkeypatch.context() as mp:
            mp.setattr(aerial, "maybe_create_keyframe", maybe_create_keyframe)
            mp.setattr(aerial, "encode_snapshot", encode_snapshot)
            sim.run()
        return sim, seen_complete, payloads

    def test_no_keyframe_after_the_map_completes(self, monkeypatch):
        sim, seen_complete, _ = self.flight(monkeypatch)
        assert sim.tick_count == 600 and sim.agents[0].acc.complete
        assert len(seen_complete) == 440 and not any(seen_complete)

    def test_every_published_map_equals_a_never_complete_twins(self, monkeypatch):
        sim, _, payloads = self.flight(monkeypatch)
        twin, twin_seen, twin_payloads = self.flight(monkeypatch, NeverComplete)
        assert sum(twin_seen) == 160  # the twin kept keyframing after tick 440
        assert len(payloads) == 6 and payloads == twin_payloads
        assert sim.events == twin.events
        assert sim.agents[0].acc.classes.tobytes() == twin.agents[0].acc.classes.tobytes()

    def test_a_preloaded_map_takes_no_keyframe(self, monkeypatch):
        sim, seen_complete, payloads = self.flight(monkeypatch, initial_map="full", max_ticks=250)
        assert seen_complete == []
        # the preload counts as published, and the map never changes after it
        assert payloads == [] and sim.events == []

    def test_every_published_record_shows_cells_no_earlier_one_did(self, monkeypatch):
        shown = []
        encode = aerial.encode_snapshot

        def encode_snapshot(grid):
            shown.append(grid.observed)
            return encode(grid)

        monkeypatch.setattr(aerial, "encode_snapshot", encode_snapshot)
        cfg = ScenarioConfig.from_dict({"n_ground": 0, "max_ticks": 600, "aerial": {"snapshot_period_ticks": 2}})
        sim = Simulation(cfg)
        sim.run()
        assert sim.agents[0].acc.complete and len(shown) > 50
        seen = np.zeros_like(shown[0])
        for observed in shown:
            assert (observed & ~seen).any()
            seen |= observed


def roadmap_state_hash(roadmap, vis) -> str:
    """sha256 over nodes, edges with weights, adjacency, visible cells and cover."""
    state = (
        sorted(roadmap.nodes.items()),
        sorted(roadmap.edges.items()),
        sorted((n, sorted(a)) for n, a in roadmap.adj.items()),
        sorted((n, sorted(c)) for n, c in vis.node_cells.items()),
        np.flatnonzero(vis.cover).tolist(),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


def cache_holds_only_held(sim) -> bool:
    """Every cached set of products is held by some ground robot."""
    held = [g.products for g in sim.ground_agents]
    return all(any(p is v for p in held) for v in sim.team_maps.products.values())


class TestTeamMaps:
    """Ground robots share one decode and one set of products per map record."""

    @staticmethod
    def map_records(truth, bounds=(14, 26, 40)):
        """Records of three growing versions: columns below each bound seen."""
        records = {}
        for seq, bound in enumerate(bounds, start=1):
            observed = np.zeros(truth.classes.shape, dtype=bool)
            observed[:, :bound] = True
            snap = SemanticGridMap(
                origin_x=truth.origin_x, origin_y=truth.origin_y, resolution=truth.resolution,
                width=truth.width, height=truth.height,
                classes=np.where(observed, truth.classes, np.int8(SemanticClass.UNKNOWN)).astype(np.int8),
                observed=observed, version=seq,
            )
            records[seq] = DbRecord(origin=0, key=MAP_KEY, seq=seq, payload=encode_snapshot(snap))
        return records

    def test_a_skipped_record_leaves_the_same_products(self):
        world = small_world()
        cfg = small_config(n_ground=3, initial_map="none")
        sim = Simulation(cfg, world=world)
        records = self.map_records(world.truth)

        def solo(seq):
            """A fresh build of one record's products, outside the team."""
            snap = decode_snapshot(records[seq].payload)
            grid = planner.extract_traversability(snap, 0)
            rois = mission.extract_rois(
                snap, cfg.mission.cluster_radius, dilation_radius=cfg.mission.dilation_radius, grid=grid
            )
            return localize.match_table(snap), grid, rois, planner.update_roadmap(grid, planner.NODE_RADIUS)

        a, b, c = sim.ground_agents
        # a and c take every version; b misses version 2 while out of range
        steps = [(a, 1), (b, 1), (c, 1), (a, 2), (c, 2), (b, 3), (a, 3), (c, 3)]
        taken = []
        for tick, (robot, seq) in enumerate(steps):
            robot.db.merge([records[seq]])
            robot._ingest_map(tick)
            assert robot.map_seq == robot.map.version == seq
            assert all(g.products is robot.products for g in (a, b, c) if g.map_seq == seq), tick
            assert cache_holds_only_held(sim), tick
            p = robot.products
            taken.append((seq, p.match_table, p.grid, p.rois, roadmap_state_hash(p.roadmap, p.vis)))
        assert a.products is b.products is c.products
        for seq, table, grid, rois, state in taken:
            want_table, want_grid, want_rois, (rm, vis) = solo(seq)
            assert np.array_equal(table, want_table) and rois == want_rois, seq
            assert np.array_equal(grid.free, want_grid.free) and np.array_equal(grid.dist, want_grid.dist), seq
            assert state == roadmap_state_hash(rm, vis), seq

    @pytest.fixture(scope="class")
    def loop_flight(self):
        """Three ground robots in range of each other and of a looping aerial
        robot that publishes a map version every other tick. The cache is
        checked after every tick, and planner, mission, decode and match-table
        calls are counted."""
        cfg = small_config(
            n_ground=3, initial_map="none", comm_range=100.0,
            aerial={"altitude": 15.0, "speed": 3.0, "snapshot_period_ticks": 2},
        )
        sim = Simulation(cfg, world=small_world())
        calls = {"update_roadmap": 0, "extract_rois": 0, "decode_snapshot": 0, "match_table": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(planner, "update_roadmap", counted(planner, "update_roadmap"))
            mp.setattr(mission, "extract_rois", counted(mission, "extract_rois"))
            mp.setattr(aerial, "decode_snapshot", counted(aerial, "decode_snapshot"))
            mp.setattr(localize, "match_table", counted(localize, "match_table"))
            consistent = []
            while sim.tick_count < cfg.max_ticks and not sim.mission_complete():
                sim.tick()
                consistent.append(cache_holds_only_held(sim))
        events = [json.loads(line) for line in sim.events]
        return sim, events, calls, consistent

    def test_one_decode_and_build_per_published_record(self, loop_flight):
        sim, events, calls, _ = loop_flight
        ingested = [(ev["robot"], ev["version"]) for ev in events if ev["ev"] == "map_ingested"]
        versions = sorted({v for _, v in ingested})
        assert len(versions) >= 5
        # every robot took every one of them, yet each was decoded and built once
        assert sorted(ingested) == sorted((g.id, v) for g in sim.ground_agents for v in versions)
        published = [ev["version"] for ev in events if ev["ev"] == "map" and ev["tick"] < sim.tick_count - 1]
        assert published == versions
        for name in ("decode_snapshot", "match_table", "extract_rois", "update_roadmap"):
            assert calls[name] == len(versions), name

    def test_cache_holds_only_what_robots_hold(self, loop_flight):
        sim, _, _, consistent = loop_flight
        assert len(consistent) == sim.tick_count and all(consistent)
        assert len(sim.team_maps.products) == 1


class TestMapEdge:
    def test_robots_stay_on_a_map_without_border(self, tmp_path):
        """On an all-road map with no border the shake-out leg heads off the
        map; its edge stops the robot, and no scan is taken off the map."""
        n = 6
        truth = SemanticGridMap(
            origin_x=0.0, origin_y=0.0, resolution=1.0, width=n, height=n,
            classes=np.full((n, n), int(SemanticClass.ROAD), dtype=np.int8),
            observed=np.ones((n, n), dtype=bool), version=1,
        )
        cfg = ScenarioConfig.from_dict(
            {"max_ticks": 300, "start": [1.5, 1.5], "initial_map": "full", "aerial": {"altitude": 5.0}}
        )
        sim = Simulation(cfg, world=WorldModel.from_map(truth))
        sim.run(tmp_path)
        assert sim.tick_count == 300
        with open(tmp_path / "poses.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 300 // POSE_PERIOD * cfg.n_ground
        for row in rows:
            assert truth.in_bounds(*truth.cell_of(float(row["true_x"]), float(row["true_y"]))), row

    @pytest.mark.parametrize(
        "start, staged",
        [
            ([500, 23], {1: (500.0, 23.0), 2: (503.0, 23.0)}),
            ([-5, 23], {1: (-5.0, 23.0), 2: (-2.0, 23.0)}),
            ([199.5, 23], {2: (202.5, 23.0)}),
        ],
    )
    def test_a_start_that_stages_a_robot_off_the_world_is_a_config_error(self, start, staged):
        with pytest.raises(ConfigError) as err:
            Simulation(ScenarioConfig.from_dict({"start": start}))
        problems = [f"ground robot {rid} stages at {xy}, outside the world" for rid, xy in staged.items()]
        assert err.value.problems == problems

    def test_a_start_that_stages_every_robot_on_the_world_builds(self):
        sim = Simulation(ScenarioConfig.from_dict({"start": [196.5, 23]}))
        assert [a.true_pose[:2] for a in sim.ground_agents] == [(196.5, 23.0), (199.5, 23.0)]


def test_every_local_goal_of_a_run_equals_a_memo_free_twins(monkeypatch, tmp_path):
    # the local grid keeps its last disc search for the steps between scans;
    # along a run, each search must give what a fresh copy of the grid gives
    raw = tracker._select_local_goal_ex
    kept = {True: 0, False: 0}

    def checked(grid, pose, waypoint, radius):
        last = grid._search
        got = raw(grid, pose, waypoint, radius)
        kept[grid._search is last] += 1
        twin = tracker.LocalObstacleGrid(
            grid.side, grid.resolution, grid.n, grid.cells.copy(), grid.origin_x, grid.origin_y
        )
        assert got == raw(twin, pose, waypoint, radius)
        return got

    monkeypatch.setattr(tracker, "_select_local_goal_ex", checked)
    Simulation(small_config(), world=small_world()).run(tmp_path)
    assert kept[True] > 50 and kept[False] > 50, kept


class TestParkedRobots:
    """Parked robots skip predict, scans and grid updates whose inputs did not
    change, and idle gossip pairs skip their syncs. Every tick must still end
    in the state of a run that recomputes all of it."""

    PARK = range(60, 130)  # ticks over which both ground robots are held still
    TICKS = 160

    @staticmethod
    def agent_state(g):
        p = g.particles
        grid = g.local_grid
        return (
            p.xs.tobytes(), p.ys.tobytes(), p.yaws.tobytes(), p.weights.tobytes(),
            np.array(g.believed).tobytes(), np.array(g.dr_pose).tobytes(),
            grid.cells.tobytes(), grid.origin_x, grid.origin_y,
            repr(g.filter_rng.bit_generator.state),
        )

    @classmethod
    def held_run(cls, recompute: bool):
        """Step the small world, holding the ground robots parked over PARK.
        As they stop, two particles of each get the yaw -pi, which the first
        zero step of predict wraps to pi. With ``recompute`` every scan is
        cast on a writable copy of the truth, predict never finds a set at
        rest, and every pair in range syncs on every tick."""
        world = small_world()
        sim = Simulation(small_config(), world=world)
        calls = {"rest": 0, "grids": 0, "sync_pair": 0}
        raw_predict, raw_scan = localize.predict, engine.ground_scan
        raw_integrate, raw_sync = tracker.integrate_scans, gossip.sync_pair

        def predict(p, *args):
            out = raw_predict(dataclasses.replace(p) if recompute else p, *args)
            calls["rest"] += out is p
            return out

        def integrate_scans(grids, *args):
            calls["grids"] += len(grids)
            return raw_integrate(grids, *args)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        truth = world.truth
        thawed = dataclasses.replace(truth, classes=truth.classes.copy(), observed=truth.observed.copy())
        states = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localize, "predict", predict)
            mp.setattr(tracker, "integrate_scans", integrate_scans)
            mp.setattr(gossip, "sync_pair", counted("sync_pair", raw_sync))
            if recompute:
                mp.setattr(engine, "ground_scan", lambda grid, *args: raw_scan(thawed, *args))
            for t in range(cls.TICKS):
                if recompute:
                    sim._synced.clear()
                for g in sim.ground_agents:
                    if t in cls.PARK:
                        g.command = (0.0, 0.0)
                    if t == cls.PARK[0]:
                        yaws = g.particles.yaws.copy()
                        yaws[:2] = -math.pi
                        g.particles = dataclasses.replace(g.particles, yaws=yaws)
                sim.tick()
                states.append([cls.agent_state(g) for g in sim.ground_agents])
        return states, sim.events, calls

    @pytest.fixture(scope="class")
    def runs(self):
        return self.held_run(recompute=False), self.held_run(recompute=True)

    def test_every_tick_matches_a_full_recompute(self, runs):
        (states, events, _), (ref_states, ref_events, _) = runs
        for t, (got, want) in enumerate(zip(states, ref_states)):
            assert got == want, t
        assert events == ref_events

    def test_parked_work_was_skipped(self, runs):
        (_, events, calls), (_, _, ref_calls) = runs
        # each robot computes the set at rest and the grid on its first
        # parked tick and scan, and skips them after that: its grid is not
        # handed to the team's grid pass
        assert calls["rest"] >= 2 * (len(self.PARK) - 1) and ref_calls["rest"] == 0
        parked_scans = len(self.PARK) // 4
        assert ref_calls["grids"] - calls["grids"] >= 2 * (parked_scans - 1)
        assert calls["sync_pair"] < ref_calls["sync_pair"]
        assert any(json.loads(line)["ev"] == "sync" for line in events)



class TestTeamSensing:
    """On a scan tick the engine casts, in one call, the scans of the ground
    robots whose poses the truth does not keep, and bins them in one call.
    Each robot's own ``ground_scan`` and ``from_scan`` then return the kept
    scan and observation, and cast and bin nothing. After every robot's
    filter update, the robots whose scan or belief changed put their scans
    in their local grids in one call."""

    PARK = range(44, 130)  # ticks over which the last ground robot is held still
    TICKS = 160

    @classmethod
    def stepped(cls, n_ground=3):
        """Step the small world with ``n_ground`` robots, the last held still
        over PARK. Returns each tick's robot states, the events, and per
        tick: the truth's kept pose keys before the tick, each cast and bin
        (and whether a robot's own call made it), the team pass's scans and
        observations, each robot's own scans and observations, each team
        grid pass's grids, scans and poses, and each robot's grid and belief
        after the tick."""
        sim = Simulation(small_config(n_ground=n_ground), world=small_world())
        truth = sim.world.truth
        log = []
        own = [False]  # inside a robot's own ground_scan or from_scan
        raw_cast, raw_scans, raw_scan = semteam.world._cast, engine.ground_scans, engine.ground_scan
        obs_cls = localize.PolarObservation
        raw_bin, raw_from_scan = obs_cls.__dict__["_bin"].__func__, obs_cls.__dict__["from_scan"].__func__
        raw_from_scans = obs_cls.__dict__["from_scans"].__func__
        raw_integrate = tracker.integrate_scans

        def cast(grid, poses, *args):
            log[-1]["cast"].append((own[0], list(poses)))
            return raw_cast(grid, poses, *args)

        def bin_(klass, scans, *args):
            log[-1]["bin"].append((own[0], len(scans)))
            return raw_bin(klass, scans, *args)

        def ground_scans(grid, poses, *args):
            log[-1]["team_scans"] = raw_scans(grid, poses, *args)
            return log[-1]["team_scans"]

        def from_scans(klass, scans, *args, **kwargs):
            got = raw_from_scans(klass, scans, *args, **kwargs)
            if not own[0]:
                log[-1]["team_obs"] = got
            return got

        def integrate_scans(grids, scans, poses, *args):
            log[-1]["grid_passes"].append((list(grids), list(scans), list(poses)))
            return raw_integrate(grids, scans, poses, *args)

        def robot_call(name, fn):
            def wrapper(*args, **kwargs):
                own[0] = True
                try:
                    got = fn(*args, **kwargs)
                finally:
                    own[0] = False
                log[-1][name].append(got)
                return got

            return wrapper

        states = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semteam.world, "_cast", cast)
            mp.setattr(engine, "ground_scans", ground_scans)
            mp.setattr(engine, "ground_scan", robot_call("own_scans", raw_scan))
            mp.setattr(obs_cls, "_bin", classmethod(bin_))
            mp.setattr(obs_cls, "from_scans", classmethod(from_scans))
            mp.setattr(obs_cls, "from_scan", classmethod(robot_call("own_obs", raw_from_scan)))
            mp.setattr(tracker, "integrate_scans", integrate_scans)
            for t in range(cls.TICKS):
                if t in cls.PARK:
                    sim.ground_agents[-1].command = (0.0, 0.0)
                kept = set(truth.__dict__.get("_scans", {}))
                log.append({"kept": kept, "cast": [], "bin": [], "own_scans": [], "own_obs": [], "grid_passes": []})
                sim.tick()
                states.append([TestParkedRobots.agent_state(g) for g in sim.ground_agents])
                log[-1]["poses"] = [g.true_pose for g in sim.ground_agents]
                log[-1]["grids"] = [g.local_grid for g in sim.ground_agents]
                log[-1]["believed"] = [g.believed for g in sim.ground_agents]
        return states, sim.events, log

    @pytest.fixture(scope="class")
    def sensed(self):
        return self.stepped()

    @staticmethod
    def key(pose):
        return (np.array(pose, dtype=np.float64).tobytes(), engine.SCAN_MAX_RANGE, engine.SCAN_BEAMS)

    def test_one_team_cast_per_scan_tick_of_only_the_unkept_poses(self, sensed):
        _, _, log = sensed
        parked = log[self.PARK[0]]["poses"][-1]
        for t, rec in enumerate(log):
            if t % engine.SCAN_PERIOD_TICKS:
                assert rec["cast"] == [] and "team_scans" not in rec, t
                continue
            unkept = list(dict.fromkeys(p for p in rec["poses"] if self.key(p) not in rec["kept"]))
            assert rec["cast"] == ([(False, unkept)] if unkept else []), t
            if t in self.PARK[1:]:
                # the held robot, cast on its first held tick, is not cast
                # again, while another robot moves on
                assert rec["poses"][-1] == parked and parked not in unkept and unkept, t
        # the robots stand still until the shake-out starts at tick 40
        assert [t for t in range(4, 40, 4) if log[t]["cast"]] == []

    def test_each_robot_gets_the_kept_scan_and_observation(self, sensed):
        _, _, log = sensed
        scan_ticks = 0
        for t, rec in enumerate(log):
            if t % engine.SCAN_PERIOD_TICKS:
                assert rec["own_scans"] == rec["own_obs"] == rec["bin"] == [], t
                continue
            scan_ticks += 1
            assert len(rec["own_scans"]) == len(rec["own_obs"]) == 3
            assert all(a is b for a, b in zip(rec["own_scans"], rec["team_scans"])), t
            assert all(a is b for a, b in zip(rec["own_obs"], rec["team_obs"])), t
            # a fresh scan keeps no observation yet: one bin where a cast was
            assert rec["bin"] == ([(False, len(rec["cast"][0][1]))] if rec["cast"] else []), t
        assert scan_ticks == self.TICKS // engine.SCAN_PERIOD_TICKS

    def test_one_grid_pass_per_scan_tick_of_only_the_changed_robots(self, sensed):
        _, _, log = sensed
        last = {}  # robot -> the scan and belief it last put in its grid
        partial = 0
        for t, rec in enumerate(log):
            if t % engine.SCAN_PERIOD_TICKS:
                assert rec["grid_passes"] == [], t
                continue
            # a robot's belief is the one its grid took: autonomy moves none
            robots = [
                k for k, seen in enumerate(zip(rec["own_scans"], rec["believed"]))
                if k not in last or last[k][0] is not seen[0] or last[k][1] != seen[1]
            ]
            want = [
                ([id(rec["grids"][k]) for k in robots], [id(rec["own_scans"][k]) for k in robots],
                 [rec["believed"][k] for k in robots])
            ] if robots else []
            got = [([id(g) for g in grids], [id(s) for s in scans], poses) for grids, scans, poses in rec["grid_passes"]]
            assert got == want, t
            last.update((k, (rec["own_scans"][k], rec["believed"][k])) for k in robots)
            partial += 0 < len(robots) < 3
            if t in self.PARK[1:]:
                assert 2 not in robots, t
        # no robot moves before the shake-out starts at tick 40
        assert [t for t in range(4, 40, 4) if log[t]["grid_passes"]] == []
        assert log[0]["grid_passes"] and partial > 5

    def test_no_ground_robots_tick_without_a_cast(self, monkeypatch):
        casts = []
        monkeypatch.setattr(semteam.world, "_cast", lambda *args: casts.append(args))
        sim = Simulation(small_config(n_ground=0, max_ticks=12), world=small_world())
        for _ in range(12):
            sim.tick()
        assert casts == [] and sim.tick_count == 12

    def test_a_team_larger_than_the_kept_scans_gives_the_same_run(self, sensed, monkeypatch):
        states, events, _ = sensed
        monkeypatch.setattr(semteam.world, "SCANS_KEPT", 2)
        got_states, got_events, log = self.stepped()
        assert got_events == events
        for t, (got, want) in enumerate(zip(got_states, states)):
            assert got == want, t
        # robots whose scans the team pass pushed out cast their own again
        assert sum(own for rec in log for own, _ in rec["cast"]) > 10


def test_every_pose_is_a_tuple_of_floats():
    """Ground poses are ``(x, y, yaw)`` and the aerial pose ``(x, y, altitude,
    yaw)``, all Python floats, from set-up on and over every tick past the
    tick-40 shake-out start and the tick-50 mission start; an integer start
    and altitude run as their floats."""

    def is_pose(pose, n):
        return type(pose) is tuple and len(pose) == n and all(type(v) is float for v in pose)

    rows = []
    for start, altitude in (([6.0, 6.0], 15.0), ([6, 6], 15)):
        sim = Simulation(small_config(start=start, aerial={"altitude": altitude, "speed": 3.0}), world=small_world())
        for t in range(120):  # each check sees the poses the tick before left
            for g in sim.ground_agents:
                for pose in (g.true_pose, g.believed, g.dr_pose):
                    assert is_pose(pose, 3), (start, t, g.id, pose)
            assert is_pose(sim.agents[0].true_pose, 4), (start, t, sim.agents[0].true_pose)
            sim.tick()
        assert all(g.distance > 0 for g in sim.ground_agents)
        rows.append(sim.pose_rows)
    assert rows[0] == rows[1]


def test_engine_import_loads_no_scipy():
    src = str(Path(semteam.__file__).resolve().parents[1])
    code = "import sys, semteam.engine; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"


#: modules below the engine, which take plain values and never a config
LOWER_MODULES = ("world", "geometry", "localize", "planner", "tracker", "mission", "aerial", "gossip")


def test_lower_modules_load_neither_config_nor_scipy():
    src = str(Path(semteam.__file__).resolve().parents[1])
    code = (
        "import importlib, sys\n"
        f"for name in {LOWER_MODULES!r}:\n"
        "    importlib.import_module('semteam.' + name)\n"
        "    bad = sorted(m for m in sys.modules if m == 'semteam.config' or m.split('.')[0] == 'scipy')\n"
        "    if bad:\n"
        "        print(name, bad)\n"
        "        break\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == ""


class TestWaypointMission:
    WAYPOINTS = [[[6.5, 20.5], [20.5, 22.5]], [[22.5, 6.5]]]

    def test_each_robot_reaches_its_scripted_waypoints(self, tmp_path):
        cfg = small_config(mission={"mode": "waypoint", "waypoints": self.WAYPOINTS})
        report = Simulation(cfg, world=small_world()).run(tmp_path)
        assert report.ticks < cfg.max_ticks
        track: dict[int, list[tuple[float, float]]] = {}
        for row in (tmp_path / "poses.csv").read_text().splitlines()[1:]:
            cols = row.split(",")
            track.setdefault(int(cols[1]), []).append((float(cols[5]), float(cols[6])))
        assert sorted(track) == [1, 2]
        for robot, script in zip(sorted(track), self.WAYPOINTS):
            for wx, wy in script:
                assert min(np.hypot(x - wx, y - wy) for x, y in track[robot]) <= 2.0, (robot, wx, wy)


class TestStandardWorld:
    def test_text_form_hash_pinned(self):
        text = world_to_text(build_standard_world())
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == STANDARD_WORLD_SHA256

    def test_full_snapshot_size_and_round_trip(self):
        truth = build_standard_world().truth
        acc = MapAccumulator.like(truth)
        acc.fuse_keyframe(full_view_keyframe(truth))
        data = encode_snapshot(acc.snapshot())
        # header, one class byte per cell, one observed bit per cell
        assert len(data) == 36 + 200 * 200 + 200 * 200 // 8 == 45036
        assert encode_snapshot(decode_snapshot(data)) == data

    def test_resolved_by_name(self):
        world = resolve_world("standard")
        assert world_to_text(world) == world_to_text(build_standard_world())
        assert np.count_nonzero(world.truth.classes == SemanticClass.VEHICLE) == 13 * 4


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config(seed=7, n_ground=3, comm_range=25.5)
        cfg.mission.waypoints = [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]]
        assert ScenarioConfig.from_dict(json.loads(cfg.to_json())) == cfg
        cfg.save(tmp_path / "config.json")
        assert ScenarioConfig.load(tmp_path / "config.json") == cfg

    def test_defaults_valid(self):
        ScenarioConfig().validate()
        assert ScenarioConfig.from_dict({}) == ScenarioConfig()

    def test_one_error_lists_every_problem(self):
        data = {
            "parallel_agents": True,
            "pose_log_period": 10,
            "tick_seconds": 0.0,
            "aerial": {"pose_graph_period": 5, "gps_sigma": 1.0, "odom_scale": 2.0, "speed": -1.0},
            "tracker": {"v_max": 1.0, "yaw_rate_max": 1.0},
        }
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert err.value.problems == [
            "unknown field 'parallel_agents'",
            "unknown field 'pose_log_period'",
            "unknown field aerial.'pose_graph_period'",
            "unknown field aerial.'gps_sigma'",
            "unknown field aerial.'odom_scale'",
            "unknown field 'tracker'",
            "tick_seconds must be > 0, got 0.0",
            "aerial.speed must be > 0, got -1.0",
        ]

    @pytest.mark.parametrize("value", [5, "fast", [1, 2], None])
    def test_section_not_an_object(self, value):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"aerial": value, "localizer": {"bogus": 1}})
        assert err.value.problems[0].startswith("aerial must be an object")
        assert err.value.problems[1:] == ["unknown field localizer.'bogus'"]

    @pytest.mark.parametrize(
        "data, problem",
        [
            ({"tick_seconds": "x"}, "tick_seconds must be a number, got 'x'"),
            ({"n_ground": None}, "n_ground must be an integer, got None"),
            ({"localizer": {"init_spread": 0.05}}, "localizer.init_spread must be a list of 3 numbers, got 0.05"),
            ([1], "config must be an object, got list"),
            ({"mission": {"cluster_radius": math.inf}}, "mission.cluster_radius must be a number, got inf"),
            ({"mission": {"dilation_radius": math.inf}}, "mission.dilation_radius must be a number, got inf"),
            ({"aerial": {"altitude": math.inf}}, "aerial.altitude must be a number, got inf"),
            ({"localizer": {"init_error": math.inf}}, "localizer.init_error must be a number, got inf"),
            ({"start": [math.nan, 23]}, "start must be a list of 2 numbers, got (nan, 23)"),
            ({"tick_seconds": math.inf}, "tick_seconds must be a number, got inf"),
        ],
    )
    def test_wrong_type_is_a_config_error(self, data, problem):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(data)
        assert err.value.problems == [problem]

    def test_non_finite_json_numbers_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"tick_seconds": Infinity, "start": [NaN, 23], "comm_range": -Infinity}')
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.load(path)
        assert err.value.problems == [
            "comm_range must be a number, got -inf",
            "tick_seconds must be a number, got inf",
            "start must be a list of 2 numbers, got (nan, 23)",
        ]

    @pytest.mark.parametrize("name", ["init_spread"])
    def test_negative_localizer_spread_rejected(self, name):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"localizer": {name: [0.05, -0.05, 0.01]}})
        assert err.value.problems == [f"localizer.{name} components must be >= 0, got (0.05, -0.05, 0.01)"]

    def test_settable_values(self):
        def dotted(d, prefix=""):
            for k, v in d.items():
                if isinstance(v, dict):
                    yield from dotted(v, f"{prefix}{k}.")
                else:
                    yield prefix + k

        assert sorted(dotted(ScenarioConfig().to_dict())) == [
            "aerial.altitude", "aerial.snapshot_period_ticks", "aerial.speed",
            "comm_range", "initial_map",
            "localizer.init_error", "localizer.init_spread", "localizer.n_particles", "localizer.temperature",
            "max_ticks",
            "mission.cluster_radius", "mission.dilation_radius", "mission.mode", "mission.warmup_ticks",
            "mission.waypoints",
            "n_aerial", "n_ground", "planner.close_radius", "seed", "start", "tick_seconds", "world",
        ]

    @pytest.mark.parametrize("name", REMOVED_KEYS)
    def test_removed_key_rejected(self, name):
        section, _, key = name.rpartition(".")
        value = REMOVED_KEYS[name]
        data = {section: {key: value}} if section else {key: value}
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(data)
        if section in ScenarioConfig().to_dict():  # a kept section
            gone = f"{section}.{key!r}"
        else:  # a top-level key, or a key of a removed section
            gone = repr(section or key)
        assert err.value.problems == [f"unknown field {gone}"]

    def test_zero_localizer_spread_accepted(self):
        cfg = ScenarioConfig.from_dict({"localizer": {"init_spread": [0.0, 0.0, 0.0]}})
        assert cfg.localizer.init_spread == (0.0, 0.0, 0.0)


def test_digest_check_names_each_differing_line(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import output_digests

    reference = output_digests.REFERENCE.read_text()
    assert len(reference.splitlines()) == 5 * len(output_digests.FILES)
    printed = ["a events.jsonl 11", "a poses.csv 22", "b events.jsonl 33"]
    assert output_digests.differing(printed, "a events.jsonl 11\na poses.csv 99\n") == printed[1:]
