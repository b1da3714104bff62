"""Mission logic: ROI extraction, claims, deconfliction, state machine."""

import numpy as np
import pytest

from semteam.gossip import Database, DbRecord, sync_pair
from semteam.mission import (
    CLAIMED,
    FAILED,
    VISITED,
    MissionController,
    ROI,
    choose_goal,
    decode_claims,
    extract_rois,
    merged_claim_view,
    roi_id_for,
    roi_open_for,
)
from semteam.planner import PlanResult, extract_traversability
from semteam.world import SemanticClass, SemanticGridMap


def make_map(classes):
    classes = np.asarray(classes, dtype=np.int8)
    h, w = classes.shape
    return SemanticGridMap(
        origin_x=0.0, origin_y=0.0, resolution=1.0, width=w, height=h,
        classes=classes,
        observed=np.ones((h, w), dtype=bool), version=1,
    )


def road_map_with_vehicles(vehicle_cells, size=30):
    cls = np.full((size, size), int(SemanticClass.ROAD), dtype=np.int8)
    for ix, iy in vehicle_cells:
        cls[iy, ix] = SemanticClass.VEHICLE
    return make_map(cls)


class TestExtractRois:
    def test_adjacent_vehicles_merge(self):
        m = road_map_with_vehicles([(10, 10), (11, 10)])
        rois = extract_rois(m, cluster_radius=3.0, dilation_radius=5.0, close_radius=0)
        assert len(rois) == 1
        assert rois[0].member_cells == ((10, 10), (11, 10))

    def test_far_vehicles_split(self):
        m = road_map_with_vehicles([(5, 5), (25, 25)])
        rois = extract_rois(m, cluster_radius=2.0, dilation_radius=5.0, close_radius=0)
        assert len(rois) == 2

    def test_goal_is_clearance_max_near_cluster(self):
        m = road_map_with_vehicles([(15, 15)])
        grid = extract_traversability(m, 0)
        rois = extract_rois(m, cluster_radius=3.0, dilation_radius=4.0, close_radius=0)
        (roi,) = rois
        gx, gy = roi.goal_cell
        assert (gx - 15) ** 2 + (gy - 15) ** 2 <= 16
        assert grid.free[gy, gx]
        # no candidate in the disc scores strictly higher
        for iy in range(30):
            for ix in range(30):
                if (ix - 15) ** 2 + (iy - 15) ** 2 <= 16 and grid.free[iy, ix]:
                    assert grid.dist[iy, ix] <= grid.dist[gy, gx] + 1e-9

    def test_unreachable_cluster_flagged(self):
        cls = np.full((20, 20), int(SemanticClass.BUILDING), dtype=np.int8)
        cls[10, 10] = SemanticClass.VEHICLE
        rois = extract_rois(make_map(cls), cluster_radius=3.0, dilation_radius=3.0, close_radius=0)
        assert rois[0].goal_cell is None

    def test_ids_permutation_invariant(self):
        cells = [(3, 4), (4, 4), (3, 5)]
        rng = np.random.default_rng(0)
        ids = set()
        for _ in range(5):
            perm = list(cells)
            rng.shuffle(perm)
            ids.add(roi_id_for(perm))
        assert len(ids) == 1

    def test_same_map_same_ids_across_robots(self):
        m = road_map_with_vehicles([(5, 5), (6, 5), (20, 22)])
        a = extract_rois(m, cluster_radius=3.0, dilation_radius=5.0, close_radius=0)
        b = extract_rois(m, cluster_radius=3.0, dilation_radius=5.0, close_radius=0)
        assert [r.roi_id for r in a] == [r.roi_id for r in b]


def plan_cost_fn(costs, calls=None):
    """A ``plan_to`` that reaches each cell of ``costs`` at its cost and
    routes to the cheapest cell asked for, the first on ties, as
    ``planner.plan`` does; it appends the cells of each call to ``calls``."""

    def plan_to(*cells):
        if calls is not None:
            calls.append(cells)
        reached = [cell for cell in cells if cell in costs]
        if not reached:
            return PlanResult(ok=False)
        cell = min(reached, key=costs.get)
        return PlanResult(ok=True, waypoints=[cell], cost=costs[cell])

    return plan_to


class TestChooseGoal:
    def rois(self):
        return [
            ROI("aaa", ((5, 5),), (6, 5)),
            ROI("bbb", ((20, 20),), (21, 20)),
        ]

    def test_single_open_roi_chosen(self):
        rois = self.rois()[:1]
        out = choose_goal(0, rois, {}, plan_cost_fn({(6, 5): 10.0}))
        assert out is not None and out[0].roi_id == "aaa"

    def test_claimed_by_other_robot_yields_none(self):
        rois = self.rois()[:1]
        view = {"aaa": [(1, CLAIMED)]}
        assert choose_goal(0, rois, view, plan_cost_fn({(6, 5): 10.0})) is None

    def test_cheaper_plan_wins(self):
        out = choose_goal(0, self.rois(), {}, plan_cost_fn({(6, 5): 25.0, (21, 20): 10.0}))
        assert out[0].roi_id == "bbb"

    def test_unplannable_skipped(self):
        out = choose_goal(0, self.rois(), {}, plan_cost_fn({(6, 5): 25.0}))
        assert out[0].roi_id == "aaa"

    def test_one_call_with_the_open_goal_cells_in_id_order(self):
        rois = [
            ROI("ddd", ((30, 30),), (31, 30)),
            ROI("aaa", ((5, 5),), (6, 5)),
            ROI("eee", ((40, 40),), None),
            ROI("ccc", ((12, 12),), (13, 12)),
            ROI("bbb", ((20, 20),), (21, 20)),
        ]
        view = {"bbb": [(1, CLAIMED)]}
        calls = []
        out = choose_goal(0, rois, view, plan_cost_fn({(6, 5): 9.0, (13, 12): 4.0, (31, 30): 7.0}, calls))
        assert calls == [((6, 5), (13, 12), (31, 30))]
        assert out[0].roi_id == "ccc" and out[1].cost == 4.0

    def test_no_open_roi_plans_nothing(self):
        calls = []
        view = {"aaa": [(1, CLAIMED)], "bbb": [(0, FAILED)]}
        assert choose_goal(0, self.rois(), view, plan_cost_fn({(6, 5): 1.0}, calls)) is None
        assert choose_goal(0, [ROI("ccc", ((1, 1),), None)], {}, plan_cost_fn({}, calls)) is None
        assert calls == []

    def test_equal_costs_go_to_the_lower_id(self):
        rois = [ROI("bbb", ((20, 20),), (21, 20)), ROI("aaa", ((5, 5),), (6, 5))]
        out = choose_goal(0, rois, {}, plan_cost_fn({(6, 5): 10.0, (21, 20): 10.0}))
        assert out[0].roi_id == "aaa"
        # two ROIs whose goal cells coincide
        shared = [ROI("ccc", ((7, 7),), (6, 5)), ROI("bbb", ((4, 4),), (6, 5))]
        calls = []
        out = choose_goal(0, shared, {}, plan_cost_fn({(6, 5): 3.0}, calls))
        assert out[0].roi_id == "bbb"
        assert calls == [((6, 5), (6, 5))]

    def test_own_failure_excluded_but_open_for_others(self):
        view = {"aaa": [(0, FAILED)]}
        assert not roi_open_for(0, "aaa", view)
        assert roi_open_for(1, "aaa", view)

    def test_visited_closed_for_everyone(self):
        view = {"aaa": [(1, VISITED)]}
        assert not roi_open_for(0, "aaa", view)
        assert not roi_open_for(1, "aaa", view)


class TestMissionController:
    def setup_controller(self, robot_id=0):
        ctrl = MissionController(robot_id=robot_id)
        db = Database(owner=robot_id)
        rois = [ROI("aaa", ((5, 5),), (6, 5)), ROI("bbb", ((20, 20),), (21, 20))]
        return ctrl, db, rois

    def run_tick(self, ctrl, db, rois, now=0, costs=None, tracker=None):
        costs = costs if costs is not None else {(6, 5): 5.0, (21, 20): 9.0}
        return ctrl.tick(now, db, rois, plan_cost_fn(costs), tracker)

    def test_idle_to_claim_flow(self):
        ctrl, db, rois = self.setup_controller()
        self.run_tick(ctrl, db, rois, now=0)
        assert ctrl.phase == "selecting"
        self.run_tick(ctrl, db, rois, now=1)
        assert ctrl.phase == "planning"
        assert ctrl.current_roi.roi_id == "aaa"
        assert decode_claims(db.get(0, "claims").payload)["aaa"] == CLAIMED
        self.run_tick(ctrl, db, rois, now=2)
        assert ctrl.phase == "navigating"

    def test_one_plan_per_selection(self):
        ctrl, db, rois = self.setup_controller()
        calls = []
        for now in range(3):
            ctrl.tick(now, db, rois, plan_cost_fn({(6, 5): 5.0, (21, 20): 9.0}, calls), None)
        assert ctrl.phase == "navigating"
        assert calls == [((6, 5), (21, 20))]

    def test_arrival_publishes_visited(self):
        ctrl, db, rois = self.setup_controller()
        for now in range(3):
            self.run_tick(ctrl, db, rois, now=now)
        events = self.run_tick(ctrl, db, rois, now=3, tracker="done")
        assert ctrl.phase == "idle"
        assert decode_claims(db.get(0, "claims").payload)["aaa"] == VISITED
        assert any(e["ev"] == "visited" for e in events)

    def test_cancellation_publishes_failed_and_opens_for_others(self):
        ctrl, db, rois = self.setup_controller()
        for now in range(3):
            self.run_tick(ctrl, db, rois, now=now)
        events = self.run_tick(ctrl, db, rois, now=3, tracker="cancelled")
        assert ctrl.phase == "idle"
        assert [e["ev"] for e in events] == ["failed", "phase"]
        assert decode_claims(db.get(0, "claims").payload)["aaa"] == FAILED
        assert ctrl.failures == [("aaa", 3)]

        other = Database(owner=1)
        sync_pair(db, other)
        view = merged_claim_view(other)
        assert not roi_open_for(0, "aaa", view)
        assert roi_open_for(1, "aaa", view)

    def test_new_map_version_reselects_from_idle(self):
        ctrl, db, rois = self.setup_controller()
        db.merge([DbRecord(origin=9, key="map", seq=1, payload=b"v1")])
        # an empty world first: nothing to choose, back to idle
        self.run_tick(ctrl, db, [], now=0)
        self.run_tick(ctrl, db, [], now=1)
        self.run_tick(ctrl, db, [], now=2)
        assert ctrl.phase == "idle"
        # a new map record revealing a new ROI triggers selection again
        db.merge([DbRecord(origin=9, key="map", seq=2, payload=b"v2")])
        events = self.run_tick(ctrl, db, rois, now=3)
        assert ctrl.phase == "selecting"
        assert any(e["ev"] == "phase" for e in events)

    def test_conflict_resolved_by_lower_id(self):
        ctrl_a, db_a, rois = self.setup_controller(robot_id=0)
        ctrl_b, db_b, _ = self.setup_controller(robot_id=1)
        # both claim "aaa" before hearing from each other
        for now in range(2):
            self.run_tick(ctrl_a, db_a, rois, now=now)
            self.run_tick(ctrl_b, db_b, rois, now=now)
        assert ctrl_a.current_roi.roi_id == "aaa"
        assert ctrl_b.current_roi.roi_id == "aaa"
        sync_pair(db_a, db_b)
        ev_a = self.run_tick(ctrl_a, db_a, rois, now=5)
        ev_b = self.run_tick(ctrl_b, db_b, rois, now=5)
        assert ctrl_a.current_roi.roi_id == "aaa"  # lower id keeps
        assert ctrl_b.phase == "selecting"
        assert any(e["ev"] == "claim_released" for e in ev_b)
        sync_pair(db_a, db_b)
        view = merged_claim_view(db_b)
        claimers = [o for o, s in view["aaa"] if s == CLAIMED]
        assert claimers == [0]

    def test_never_selects_own_closed_rois(self):
        ctrl, db, rois = self.setup_controller()
        ctrl.claims["aaa"] = FAILED
        ctrl.claims["bbb"] = VISITED
        ctrl.publish_claims(db)
        self.run_tick(ctrl, db, rois, now=1)
        assert ctrl.phase == "selecting"
        self.run_tick(ctrl, db, rois, now=2)
        assert ctrl.phase == "idle"
        assert ctrl.current_roi is None
