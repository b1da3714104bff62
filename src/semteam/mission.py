"""Region-investigation missions.

Vehicle detections in the aerial map are clustered into regions of
interest; each ROI gets a goal point at the highest-clearance traversable
cell nearby. Robots publish their claim/visited/failed status through the
gossip database and independently pick the cheapest-to-reach open ROI, so
deconfliction is best-effort: simultaneous claims under partition are
possible and resolved (lower robot id keeps the claim) once the records
meet.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from semteam import planner
from semteam.gossip import Database
from semteam.planner import PlanResult, TraversabilityGrid
from semteam.world import SemanticClass, SemanticGridMap

CLAIMED = "claimed"
VISITED = "visited"
FAILED = "failed"

CLAIMS_KEY = "claims"

#: ticks an idle robot waits before it selects again with nothing changed
RESELECT_PERIOD = 100


@dataclass(frozen=True)
class ROI:
    """A cluster of vehicle cells plus the goal point used to inspect it;
    ``goal_cell`` is None when no traversable cell lies near the cluster."""

    roi_id: str
    member_cells: tuple[tuple[int, int], ...]
    goal_cell: tuple[int, int] | None


def roi_id_for(member_cells) -> str:
    """Deterministic id from the member-cell set, same on every robot."""
    blob = b"".join(
        ix.to_bytes(4, "little", signed=True) + iy.to_bytes(4, "little", signed=True)
        for ix, iy in sorted(member_cells)
    )
    return hashlib.sha1(blob).hexdigest()[:12]


def extract_rois(
    grid_map: SemanticGridMap,
    cluster_radius: float,
    *,
    dilation_radius: float,
    close_radius: int | None = None,
    grid: TraversabilityGrid | None = None,
) -> list[ROI]:
    """Single-linkage clustering of vehicle cells into ROIs.

    The goal point is the traversable cell within dilation_radius of the
    cluster with the largest obstacle clearance (vehicle cells themselves
    are not traversable). Clusters with no nearby traversable cell get no
    goal point. ``grid`` is ``grid_map``'s planning grid; without it, one
    is built here at ``close_radius``.
    """
    if grid_map.version < 1:
        raise ValueError("map version must be >= 1")
    if grid is None and close_radius is None:
        raise ValueError("extract_rois needs a grid or a close_radius")
    iys, ixs = np.nonzero(grid_map.classes == int(SemanticClass.VEHICLE))
    if ixs.size == 0:
        return []
    if grid is None:
        grid = planner.extract_traversability(grid_map, close_radius)

    res = grid_map.resolution
    n = ixs.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    limit2 = (cluster_radius / res) ** 2
    for i in range(n):
        for j in range(i + 1, n):
            if (ixs[i] - ixs[j]) ** 2 + (iys[i] - iys[j]) ** 2 <= limit2:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)

    rois = []
    for members in clusters.values():
        cells = tuple(sorted((int(ixs[i]), int(iys[i])) for i in members))
        goal = _goal_for_cluster(cells, grid, dilation_radius)
        rois.append(ROI(roi_id=roi_id_for(cells), member_cells=cells, goal_cell=goal))
    rois.sort(key=lambda r: r.roi_id)
    return rois


def _goal_for_cluster(cells, grid, dilation_radius):
    """The highest-clearance free cell within ``dilation_radius`` of the
    cluster, lowest flat index first on ties; None when there is none."""
    r_cells = dilation_radius / grid.resolution
    h, w = grid.shape
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    x_lo = max(0, int(math.floor(min(xs) - r_cells)))
    x_hi = min(w - 1, int(math.ceil(max(xs) + r_cells)))
    y_lo = max(0, int(math.floor(min(ys) - r_cells)))
    y_hi = min(h - 1, int(math.ceil(max(ys) + r_cells)))
    sub_free = grid.free[y_lo : y_hi + 1, x_lo : x_hi + 1]
    fy, fx = np.nonzero(sub_free)
    gx, gy = fx + x_lo, fy + y_lo
    near = np.zeros(gx.size, dtype=bool)
    for cx, cy in cells:
        near |= (gx - cx) ** 2 + (gy - cy) ** 2 <= r_cells**2
    gx, gy = gx[near], gy[near]
    if not gx.size:
        return None
    flats = gy * w + gx
    scores = grid.dist[gy, gx]
    order = np.lexsort((flats, -scores))
    return int(gx[order[0]]), int(gy[order[0]])


# ---------------------------------------------------------------------------
# claims via the gossip database


def encode_claims(entries: dict[str, tuple[str, int]]) -> bytes:
    payload = {"claims": {rid: [status, stamp] for rid, (status, stamp) in sorted(entries.items())}}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")


def decode_claims(payload: bytes) -> dict[str, tuple[str, int]]:
    data = json.loads(payload.decode("ascii"))
    return {rid: (status, int(stamp)) for rid, (status, stamp) in data["claims"].items()}


def merged_claim_view(db: Database) -> dict[str, list[tuple[int, str, int]]]:
    """roi_id -> [(robot, status, stamp)] over every robot's claims record."""
    view: dict[str, list[tuple[int, str, int]]] = {}
    for (origin, key), rec in sorted(db.records.items()):
        if key != CLAIMS_KEY:
            continue
        for rid, (status, stamp) in decode_claims(rec.payload).items():
            view.setdefault(rid, []).append((origin, status, stamp))
    return view


def roi_open_for(robot_id: int, roi_id: str, view: dict[str, list[tuple[int, str, int]]]) -> bool:
    """Open = not claimed or visited by anyone, not failed by this robot."""
    for other, status, _ in view.get(roi_id, []):
        if status in (VISITED, CLAIMED):
            return False
        if status == FAILED and other == robot_id:
            return False
    return True


def choose_goal(
    robot_id: int,
    rois: list[ROI],
    view: dict[str, list[tuple[int, str, int]]],
    plan_to,
) -> tuple[ROI, PlanResult] | None:
    """Cheapest-plan open ROI, or None (idle) when nothing is plannable.

    ``plan_to(goal_cell)`` must return a PlanResult from the robot's
    current believed position.
    """
    best = None
    for roi in rois:
        if roi.goal_cell is None:
            continue
        if not roi_open_for(robot_id, roi.roi_id, view):
            continue
        result = plan_to(roi.goal_cell)
        if not result.ok:
            continue
        key = (result.cost, roi.roi_id)
        if best is None or key < best[0]:
            best = (key, roi, result)
    if best is None:
        return None
    return best[1], best[2]


# ---------------------------------------------------------------------------
# per-robot mission state machine


@dataclass
class MissionController:
    """Drives one robot through idle -> selecting -> planning -> navigating
    -> (visited | failed) -> idle, publishing claims along the way."""

    robot_id: int
    phase: str = "idle"
    current_roi: ROI | None = None
    pending_plan: PlanResult | None = None
    claims: dict[str, tuple[str, int]] = field(default_factory=dict)
    failures: list[tuple[str, int]] = field(default_factory=list)
    last_map_version: int = -1
    last_view_digest: tuple = ()
    last_select_tick: int = -(10**9)
    _view_cache_key: tuple = ()
    _view_cache: dict = field(default_factory=dict)

    def publish_claims(self, db: Database) -> None:
        db.put_local(CLAIMS_KEY, encode_claims(self.claims))

    def _claims_view(self, db: Database) -> dict[str, list[tuple[int, str, int]]]:
        """merged_claim_view, recomputed only when a claims record advances."""
        digest = tuple(
            sorted((origin, rec.seq) for (origin, key), rec in db.records.items() if key == CLAIMS_KEY)
        )
        if digest != self._view_cache_key:
            self._view_cache_key = digest
            self._view_cache = merged_claim_view(db)
        return self._view_cache

    def tick(
        self,
        now: int,
        db: Database,
        map_version: int,
        rois: list[ROI],
        plan_to,
        tracker_phase: str | None,
    ) -> list[dict]:
        """One mission step. Returns event dicts; sets ``pending_plan`` when
        the engine should start tracking a fresh plan, clears
        ``current_roi`` when it should stop."""
        events: list[dict] = []
        view = self._claims_view(db)

        if self.phase in ("planning", "navigating") and self.current_roi is not None:
            rid = self.current_roi.roi_id
            rivals = [o for o, status, _ in view.get(rid, []) if status == CLAIMED and o != self.robot_id]
            if rivals and min(rivals) < self.robot_id:
                # simultaneous claim discovered: lower id keeps it
                self.claims.pop(rid, None)
                self.publish_claims(db)
                events.append(self._ev(now, "claim_released", rid))
                self.current_roi = None
                self.pending_plan = None
                self._set_phase("selecting", now, events)
                return events

        if self.phase == "idle":
            if (
                map_version != self.last_map_version
                or self._view_cache_key != self.last_view_digest
                or now - self.last_select_tick >= RESELECT_PERIOD
            ):
                self.last_map_version = map_version
                self.last_view_digest = self._view_cache_key
                self._set_phase("selecting", now, events)
            return events

        if self.phase == "selecting":
            self.last_select_tick = now
            choice = choose_goal(self.robot_id, rois, view, plan_to)
            if choice is None:
                self._set_phase("idle", now, events)
                return events
            roi, result = choice
            self.current_roi = roi
            self.pending_plan = result
            self.claims[roi.roi_id] = (CLAIMED, now)
            self.publish_claims(db)
            events.append(self._ev(now, "claimed", roi.roi_id))
            self._set_phase("planning", now, events)
            return events

        if self.phase == "planning":
            # engine has picked up pending_plan and armed the tracker
            self._set_phase("navigating", now, events)
            return events

        if self.phase == "navigating":
            if tracker_phase == "done":
                rid = self.current_roi.roi_id
                self.claims[rid] = (VISITED, now)
                self.publish_claims(db)
                events.append(self._ev(now, "visited", rid))
                self.current_roi = None
                self._set_phase("idle", now, events)
            elif tracker_phase == "cancelled":
                rid = self.current_roi.roi_id
                self.claims[rid] = (FAILED, now)
                self.failures.append((rid, now))
                self.publish_claims(db)
                events.append(self._ev(now, "failed", rid))
                self.current_roi = None
                self._set_phase("idle", now, events)
            return events

        return events

    def _set_phase(self, phase: str, now: int, events: list[dict]) -> None:
        if phase != self.phase:
            self.phase = phase
            events.append(self._ev(now, "phase", self.current_roi.roi_id if self.current_roi else None))

    def _ev(self, now: int, kind: str, roi_id) -> dict:
        return {
            "tick": now,
            "ev": kind,
            "robot": self.robot_id,
            "phase": self.phase,
            "roi": roi_id,
        }
