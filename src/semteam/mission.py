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
from semteam.geometry import disc_cells
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

    # link each cell to the cells at every integer offset within the radius,
    # then spread the least index along the links until it settles
    h, w = grid_map.classes.shape
    index = np.full((h, w), -1)
    index[iys, ixs] = np.arange(ixs.size)
    limit2 = math.floor((cluster_radius / grid_map.resolution) ** 2)
    rx, ry = min(math.isqrt(limit2), w - 1), min(math.isqrt(limit2), h - 1)
    a, b = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for dy in range(ry + 1):
        for dx in range(-rx, rx + 1):
            if (dy, dx) > (0, 0) and dx * dx + dy * dy <= limit2:
                nx, ny = ixs + dx, iys + dy
                i = np.flatnonzero((nx >= 0) & (nx < w) & (ny < h))
                j = index[ny[i], nx[i]]
                a.append(i[j >= 0])
                b.append(j[j >= 0])
    a, b = np.concatenate(a), np.concatenate(b)
    label = np.arange(ixs.size)
    while True:
        prev = label.copy()
        np.minimum.at(label, a, label[b])
        np.minimum.at(label, b, label[a])
        label = label[label]
        if np.array_equal(label, prev):
            break

    clusters: dict[int, list[int]] = {}
    for i, root in enumerate(label.tolist()):
        clusters.setdefault(root, []).append(i)

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
    gx, gy = disc_cells(grid.free, cells, dilation_radius / grid.resolution)
    if not gx.size:
        return None
    flats = gy * grid.shape[1] + gx
    scores = grid.dist[gy, gx]
    order = np.lexsort((flats, -scores))
    return int(gx[order[0]]), int(gy[order[0]])


# ---------------------------------------------------------------------------
# claims via the gossip database


def encode_claims(entries: dict[str, str]) -> bytes:
    return json.dumps({"claims": entries}, sort_keys=True, separators=(",", ":")).encode("ascii")


def decode_claims(payload: bytes) -> dict[str, str]:
    return json.loads(payload.decode("ascii"))["claims"]


def merged_claim_view(db: Database) -> dict[str, list[tuple[int, str]]]:
    """roi_id -> [(robot, status)] over every robot's claims record."""
    view: dict[str, list[tuple[int, str]]] = {}
    for (origin, key), rec in sorted(db.records.items()):
        if key != CLAIMS_KEY:
            continue
        for rid, status in decode_claims(rec.payload).items():
            view.setdefault(rid, []).append((origin, status))
    return view


def roi_open_for(robot_id: int, roi_id: str, view: dict[str, list[tuple[int, str]]]) -> bool:
    """Open = not claimed or visited by anyone, not failed by this robot."""
    for other, status in view.get(roi_id, []):
        if status in (VISITED, CLAIMED):
            return False
        if status == FAILED and other == robot_id:
            return False
    return True


def choose_goal(
    robot_id: int, rois: list[ROI], view: dict[str, list[tuple[int, str]]], plan_to
) -> tuple[ROI, PlanResult] | None:
    """Cheapest-plan open ROI, the lowest id on ties, or None (idle) when
    nothing is plannable.

    One search serves each selection: ``plan_to(*goal_cells)`` is called
    once, with the open ROIs' goal cells in ``roi_id`` order, and must return
    the cheapest PlanResult from the robot's believed position to any of
    them, the first on ties. The route's last cell names the ROI.
    """
    candidates = sorted(
        (roi for roi in rois if roi.goal_cell is not None and roi_open_for(robot_id, roi.roi_id, view)),
        key=lambda roi: roi.roi_id,
    )
    if not candidates:
        return None
    result = plan_to(*(roi.goal_cell for roi in candidates))
    if not result.ok:
        return None
    return next(roi for roi in candidates if roi.goal_cell == result.waypoints[-1]), result


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
    claims: dict[str, str] = field(default_factory=dict)
    failures: list[tuple[str, int]] = field(default_factory=list)
    last_wake_version: int = -1  # db.version when idle last turned to selecting
    last_select_tick: int = -(10**9)
    _view_version: int = -1
    _view: dict = field(default_factory=dict)

    def publish_claims(self, db: Database) -> None:
        db.put_local(CLAIMS_KEY, encode_claims(self.claims))

    def _claims_view(self, db: Database) -> dict[str, list[tuple[int, str]]]:
        """merged_claim_view, recomputed only when the replica has changed."""
        if db.version != self._view_version:
            self._view_version = db.version
            self._view = merged_claim_view(db)
        return self._view

    def tick(
        self,
        now: int,
        db: Database,
        rois: list[ROI],
        plan_to,
        tracker_phase: str | None,
    ) -> list[dict]:
        """One mission step. Returns event dicts; sets ``pending_plan`` when
        the engine should start tracking a fresh plan, clears
        ``current_roi`` when it should stop.

        ``rois`` come from the newest map ``db`` holds: a replica holds only
        map and claims records, so ``db.version`` moves whenever either does.
        """
        events: list[dict] = []
        view = self._claims_view(db)

        if self.phase in ("planning", "navigating") and self.current_roi is not None:
            rid = self.current_roi.roi_id
            rivals = [o for o, status in view.get(rid, []) if status == CLAIMED and o != self.robot_id]
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
            if db.version != self.last_wake_version or now - self.last_select_tick >= RESELECT_PERIOD:
                self.last_wake_version = db.version
                self._set_phase("selecting", now, events)
            return events

        if self.phase == "selecting":
            self.last_select_tick = now
            choice = choose_goal(self.robot_id, rois, view, plan_to)
            if choice is None:
                self._set_phase("idle", now, events)
                return events
            self.current_roi, self.pending_plan = choice
            rid = self.current_roi.roi_id
            self.claims[rid] = CLAIMED
            self.publish_claims(db)
            events.append(self._ev(now, "claimed", rid))
            self._set_phase("planning", now, events)
            return events

        if self.phase == "planning":
            # engine has picked up pending_plan and armed the tracker
            self._set_phase("navigating", now, events)
            return events

        if self.phase == "navigating" and tracker_phase in ("done", "cancelled"):
            # the event is named by the status: "visited" or "failed"
            rid = self.current_roi.roi_id
            status = self.claims[rid] = VISITED if tracker_phase == "done" else FAILED
            if status == FAILED:
                self.failures.append((rid, now))
            self.publish_claims(db)
            events.append(self._ev(now, status, rid))
            self.current_roi = None
            self._set_phase("idle", now, events)
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
