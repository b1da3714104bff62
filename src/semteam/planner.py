"""Incremental global planner over the aerial semantic map.

Traversability comes from the road/dirt classes with a morphological close;
the roadmap is grown deterministically by repeatedly placing nodes at the
highest-clearance cell not yet visible to the graph, until every free cell
sees at least one node. A node is linked to every earlier node its own
visible region contains. Pairs of nearby nodes whose regions overlap but
that share neither an edge nor a neighbor are then bridged through a new
node, taken from a worklist of candidate pairs in a fixed order. Edge
weights trade distance against clearance with the printed heuristic
W = lambda*|u-v| + [m^2 + sqrt(m)], m = min clearance along the edge; a new
map version recomputes only the weights of edges whose bounding box holds a
cell where the distance field changed.

Map versions only add free cells. The aerial robot maps at its exact pose,
so every keyframe copies the true class of each footprint cell; the map
accumulator's ``observed`` mask only grows; and the morphological close is
an increasing operator. So the traversable mask of a later version holds
the earlier one, nodes and edges stay valid once made, and the roadmap only
grows, as a visibility roadmap does (Simeon, Laumond & Nissoux, Advanced
Robotics 2000). ``update_roadmap`` rejects a version that breaks this.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.ndimage import distance_transform_edt

from semteam.geometry import segment_free, segment_min_value, visible_from
from semteam.world import SemanticClass, SemanticGridMap, traversable_mask


@dataclass
class TraversabilityGrid:
    """Free/obstacle mask derived from one map version (unknown = obstacle)."""

    free: np.ndarray
    unknown: np.ndarray
    resolution: float
    origin_x: float
    origin_y: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.free.shape


@dataclass
class DistanceField:
    """Euclidean distance (meters) to the nearest obstacle cell; 0 on obstacles."""

    dist: np.ndarray
    resolution: float
    sentinel: float


def extract_traversability(grid_map: SemanticGridMap, close_radius: int) -> TraversabilityGrid:
    """Traversable-class mask, holes filled with a morphological close.

    The closing uses a Euclidean disc of ``close_radius`` cells. Cells
    outside the grid are ignored by the structuring element (rather than
    treated as background), which keeps the close extensive and idempotent
    on the finite grid.
    """
    if grid_map.version < 1:
        raise ValueError("map version must be >= 1")
    free0 = traversable_mask(grid_map.classes)
    unknown = grid_map.classes == SemanticClass.UNKNOWN
    free = _close(free0, close_radius)
    return TraversabilityGrid(
        free=free,
        unknown=np.asarray(unknown),
        resolution=grid_map.resolution,
        origin_x=grid_map.origin_x,
        origin_y=grid_map.origin_y,
    )


def _close(mask: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0 or not mask.any() or mask.all():
        return mask.copy()
    dist_to_free = distance_transform_edt(~mask)
    dilated = dist_to_free <= radius
    if dilated.all():
        return dilated
    dist_to_bg = distance_transform_edt(dilated)
    return dist_to_bg > radius


def distance_transform(grid: TraversabilityGrid) -> DistanceField:
    """Exact Euclidean distance to the nearest obstacle cell, in meters.

    With no obstacles at all, every cell carries the finite sentinel
    (width + height) * resolution so downstream arithmetic stays total.
    """
    h, w = grid.shape
    sentinel = (w + h) * grid.resolution
    obstacles = ~grid.free
    if not obstacles.any():
        dist = np.full((h, w), sentinel)
    else:
        dist = distance_transform_edt(grid.free) * grid.resolution
    return DistanceField(dist=dist, resolution=grid.resolution, sentinel=sentinel)


def edge_weight(
    u: tuple[int, int],
    v: tuple[int, int],
    field: DistanceField,
    lam: float = 1.0,
) -> float:
    """Distance/clearance edge weight; assumes the segment is obstacle-free."""
    return _edge_value(u, v, field, lam)[0]


def _edge_value(u, v, field: DistanceField, lam: float) -> tuple[float, float]:
    """The printed heuristic and the min clearance ``m`` of the edge u-v, as
    the roadmap stores them."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    m = segment_min_value(u, v, field.dist)
    return lam * (math.hypot(u[0] - v[0], u[1] - v[1]) * field.resolution) + (m * m + math.sqrt(m)), m


class VisibilityMap:
    """Which roadmap nodes each cell can see within radius R (and vice versa);
    ``cover`` marks the cells at least one node sees."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.node_cells: dict[int, set[int]] = {}
        self.cover = np.zeros((height, width), dtype=bool)

    def flat(self, cell: tuple[int, int]) -> int:
        return cell[1] * self.width + cell[0]

    def nodes_visible_from(self, cell: tuple[int, int]) -> list[int]:
        f = self.flat(cell)
        return [nid for nid, cells in self.node_cells.items() if f in cells]

    def add_cells(self, nid: int, flats: set[int]) -> None:
        self.node_cells.setdefault(nid, set()).update(flats)
        self.cover.reshape(-1)[np.fromiter(flats, dtype=np.int64, count=len(flats))] = True


class Roadmap:
    """Spatial graph of high-clearance nodes and obstacle-free edges."""

    def __init__(self, radius: float, lam: float = 1.0) -> None:
        if radius <= 0:
            raise ValueError("radius must be > 0")
        self.radius = radius
        self.lam = lam
        self.nodes: dict[int, tuple[int, int]] = {}
        self.edges: dict[tuple[int, int], tuple[float, float]] = {}
        self.adj: dict[int, set[int]] = {}
        self._next_id = 0
        self._prev_free: np.ndarray | None = None
        self._prev_dist: np.ndarray | None = None

    def edge_key(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def neighbors(self, nid: int):
        return self.adj.get(nid, set())

    def components(self) -> dict[int, int]:
        parent = {nid: nid for nid in self.nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return {nid: find(nid) for nid in self.nodes}


def update_roadmap(
    roadmap: Roadmap,
    vis: VisibilityMap | None,
    grid: TraversabilityGrid,
    field: DistanceField,
) -> tuple[Roadmap, VisibilityMap]:
    """Grow the roadmap for a new map version.

    Nodes, edges and visible regions are kept across versions; only newly
    free cells trigger additions. A version must keep every cell the last
    one had free (keyframes copy truth classes, the accumulator's
    ``observed`` mask only grows, and the close is increasing); one that
    loses a free cell raises ``ValueError`` and leaves the roadmap as it was.
    """
    free = grid.free
    prev = roadmap._prev_free
    if prev is not None and (prev & ~free).any():
        raise ValueError("map version turns free cells into obstacles; the roadmap only grows")
    h, w = free.shape
    if vis is None or vis.width != w or vis.height != h:
        vis = VisibilityMap(w, h)
    res = grid.resolution
    r_cells = roadmap.radius / res
    newly_free = free.copy() if prev is None else (free & ~prev)

    # the edges kept from earlier versions; every edge added below gets its
    # weight from this field when it is created
    _refresh_weights(roadmap, field)

    # newly free cells may already see existing nodes
    if newly_free.any() and roadmap.nodes:
        nf_iy, nf_ix = np.nonzero(newly_free)
        for nid, (nx, ny) in roadmap.nodes.items():
            d2 = (nf_ix - nx) ** 2 + (nf_iy - ny) ** 2
            sel = d2 <= r_cells**2
            if not sel.any():
                continue
            cand_ix, cand_iy = nf_ix[sel], nf_iy[sel]
            ob_ix, ob_iy = _window_obstacles(free, (nx, ny), cand_ix, cand_iy)
            seen = visible_from((nx, ny), cand_ix, cand_iy, ob_ix, ob_iy)
            vis.add_cells(nid, {int(iy_ * w + ix_) for ix_, iy_ in zip(cand_ix[seen], cand_iy[seen])})

    # cover every free cell: place nodes at the clearance maxima
    uncovered = free & ~vis.cover
    while uncovered.any():
        flat = int(np.argmax(np.where(uncovered, field.dist, -np.inf)))
        cell = (flat % w, flat // w)
        _add_node(roadmap, vis, grid, field, cell, r_cells)
        uncovered = free & ~vis.cover

    _bridge(roadmap, vis, grid, field, r_cells)

    roadmap._prev_free = free.copy()
    roadmap._prev_dist = field.dist  # fields are never written after they are made
    return roadmap, vis


def _bridge(
    roadmap: Roadmap, vis: VisibilityMap, grid: TraversabilityGrid, field: DistanceField, r_cells
) -> None:
    """Bridge node pairs with overlapping visibility but no path between them.

    "No path" is taken locally: a pair needs an edge or a common neighbor,
    otherwise two nodes covering the same corridor can end up connected
    only the long way around the map. The bridge node goes on the
    highest-clearance overlap cell that holds no node yet.

    Pairs (a, b), a < b, within 2*r_cells of each other are taken in
    lexicographic order: a row-by-row scan of the pairs among the nodes
    placed before bridging, merged with a heap of the pairs pushed after
    each bridge node. Once a pair is skipped it stays skipped for
    the rest of the pass, because every reason to skip it only becomes
    truer as bridge nodes are added: nodes do not move (too far apart),
    edges are only added (already an edge or a common neighbor), existing
    nodes' visible regions do not change (no overlap), and occupied cells
    only accumulate (every overlap cell holds a node). So a skipped pair is
    dropped for good, and after a bridge node n is added only (a, b) itself
    and the pairs (o, n) with o near n can have become bridgeable. Pushing
    those onto the heap makes each pair taken the lexicographically first
    bridgeable one, which is the pair a full rescan of all pairs would pick.
    """
    w = grid.shape[1]
    reach2 = (2 * r_cells) ** 2
    dist = field.dist.reshape(-1)
    occupied = set(roadmap.nodes.values())
    ids = np.array(sorted(roadmap.nodes), dtype=np.int64)
    xy = np.array([roadmap.nodes[int(i)] for i in ids], dtype=np.int64).reshape(-1, 2)
    scan = (
        (int(ids[i]), b)
        for i in range(len(ids) - 1)
        for b in ids[i + 1 :][((xy[i + 1 :] - xy[i]) ** 2).sum(axis=1) <= reach2].tolist()
    )
    heap: list[tuple[int, int]] = []
    adj = roadmap.adj
    nxt = next(scan, None)
    while nxt is not None or heap:
        if heap and (nxt is None or heap[0] < nxt):
            a, b = heapq.heappop(heap)
        else:
            (a, b), nxt = nxt, next(scan, None)
        if b in adj[a] or (adj[a] & adj[b]):
            continue
        overlap = vis.node_cells[a] & vis.node_cells[b]
        if not overlap:
            continue
        cells = np.fromiter(overlap, dtype=np.int64, count=len(overlap))
        cells.sort()
        best = None
        for k in np.argsort(-dist[cells], kind="stable"):
            cell = (int(cells[k]) % w, int(cells[k]) // w)
            if cell not in occupied:
                best = cell
                break
        if best is None:
            continue
        n = _add_node(roadmap, vis, grid, field, best, r_cells)
        occupied.add(best)
        heapq.heappush(heap, (a, b))
        bx, by = best
        for o, (ox, oy) in roadmap.nodes.items():
            if o != n and (ox - bx) ** 2 + (oy - by) ** 2 <= reach2:
                heapq.heappush(heap, (o, n))


def _refresh_weights(roadmap: Roadmap, field: DistanceField) -> None:
    """Recompute the weights of edges whose bounding box holds a cell where
    the distance field changed since the last update.

    An edge's supercover lies inside the bounding box of its end cells, so
    an edge whose box holds no changed cell keeps its exact min clearance.
    The boxes are tested all at once against a summed-area table of the
    changed cells.
    """
    keys = list(roadmap.edges)
    if roadmap._prev_dist is not None:
        changed = field.dist != roadmap._prev_dist
        if not changed.any():
            return
        h, w = changed.shape
        sat = np.zeros((h + 1, w + 1), dtype=np.int32)
        sat[1:, 1:] = changed.cumsum(axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32)
        nodes = roadmap.nodes
        ends = np.fromiter(
            itertools.chain.from_iterable(nodes[a] + nodes[b] for a, b in keys), dtype=np.int64, count=4 * len(keys)
        ).reshape(-1, 4)
        x0 = np.minimum(ends[:, 0], ends[:, 2])
        x1 = np.maximum(ends[:, 0], ends[:, 2]) + 1
        y0 = np.minimum(ends[:, 1], ends[:, 3])
        y1 = np.maximum(ends[:, 1], ends[:, 3]) + 1
        hits = sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]
        keys = [key for key, hit in zip(keys, hits) if hit]
    for key in keys:
        roadmap.edges[key] = _edge_value(roadmap.nodes[key[0]], roadmap.nodes[key[1]], field, roadmap.lam)


def _window_obstacles(free, node, cand_ix, cand_iy):
    """Blocking-relevant obstacle cells in the bounding box of the node and
    candidates. A segment that reaches an obstacle blob's interior must
    first touch a blob boundary cell, so only obstacle cells with a free
    8-neighbor (or on the window rim) are needed for exact blocking tests.
    """
    nx, ny = node
    x_lo = min(int(cand_ix.min()), nx)
    x_hi = max(int(cand_ix.max()), nx)
    y_lo = min(int(cand_iy.min()), ny)
    y_hi = max(int(cand_iy.max()), ny)
    sub_free = free[y_lo : y_hi + 1, x_lo : x_hi + 1]
    obst = ~sub_free
    near_free = np.zeros_like(obst)
    near_free[1:-1, 1:-1] = (
        sub_free[:-2, :-2] | sub_free[:-2, 1:-1] | sub_free[:-2, 2:]
        | sub_free[1:-1, :-2] | sub_free[1:-1, 2:]
        | sub_free[2:, :-2] | sub_free[2:, 1:-1] | sub_free[2:, 2:]
    )
    near_free[0, :] = near_free[-1, :] = True
    near_free[:, 0] = near_free[:, -1] = True
    oy, ox = np.nonzero(obst & near_free)
    return ox + x_lo, oy + y_lo


def _add_node(
    roadmap: Roadmap, vis: VisibilityMap, grid: TraversabilityGrid, field: DistanceField, cell, r_cells
) -> int:
    free = grid.free
    h, w = free.shape
    nx, ny = cell
    nid = roadmap._next_id
    roadmap._next_id += 1
    roadmap.nodes[nid] = (nx, ny)
    roadmap.adj[nid] = set()

    x_lo = max(0, int(math.floor(nx - r_cells)))
    x_hi = min(w - 1, int(math.ceil(nx + r_cells)))
    y_lo = max(0, int(math.floor(ny - r_cells)))
    y_hi = min(h - 1, int(math.ceil(ny + r_cells)))
    sub = free[y_lo : y_hi + 1, x_lo : x_hi + 1]
    cy, cx = np.nonzero(sub)
    cand_ix, cand_iy = cx + x_lo, cy + y_lo
    in_disc = (cand_ix - nx) ** 2 + (cand_iy - ny) ** 2 <= r_cells**2
    cand_ix, cand_iy = cand_ix[in_disc], cand_iy[in_disc]
    ob_ix, ob_iy = _window_obstacles(free, (nx, ny), cand_ix, cand_iy)
    seen = visible_from((nx, ny), cand_ix, cand_iy, ob_ix, ob_iy)
    flats = {int(iy_ * w + ix_) for ix_, iy_ in zip(cand_ix[seen], cand_iy[seen])}
    vis.add_cells(nid, flats)

    # An edge is a clear segment of length <= r_cells, so it links nid to
    # exactly the nodes on cells in its visible region: visible_from and
    # segment_free are the same closed-square slab test, and every slab value
    # is a correctly rounded quotient of small integers, so they agree. Ids
    # only grow, so every other node's id is below nid.
    for other, (ox, oy) in roadmap.nodes.items():
        if other != nid and oy * w + ox in flats:
            roadmap.edges[(other, nid)] = _edge_value((ox, oy), (nx, ny), field, roadmap.lam)
            roadmap.adj[nid].add(other)
            roadmap.adj[other].add(nid)
    return nid


# ---------------------------------------------------------------------------
# queries


@dataclass
class PlanResult:
    ok: bool
    waypoints: list[tuple[int, int]] = dc_field(default_factory=list)
    cost: float = 0.0
    min_clearance: float = math.inf
    reason: str | None = None  # "unmapped" | "unreachable" on failure


def plan(
    roadmap: Roadmap,
    vis: VisibilityMap,
    grid: TraversabilityGrid,
    field: DistanceField,
    start: tuple[int, int],
    goal: tuple[int, int],
) -> PlanResult:
    """Least-weight roadmap route from start to goal, pruned.

    Failure reasons: "unmapped" when an endpoint lies on unknown cells,
    "unreachable" when it is a known obstacle or no graph path exists.
    """
    h, w = grid.shape
    for name, (ix, iy) in (("start", start), ("goal", goal)):
        if not (0 <= ix < w and 0 <= iy < h):
            raise ValueError(f"{name} {ix, iy} outside map bounds")
    for ix, iy in (start, goal):
        if not grid.free[iy, ix]:
            reason = "unmapped" if grid.unknown[iy, ix] else "unreachable"
            return PlanResult(ok=False, reason=reason)
    if start == goal:
        return PlanResult(ok=True, waypoints=[start], cost=0.0)

    start_nodes = vis.nodes_visible_from(start)
    goal_nodes = set(vis.nodes_visible_from(goal))
    if not start_nodes or not goal_nodes:
        return PlanResult(ok=False, reason="unreachable")

    def w_of(u, v):
        return edge_weight(u, v, field, roadmap.lam)

    # Dijkstra over the roadmap plus virtual start/goal connectors
    dist: dict[int, float] = {}
    prev: dict[int, int | None] = {}
    counter = 0
    heap: list[tuple[float, int, int]] = []
    for nid in start_nodes:
        d = w_of(start, roadmap.nodes[nid])
        if d < dist.get(nid, math.inf):
            dist[nid] = d
            prev[nid] = None
            heapq.heappush(heap, (d, counter, nid))
            counter += 1
    best_goal: tuple[float, int] | None = None
    done: set[int] = set()
    while heap:
        d, _, nid = heapq.heappop(heap)
        if nid in done or d > dist.get(nid, math.inf):
            continue
        done.add(nid)
        if nid in goal_nodes:
            total = d + w_of(roadmap.nodes[nid], goal)
            if best_goal is None or total < best_goal[0]:
                best_goal = (total, nid)
        for other in roadmap.neighbors(nid):
            weight, _ = roadmap.edges[roadmap.edge_key(nid, other)]
            nd = d + weight
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                prev[other] = nid
                heapq.heappush(heap, (nd, counter, other))
                counter += 1
    if best_goal is None:
        return PlanResult(ok=False, reason="unreachable")

    chain: list[int] = []
    at: int | None = best_goal[1]
    while at is not None:
        chain.append(at)
        at = prev[at]
    chain.reverse()
    waypoints = [start] + [roadmap.nodes[n] for n in chain] + [goal]
    out: list[tuple[int, int]] = [waypoints[0]]
    for p in waypoints[1:]:
        if p != out[-1]:
            out.append(p)
    waypoints = out

    # prune: drop a waypoint when a direct clear edge is no more expensive
    changed = True
    while changed and len(waypoints) > 2:
        changed = False
        for i in range(1, len(waypoints) - 1):
            a, mid, b = waypoints[i - 1], waypoints[i], waypoints[i + 1]
            if segment_free(a, b, grid.free) and w_of(a, b) <= w_of(a, mid) + w_of(mid, b):
                del waypoints[i]
                changed = True
                break

    cost = 0.0
    clearance = math.inf
    for a, b in zip(waypoints, waypoints[1:]):
        cost += w_of(a, b)
        clearance = min(clearance, segment_min_value(a, b, field.dist))
    return PlanResult(ok=True, waypoints=waypoints, cost=cost, min_clearance=clearance)
