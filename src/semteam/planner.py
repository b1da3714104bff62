"""Global planner over the aerial semantic map.

Each map version gives one planning grid: the road/dirt classes with a
morphological close, and every cell's clearance to the nearest obstacle.
Each grid gives one roadmap, built from that grid alone, as a visibility
roadmap is a function of one map (Simeon, Laumond & Nissoux, Advanced
Robotics 2000). Nodes are placed deterministically by repeatedly taking the
highest-clearance cell not yet visible to the graph, until every free cell
sees at least one node. A node is linked to every earlier node its own
visible region contains. Pairs of nearby nodes whose regions overlap but
that share neither an edge nor a neighbor are then bridged through a new
node, taken from a worklist of candidate pairs in a fixed order; a pair
joins the worklist after a bridge node only if it still lacks both. A
node's visible region is found by quadrant (``geometry.visible_from``),
each quadrant against the obstacles on its side of the node. An edge
stores only its weight, which trades distance against clearance with the
printed heuristic at lambda = 1: W = |u-v| + [m^2 + sqrt(m)], m = min
clearance along the edge. A plan searches the roadmap once from its start
and routes to its goals over that tree, so one search serves each selection
of a robot's next target. It routes the goals nearest the start first, and
stops at the first goal whose straight-line length alone costs more than
the best route found, since no weight is below its segment's length.
Weights are computed in batches by ``geometry.segments_min_value``, which
tests at most ``geometry.BLOCK`` cells at a time: every edge a new node
makes, and a plan's connectors and pruning candidates. Clearance is 0
exactly on the cells that are not free, so the same minimum also tells
whether a segment is clear.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from semteam.geometry import disc_cells, segments_min_value, visible_from
from semteam.world import SemanticGridMap, traversable_mask


@dataclass(frozen=True)
class TraversabilityGrid:
    """The planning state of one map version: the free mask (unknown =
    obstacle) and ``dist``, the Euclidean distance in meters to the nearest
    obstacle cell, 0 exactly on obstacles. Its arrays are read-only, as a
    map snapshot's are."""

    free: np.ndarray
    dist: np.ndarray
    resolution: float

    def __post_init__(self) -> None:
        for layer in (self.free, self.dist):
            layer.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.free.shape


def extract_traversability(grid_map: SemanticGridMap, close_radius: int) -> TraversabilityGrid:
    """Traversable-class mask, holes filled with a morphological close, and
    its distance to the nearest obstacle.

    The closing uses a Euclidean disc of ``close_radius`` cells. Cells
    outside the grid are ignored by the structuring element (rather than
    treated as background), which keeps the close extensive and idempotent
    on the finite grid.
    """
    if grid_map.version < 1:
        raise ValueError("map version must be >= 1")
    free = _close(traversable_mask(grid_map.classes), close_radius)
    return TraversabilityGrid(
        free=free,
        dist=distance_transform(free, grid_map.resolution),
        resolution=grid_map.resolution,
    )


def _close(mask: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0 or not mask.any() or mask.all():
        return mask.copy()
    dist_to_free = _edt(~mask)
    dilated = dist_to_free <= radius
    if dilated.all():
        return dilated
    dist_to_bg = _edt(dilated)
    return dist_to_bg > radius


def _edt(mask: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance, in cells, from each cell to the nearest
    False cell of ``mask``, which must hold one.

    Separable (Felzenszwalb & Huttenlocher, Theory of Computing 2012): a
    column pass finds each cell's vertical distance ``g`` to the nearest
    False cell in its column; a row pass takes the least ``g[x']**2 +
    (x - x')**2`` over growing column offsets ``k``, and stops once ``k*k``
    exceeds every squared distance found so far, since no farther column can
    lower one. Each result is the correctly rounded square root of an exact
    integer, so it is the float any exact Euclidean transform returns.
    """
    h, w = mask.shape
    rows = np.arange(h, dtype=np.int64)[:, None]
    far = h + w  # a column without a False cell is farther than any real one
    bg = ~mask
    above = np.maximum.accumulate(np.where(bg, rows, -far), axis=0)
    below = np.minimum.accumulate(np.where(bg, rows, h + far)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows)
    g2 = g * g
    d2 = g2.copy()
    k = 1
    while k < w and k * k <= d2.max():
        kk = k * k
        np.minimum(d2[:, k:], g2[:, :-k] + kk, out=d2[:, k:])
        np.minimum(d2[:, :-k], g2[:, k:] + kk, out=d2[:, :-k])
        k += 1
    return np.sqrt(d2)


def distance_transform(free: np.ndarray, resolution: float) -> np.ndarray:
    """Exact Euclidean distance from each cell to the nearest cell that is
    not ``free``, in meters (``_edt`` times the resolution): 0 on those
    cells, at least one cell's width elsewhere.

    With no obstacles at all, every cell carries the finite sentinel
    (width + height) * resolution so downstream arithmetic stays total.
    """
    h, w = free.shape
    if free.all():
        return np.full((h, w), (w + h) * resolution)
    return _edt(free) * resolution


def _weigh(ends: list[tuple[int, int, int, int]], grid: TraversabilityGrid) -> list[tuple[float, float]]:
    """``(weight, clearance)`` of each segment ``(ux, uy, vx, vy)``, with one
    batched supercover minimum for all of them. The clearance is the least
    ``grid.dist`` the segment touches, above 0 iff every cell it touches is
    free; the weight trades length against it."""
    res = grid.resolution
    mins = segments_min_value(np.array(ends, dtype=np.int64).reshape(-1, 4), grid.dist).tolist()
    return [
        (math.hypot(ux - vx, uy - vy) * res + (m * m + math.sqrt(m)), m) for (ux, uy, vx, vy), m in zip(ends, mins)
    ]


def edge_weights(ends: list[tuple[int, int, int, int]], grid: TraversabilityGrid) -> list[float]:
    """The weight of each segment, assumed obstacle-free."""
    return [weight for weight, _ in _weigh(ends, grid)]


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
        """Record the cells node ``nid`` sees; the map keeps ``flats``
        itself."""
        self.node_cells[nid] = flats
        self.cover.reshape(-1)[np.fromiter(flats, dtype=np.int64, count=len(flats))] = True


#: visibility radius of the ground robots' roadmaps, in meters
NODE_RADIUS = 25.0


class Roadmap:
    """Spatial graph of high-clearance nodes and obstacle-free edges."""

    def __init__(self) -> None:
        self.nodes: dict[int, tuple[int, int]] = {}
        self.edges: dict[tuple[int, int], float] = {}  # (a, b), a < b -> weight
        self.adj: dict[int, set[int]] = {}


def update_roadmap(grid: TraversabilityGrid, radius: float) -> tuple[Roadmap, VisibilityMap]:
    """The roadmap of one planning grid with visibility radius ``radius`` in
    meters, and the cells each of its nodes sees: nodes at the clearance
    maxima until every free cell sees one, then bridges (``_bridge``)."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    roadmap = Roadmap()
    free = grid.free
    h, w = free.shape
    vis = VisibilityMap(w, h)
    r_cells = radius / grid.resolution
    uncovered = free
    while uncovered.any():
        flat = int(np.argmax(np.where(uncovered, grid.dist, -np.inf)))
        _add_node(roadmap, vis, grid, (flat % w, flat // w), r_cells)
        uncovered = free & ~vis.cover
    _bridge(roadmap, vis, grid, r_cells)
    return roadmap, vis


def _bridge(roadmap: Roadmap, vis: VisibilityMap, grid: TraversabilityGrid, r_cells) -> None:
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
    dropped for good. A bridge node n sits on a cell that both a and b see,
    so ``_add_node`` links it to both and (a, b) is done; only the pairs
    (o, n) with o near n can have become bridgeable. Pushing those onto the
    heap makes each pair taken the lexicographically first bridgeable one,
    which is the pair a full rescan of all pairs would pick. Each of them is
    pushed only if it has neither an edge nor a common neighbor yet: one
    that has would be skipped when popped, for the same reason. The test
    stops at the first common neighbor it finds.
    """
    w = grid.shape[1]
    reach2 = (2 * r_cells) ** 2
    dist = grid.dist.reshape(-1)
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
        # an edge or a common neighbor; isdisjoint stops at the first one
        if b in adj[a] or not adj[a].isdisjoint(adj[b]):
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
        n = _add_node(roadmap, vis, grid, best, r_cells)
        occupied.add(best)
        bx, by = best
        for o, (ox, oy) in roadmap.nodes.items():
            near = o != n and (ox - bx) ** 2 + (oy - by) ** 2 <= reach2
            if near and n not in adj[o] and adj[o].isdisjoint(adj[n]):
                heapq.heappush(heap, (o, n))


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


def _add_node(roadmap: Roadmap, vis: VisibilityMap, grid: TraversabilityGrid, cell, r_cells) -> int:
    free = grid.free
    w = free.shape[1]
    nx, ny = cell
    nid = len(roadmap.nodes)  # a roadmap never loses a node
    roadmap.nodes[nid] = (nx, ny)
    roadmap.adj[nid] = set()

    cand_ix, cand_iy = disc_cells(free, [cell], r_cells)
    ob_ix, ob_iy = _window_obstacles(free, (nx, ny), cand_ix, cand_iy)
    seen = visible_from((nx, ny), cand_ix, cand_iy, ob_ix, ob_iy)
    flats = set((cand_iy[seen] * w + cand_ix[seen]).tolist())
    vis.add_cells(nid, flats)

    # An edge is a clear segment of length <= r_cells, so it links nid to
    # exactly the nodes on cells in its visible region: visible_from and
    # segment_cells are the same closed-square slab test, and every slab
    # value is a correctly rounded quotient of small integers, so they agree.
    # Ids only grow, so every other node's id is below nid.
    others = [other for other, (ox, oy) in roadmap.nodes.items() if other != nid and oy * w + ox in flats]
    weights = edge_weights([roadmap.nodes[other] + (nx, ny) for other in others], grid)
    for other, weight in zip(others, weights):
        roadmap.edges[(other, nid)] = weight
        roadmap.adj[nid].add(other)
        roadmap.adj[other].add(nid)
    return nid


# ---------------------------------------------------------------------------
# queries


@dataclass
class PlanResult:
    ok: bool
    waypoints: list[tuple[int, int]] = field(default_factory=list)
    cost: float = 0.0


def plan(
    roadmap: Roadmap, vis: VisibilityMap, grid: TraversabilityGrid, start: tuple[int, int], *goals: tuple[int, int]
) -> PlanResult:
    """Least-weight roadmap route from start to the cheapest of ``goals``,
    pruned; the first of equally cheap goals wins. Goals are routed nearest
    first, and only while one can still cost no more than the best route.
    The plan fails when the start or every goal is not free, or no goal is
    reached over the roadmap.
    """
    if not goals:
        raise ValueError("plan needs a goal")
    h, w = grid.shape
    for name, (ix, iy) in (("start", start), *(("goal", goal) for goal in goals)):
        if not (0 <= ix < w and 0 <= iy < h):
            raise ValueError(f"{name} {ix, iy} outside map bounds")
    sx, sy = start
    if not grid.free[sy, sx]:
        return PlanResult(ok=False)
    # every weight is at least its segment's length times the resolution, so
    # a goal's pruned cost is at least its straight-line length: once that
    # exceeds the best cost, up to float rounding, no later goal can win
    bounds = sorted(
        (math.hypot(gx - sx, gy - sy) * grid.resolution, i) for i, (gx, gy) in enumerate(goals) if grid.free[gy, gx]
    )
    best = tree = None
    for bound, i in bounds:
        if best is not None and bound > best[0] * (1 + 1e-9):
            break
        if goals[i] == start:
            route = PlanResult(ok=True, waypoints=[start], cost=0.0)
        else:
            tree = tree or _search(roadmap, vis, grid, start)
            route = _route(roadmap, vis, grid, start, goals[i], *tree)
        if route.ok and (best is None or (route.cost, i) < best[:2]):
            best = (route.cost, i, route)
    return best[2] if best is not None else PlanResult(ok=False)


def _search(roadmap: Roadmap, vis: VisibilityMap, grid: TraversabilityGrid, start: tuple[int, int]):
    """Dijkstra from start over the roadmap plus virtual start connectors: the
    ``(cost, pop rank)`` of each settled node, and the predecessor of each
    reached one. It never stops early, so it serves every goal. A node's
    pushes carry strictly falling costs, so only its last one is current."""
    dist: dict[int, float] = {}
    prev: dict[int, int | None] = {}
    settled: dict[int, tuple[float, int]] = {}
    order, heap = itertools.count(), []
    start_nodes = vis.nodes_visible_from(start)
    for nid, d in zip(start_nodes, edge_weights([(*start, *roadmap.nodes[nid]) for nid in start_nodes], grid)):
        dist[nid] = d
        prev[nid] = None
        heapq.heappush(heap, (d, next(order), nid))
    while heap:
        d, _, nid = heapq.heappop(heap)
        if d > dist[nid]:
            continue
        settled[nid] = (d, len(settled))
        # ascending ids, so ties between equal-cost routes break the same
        # way whatever order an adjacency set iterates in
        for other in sorted(roadmap.adj[nid]):
            nd = d + roadmap.edges[(nid, other) if nid < other else (other, nid)]
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                prev[other] = nid
                heapq.heappush(heap, (nd, next(order), other))
    return settled, prev


def _route(roadmap, vis, grid, start, goal, settled, prev) -> PlanResult:
    """The pruned route to ``goal`` over the tree of ``_search``, through
    the node the goal sees with the least cost, the earliest popped on ties."""
    ends = [nid for nid in vis.nodes_visible_from(goal) if nid in settled]
    if not ends:
        return PlanResult(ok=False)
    to_goal = edge_weights([(*roadmap.nodes[nid], *goal) for nid in ends], grid)
    _, _, at = min((settled[nid][0] + t, settled[nid][1], nid) for nid, t in zip(ends, to_goal))
    chain: list[int] = []
    while at is not None:
        chain.append(at)
        at = prev[at]
    waypoints = [start]
    for p in [roadmap.nodes[n] for n in reversed(chain)] + [goal]:
        if p != waypoints[-1]:
            waypoints.append(p)

    # prune: drop the first waypoint whose neighbors a clear direct edge
    # joins at no more cost, until none is left; each round weighs the
    # segments no earlier round did, in one batch, which also tells which
    # are clear
    weighed: dict[tuple[int, int, int, int], tuple[float, float]] = {}
    while True:
        steps = [(*a, *b) for a, b in zip(waypoints, waypoints[1:])]
        skips = [(*a, *b) for a, b in zip(waypoints, waypoints[2:])]
        fresh = [seg for seg in steps + skips if seg not in weighed]
        weighed.update(zip(fresh, _weigh(fresh, grid)))
        for i, skip in enumerate(skips, 1):
            weight, clearance = weighed[skip]
            if clearance > 0 and weight <= weighed[steps[i - 1]][0] + weighed[steps[i]][0]:
                del waypoints[i]
                break
        else:
            break

    # a left fold: from Python 3.12, sum() rounds a float sum differently
    cost = 0.0
    for step in steps:
        cost += weighed[step][0]
    return PlanResult(ok=True, waypoints=waypoints, cost=cost)
