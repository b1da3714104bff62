"""Outside-in span tracing for a semteam simulation.

The tracer replaces module attributes and class methods of ``semteam`` with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Spans stay in memory and are written out once,
at the end of the run. Per-layer self time is a span's duration minus the
durations of its direct children.

Nothing under ``src/`` knows about the tracer; uninstalling restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Per-span self time: its duration minus the durations of its children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    durations = np.asarray(durations, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    child_total = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    return durations - child_total.astype(np.int64)


class Tracer:
    """Records spans around wrapped callables and counters from their results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(result, args)``
        runs after the span closes, so its cost lands in the parent span."""
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def counted(self, fn, observe):
        """Wrap ``fn`` without a span, only to observe its results."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(result, args)
            return result

        return wrapper

    # ---- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str | None = None, observe=None) -> None:
        """Replace ``owner.attr`` with a traced (``name`` given) or counted
        wrapper. Classmethods and staticmethods keep their descriptor kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapped = self.timed(name, fn, observe) if name is not None else self.counted(fn, observe)
        setattr(owner, attr, kind(wrapped) if kind is not None else wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ---- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "start_ns": np.asarray(self.span_start, dtype=np.int64),
            "end_ns": np.asarray(self.span_end, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: self time (ms), call count, and the inclusive max and
        percentiles (ms) of its spans."""
        a = self.arrays()
        if a["name"].size == 0:
            return {}
        dur = a["end_ns"] - a["start_ns"]
        own = self_times(dur, a["parent"])
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            if not sel.any():
                continue
            d = dur[sel]
            out[name] = {
                "self_ms": float(own[sel].sum()) / 1e6,
                "calls": int(sel.sum()),
                "max_ms": float(d.max()) / 1e6,
                "p50_ms": float(np.percentile(d, 50)) / 1e6,
                "p99_ms": float(np.percentile(d, 99)) / 1e6,
            }
        return out


def tick_sums(tracer: Tracer) -> dict[str, int]:
    """Total self time of every span and total duration of the tick spans.

    Every traced call happens inside a tick, so the two are equal when the
    self-time arithmetic accounts for all of the tick time.
    """
    a = tracer.arrays()
    dur = a["end_ns"] - a["start_ns"]
    tick = tracer.names.index("engine.tick") if "engine.tick" in tracer.names else -1
    return {
        "self_ns": int(self_times(dur, a["parent"]).sum()),
        "tick_ns": int(dur[a["name"] == tick].sum()),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install_semteam(tracer: Tracer) -> None:
    """Wrap the public functions every tick calls, at the names the callers
    look them up by.

    ``engine`` imports ``ground_scan`` by name, so the engine's binding is the
    one patched; ``update_and_resample`` finds ``match_costs`` in
    ``semteam.localize``; ``PolarObservation.from_scan`` is a classmethod.
    """
    from semteam import aerial, engine, gossip, localize, mission, planner, tracker

    c, mx = tracer.counters, tracer.maxima
    p = tracer.patch

    # engine phases
    p(engine.Simulation, "tick", "engine.tick")
    p(engine.AerialAgent, "integrate", "engine.integrate")
    p(engine.GroundAgent, "integrate", "engine.integrate")
    p(engine.GroundAgent, "odometry", "engine.odometry")
    p(engine.GroundAgent, "autonomy", "engine.ground_autonomy")
    p(engine.AerialAgent, "autonomy", "engine.aerial_autonomy")

    # world
    p(engine, "ground_scan", "world.ground_scan")

    # localize
    def on_update(result, args):
        info = result[2]
        c["localize.resampled"] += info.resampled
        c["localize.ess_sum"] += info.ess

    p(localize, "predict", "localize.predict")
    p(localize.PolarObservation, "from_scan", "localize.from_scan")
    p(localize, "match_costs", "localize.match_costs")
    p(localize, "update_and_resample", "localize.update_and_resample", on_update)

    # tracker
    p(tracker, "integrate_scan", "tracker.integrate_scan")
    p(tracker, "step", "tracker.step")

    # aerial
    def on_keyframe(result, args):
        c["aerial.keyframes"] += result is not None

    def on_encode(result, args):
        c["aerial.snapshot_bytes"] += len(result)

    p(aerial, "maybe_create_keyframe", "aerial.maybe_create_keyframe", on_keyframe)
    p(aerial.MapAccumulator, "fuse_keyframe", "aerial.fuse_keyframe")
    p(aerial.MapAccumulator, "snapshot", "aerial.snapshot")
    p(aerial, "encode_snapshot", "aerial.encode_snapshot", on_encode)
    p(aerial, "decode_snapshot", "aerial.decode_snapshot")

    # planner
    def on_roadmap(result, args):
        roadmap = result[0]
        mx["planner.roadmap_nodes"] = max(mx["planner.roadmap_nodes"], len(roadmap.nodes))
        mx["planner.roadmap_edges"] = max(mx["planner.roadmap_edges"], len(roadmap.edges))

    def on_plan(result, args):
        c["planner.plan.ok"] += bool(result.ok)

    p(planner, "extract_traversability", "planner.extract_traversability")
    p(planner, "distance_transform", "planner.distance_transform")
    p(planner, "update_roadmap", "planner.update_roadmap", on_roadmap)
    p(planner, "plan", "planner.plan", on_plan)

    # mission
    def on_mission(result, args):
        c["mission.claims"] += sum(ev["ev"] == "claimed" for ev in result)

    p(mission, "extract_rois", "mission.extract_rois")
    p(mission.MissionController, "tick", "mission.tick", on_mission)

    # gossip
    def on_sync(result, args):
        c["gossip.useful_syncs"] += (result[0] + result[1]) > 0

    def on_diff(result, args):
        c["gossip.records_shipped"] += len(result)
        c["gossip.bytes_shipped"] += sum(len(r.payload) for r in result)

    p(gossip, "sync_pair", "gossip.sync_pair", on_sync)
    p(gossip.Database, "diff", observe=on_diff)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    s = tracer.summary()
    c, mx = tracer.counters, tracer.maxima

    def ms(name):
        return s.get(name, {}).get("self_ms", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    tick = s.get("engine.tick", {})
    m = {
        "engine.tick.ms": ms("engine.tick"),
        "engine.integrate.ms": ms("engine.integrate"),
        "engine.odometry.ms": ms("engine.odometry"),
        "engine.ground_autonomy.ms": ms("engine.ground_autonomy"),
        "engine.aerial_autonomy.ms": ms("engine.aerial_autonomy"),
        "engine.tick.p50_ms": tick.get("p50_ms", 0.0),
        "engine.tick.p99_ms": tick.get("p99_ms", 0.0),
        "world.ground_scan.ms": ms("world.ground_scan"),
        "world.ground_scan.calls": calls("world.ground_scan"),
    }
    for name in ("predict", "from_scan", "match_costs", "update_and_resample"):
        m[f"localize.{name}.ms"] = ms(f"localize.{name}")
        m[f"localize.{name}.calls"] = calls(f"localize.{name}")
    updates = calls("localize.update_and_resample")
    m["localize.updates_per_scan"] = ratio(updates, calls("world.ground_scan"))
    m["localize.resample_frac"] = ratio(c["localize.resampled"], updates)
    m["localize.ess_mean"] = ratio(c["localize.ess_sum"], updates)
    for name in ("integrate_scan", "step"):
        m[f"tracker.{name}.ms"] = ms(f"tracker.{name}")
        m[f"tracker.{name}.calls"] = calls(f"tracker.{name}")
    m["aerial.maybe_create_keyframe.ms"] = ms("aerial.maybe_create_keyframe")
    m["aerial.keyframes"] = c["aerial.keyframes"]
    m["aerial.fuse_keyframe.ms"] = ms("aerial.fuse_keyframe")
    m["aerial.snapshot.ms"] = ms("aerial.snapshot")
    m["aerial.encode_snapshot.ms"] = ms("aerial.encode_snapshot")
    m["aerial.decode_snapshot.ms"] = ms("aerial.decode_snapshot")
    m["aerial.decode_snapshot.calls"] = calls("aerial.decode_snapshot")
    m["aerial.snapshot_bytes"] = ratio(c["aerial.snapshot_bytes"], calls("aerial.encode_snapshot"))
    m["planner.extract_traversability.ms"] = ms("planner.extract_traversability")
    m["planner.distance_transform.ms"] = ms("planner.distance_transform")
    m["planner.update_roadmap.ms"] = ms("planner.update_roadmap")
    m["planner.update_roadmap.calls"] = calls("planner.update_roadmap")
    m["planner.update_roadmap.max_ms"] = s.get("planner.update_roadmap", {}).get("max_ms", 0.0)
    m["planner.roadmap_nodes"] = mx["planner.roadmap_nodes"]
    m["planner.roadmap_edges"] = mx["planner.roadmap_edges"]
    m["planner.rebuild_frac"] = ratio(calls("planner.update_roadmap"), calls("aerial.decode_snapshot"))
    m["planner.plan.ms"] = ms("planner.plan")
    m["planner.plan.calls"] = calls("planner.plan")
    m["planner.plan.ok_frac"] = ratio(c["planner.plan.ok"], calls("planner.plan"))
    m["mission.extract_rois.ms"] = ms("mission.extract_rois")
    m["mission.tick.ms"] = ms("mission.tick")
    m["mission.plans_per_claim"] = ratio(calls("planner.plan"), c["mission.claims"])
    m["gossip.sync_pair.ms"] = ms("gossip.sync_pair")
    m["gossip.sync_pair.calls"] = calls("gossip.sync_pair")
    m["gossip.sync_useful_frac"] = ratio(c["gossip.useful_syncs"], calls("gossip.sync_pair"))
    m["gossip.records_shipped"] = c["gossip.records_shipped"]
    m["gossip.bytes_shipped"] = c["gossip.bytes_shipped"]
    return m
