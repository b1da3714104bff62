"""What one simulation produced, the checks on it, and how its operations
are counted.

An operation is one true target. A simulation attempts every true target
of its scenario. Targets it does not reach are reported as
``targets_missed``; targets count as failed only when the simulation
delivered no checked result: it raised, hit the time limit or failed an
output check.
"""

from __future__ import annotations

import hashlib
import json
import math


def events_digest(events: list[str]) -> str:
    """sha256 of the event log exactly as ``events.jsonl`` would hold it."""
    return hashlib.sha256(("\n".join(events) + "\n").encode("ascii")).hexdigest()


def check(sim, report) -> list[str]:
    """Output checks on a finished simulation; returns the problems found."""
    problems = []
    reached = [
        ev["target"]
        for ev in (json.loads(line) for line in sim.events if '"target_reached"' in line)
        if ev["ev"] == "target_reached"
    ]
    if len(set(reached)) != len(reached):
        problems.append(f"target_reached repeats a target: {sorted(reached)}")
    known = {t.roi_id for t in sim.true_targets}
    if not set(reached) <= known:
        problems.append(f"target_reached names unknown targets: {sorted(set(reached) - known)}")
    if len(reached) != report.targets_visited:
        problems.append(
            f"{len(reached)} target_reached events but targets_visited={report.targets_visited}"
        )
    bad = [rid for rid, errs in sim.loc_err.items() if not all(math.isfinite(e) for e in errs)]
    if bad:
        problems.append(f"non-finite localization error for robots {bad}")
    return problems


def measure(sim, report, wall_s: float) -> dict:
    """Host and sim metrics, event digest and check results of one run."""
    mission_s = (
        report.duration_s if report.duration_s is not None else report.ticks * sim.cfg.tick_seconds
    )
    return {
        "wall_s": wall_s,
        "ticks": report.ticks,
        "ms_per_tick": 1e3 * wall_s / max(report.ticks, 1),
        "mission_s": mission_s,
        "n_targets": report.n_targets,
        "targets_visited": report.targets_visited,
        "targets_missed": report.n_targets - report.targets_visited,
        "loc_err_late_m": report.loc_err_late_mean,
        "distance_m": report.total_distance_m,
        "claim_conflicts": sum('"claim_released"' in line for line in sim.events),
        "digest": events_digest(sim.events),
        "problems": check(sim, report),
    }


def operations(n_targets: int, result: dict | None) -> tuple[int, int]:
    """(attempted, failed) for one simulation.

    ``result`` is the simulation's result, or None when it raised or timed
    out. A result with problems fails all of its targets; a target that is
    merely not reached does not fail.
    """
    if result is None or result.get("problems"):
        return n_targets, n_targets
    return n_targets, 0
