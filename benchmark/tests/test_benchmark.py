"""Tests for the benchmark's own code: the clutter generator, span
self-time arithmetic, patching, output checks, operation counting and
host-speed scaling.

Run from the repository root: ``python3 -m pytest -q benchmark/tests``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import hostspeed  # noqa: E402
import outcome  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---- clutter generator ----------------------------------------------------


def test_clutter_world_is_deterministic_per_seed():
    a, attempt_a = workloads.clutter_world(7)
    b, attempt_b = workloads.clutter_world(7)
    assert attempt_a == attempt_b
    assert np.array_equal(a.truth.classes, b.truth.classes)
    assert np.array_equal(a.truth.elevation, b.truth.elevation)


def test_clutter_worlds_differ_between_seeds():
    a, _ = workloads.clutter_world(1)
    b, _ = workloads.clutter_world(2)
    assert not np.array_equal(a.truth.classes, b.truth.classes)


def test_clutter_world_layout():
    from semteam.world import SemanticClass

    world, _ = workloads.clutter_world(workloads.REFERENCE_SEED)
    cls = world.truth.classes
    n = workloads.CLUTTER_SIZE
    lo, hi = workloads.CLUTTER_STAGING
    assert cls.shape == (n, n)
    border = np.concatenate([cls[0, :], cls[-1, :], cls[:, 0], cls[:, -1]])
    assert (border == SemanticClass.VEGETATION).all()
    assert (cls[lo:hi, lo:hi] == SemanticClass.DIRT_GRAVEL).all()
    assert (cls == SemanticClass.VEHICLE).sum() == 4 * workloads.CLUTTER_VEHICLES
    interior = cls[1:-1, 1:-1]
    obstacles = np.isin(interior, [SemanticClass.VEGETATION, SemanticClass.BUILDING]).sum()
    assert 0.05 < obstacles / interior.size < 0.15
    assert workloads.goals_reachable(world, workloads.CLUTTER_START)


def _world(rows):
    from semteam.world import parse_world

    text = f"{len(rows[0])} {len(rows)} 1.0 0.0 0.0\n" + "\n".join(rows) + "\n"
    return parse_world(text)


def test_goals_reachable_rejects_world_without_targets():
    assert not workloads.goals_reachable(_world(["DDDD"] * 4), (0.5, 0.5))


def test_goals_reachable_rejects_walled_off_target():
    rows = [
        "DDDVDDDDD",
        "DDDVDDDDD",
        "DDDVDDCCD",
        "DDDVDDCCD",
        "DDDVDDDDD",
    ]
    assert not workloads.goals_reachable(_world(rows), (0.5, 0.5))
    assert workloads.goals_reachable(_world(rows), (8.5, 0.5))


def test_clutter_generator_gives_up_with_an_error(monkeypatch):
    monkeypatch.setattr(workloads, "goals_reachable", lambda world, start: False)
    monkeypatch.setattr(workloads, "CLUTTER_ATTEMPTS", 3)
    with pytest.raises(workloads.GeneratorError):
        workloads.clutter_world(0)


def test_workload_configs_validate():
    from semteam.config import ScenarioConfig

    assert set(workloads.SIM_SECONDS) == set(workloads.NAMES)
    for name in workloads.NAMES:
        cfg = workloads.config(name, 5, "some.world")
        assert cfg["seed"] == 5
        ScenarioConfig.from_dict(cfg)
    with pytest.raises(ValueError):
        workloads.config("nope", 0)


# ---- span arithmetic --------------------------------------------------------


def test_self_times_on_nested_spans():
    # 0: [0, 100) root
    #   1: [10, 60)      child of 0
    #     2: [20, 30)    child of 1
    #     3: [35, 50)    child of 1
    #   4: [70, 90)      child of 0
    durations = np.array([100, 50, 10, 15, 20])
    parents = np.array([-1, 0, 1, 1, 0])
    own = spans.self_times(durations, parents)
    assert own.tolist() == [30, 25, 10, 15, 20]
    assert own.sum() == durations[0]


def test_self_times_of_several_roots():
    own = spans.self_times(np.array([5, 7, 3]), np.array([-1, -1, 1]))
    assert own.tolist() == [5, 4, 3]


def test_tracer_records_nesting_and_sums_to_root_time():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.timed("leaf", leaf)

    def middle(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_middle = tracer.timed("middle", middle)
    traced_tick = tracer.timed("engine.tick", lambda: traced_middle(1) + traced_leaf(0))
    assert traced_tick() == 5
    assert traced_tick() == 5

    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    # spans are indexed in call order, parents point at the enclosing call
    assert names[:5] == ["engine.tick", "middle", "leaf", "leaf", "leaf"]
    assert a["parent"][:5].tolist() == [-1, 0, 1, 1, 0]
    assert (a["end_ns"] >= a["start_ns"]).all()
    sums = spans.tick_sums(tracer)
    assert sums["self_ns"] == sums["tick_ns"]
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 6
    assert summary["middle"]["calls"] == 2


def test_tracer_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise RuntimeError("x")

    traced = tracer.timed("boom", boom)
    with pytest.raises(RuntimeError):
        traced()
    assert tracer._stack == []
    assert tracer.span_end[0] >= tracer.span_start[0] > 0


def test_patch_keeps_classmethods_and_uninstall_restores():
    class Thing:
        @classmethod
        def make(cls, x):
            return (cls, x)

        def value(self):
            return 3

    raw_make = Thing.__dict__["make"]
    raw_value = Thing.__dict__["value"]
    seen = []
    tracer = spans.Tracer()
    tracer.patch(Thing, "make", "thing.make")
    tracer.patch(Thing, "value", observe=lambda result, args: seen.append(result))
    assert isinstance(Thing.__dict__["make"], classmethod)
    assert Thing.make(2) == (Thing, 2)
    assert Thing().value() == 3
    assert seen == [3]
    assert tracer.summary()["thing.make"]["calls"] == 1
    tracer.uninstall()
    assert Thing.__dict__["make"] is raw_make
    assert Thing.__dict__["value"] is raw_value


def test_install_semteam_traces_a_short_run_and_restores():
    from semteam import engine, localize
    from semteam.config import ScenarioConfig

    before = (engine.ground_scan, localize.match_costs, localize.PolarObservation.__dict__["from_scan"])
    cfg = ScenarioConfig.from_dict({"seed": 0, "max_ticks": 30, "initial_map": "full"})
    plain = engine.Simulation(cfg)
    plain.run()
    traced_sim = engine.Simulation(ScenarioConfig.from_dict(cfg.to_dict()))
    tracer = spans.Tracer()
    spans.install_semteam(tracer)
    try:
        traced_sim.run()
    finally:
        tracer.uninstall()
    after = (engine.ground_scan, localize.match_costs, localize.PolarObservation.__dict__["from_scan"])
    assert after == before
    assert traced_sim.events == plain.events
    metrics = spans.layer_metrics(tracer)
    assert metrics["world.ground_scan.calls"] == 2 * 8  # 2 robots, a scan every 4 ticks
    assert metrics["localize.from_scan.calls"] == metrics["world.ground_scan.calls"]
    assert metrics["localize.predict.calls"] == 2 * 30
    sums = spans.tick_sums(tracer)
    assert sums["self_ns"] == sums["tick_ns"] > 0


# ---- outputs and operations -------------------------------------------------


def _fake_sim(reached, known=("a", "b", "c"), errors=(0.1, 0.2)):
    events = [json.dumps({"ev": "target_reached", "target": t, "tick": i}) for i, t in enumerate(reached)]
    return SimpleNamespace(
        events=events,
        true_targets=[SimpleNamespace(roi_id=k) for k in known],
        loc_err={1: list(errors)},
    )


def test_check_accepts_consistent_outputs():
    assert outcome.check(_fake_sim(["a", "b"]), SimpleNamespace(targets_visited=2)) == []


def test_check_flags_repeats_unknown_targets_miscounts_and_nan():
    problems = outcome.check(
        _fake_sim(["a", "a", "z"], errors=(0.1, float("nan"))), SimpleNamespace(targets_visited=2)
    )
    text = " ".join(problems)
    assert "repeats" in text
    assert "unknown" in text
    assert "3 target_reached events" in text
    assert "non-finite" in text


def test_events_digest_matches_events_file_bytes():
    import hashlib

    lines = ['{"a":1}', '{"b":2}']
    assert outcome.events_digest(lines) == hashlib.sha256(b'{"a":1}\n{"b":2}\n').hexdigest()


def test_operations_complete_run():
    assert outcome.operations(13, {"targets_missed": 0, "problems": []}) == (13, 0)


def test_operations_incomplete_run_misses_but_does_not_fail():
    assert outcome.operations(13, {"targets_missed": 1, "problems": []}) == (13, 0)


def test_operations_crashed_run_fails_every_target():
    assert outcome.operations(13, None) == (13, 13)


def test_operations_run_with_failed_check_fails_every_target():
    assert outcome.operations(4, {"targets_missed": 0, "problems": ["bad"]}) == (4, 4)


# ---- host speed ------------------------------------------------------------


def test_scaled_time_divides_each_tick_by_the_host_speed_around_it():
    ref = hostspeed.REFERENCE_NS
    second = 10**9
    # two ticks one second apart; the host ran at half speed around the second
    tick_at = [0, 5 * second]
    tick = [100, 300]
    ref_at = [0, 10, 5 * second, 5 * second + 10]
    samples = [ref, ref, 2 * ref, 2 * ref]
    assert hostspeed.scaled_s(tick_at, tick, ref_at, samples) == pytest.approx((100 + 150) / 1e9)
    # a tick with no sample in its window falls back to the run's median
    assert hostspeed.scaled_s([0], [400], [3 * second], [2 * ref]) == pytest.approx(200 / 1e9)


def test_scaled_time_takes_the_median_over_the_window():
    ref = hostspeed.REFERENCE_NS
    samples = [ref, ref, 9 * ref]
    assert hostspeed.scaled_s([0], [1000], [0, 1, 2], samples) == pytest.approx(1000 / 1e9)


def test_scaled_time_window_reaches_past_the_tick_end():
    ref = hostspeed.REFERENCE_NS
    second = 10**9
    long_tick = [0], [4 * second]
    # a sample inside the tick and one just after it count; one far after does not
    at = [2 * second, 4 * second + 100, 9 * second]
    samples = [2 * ref, 2 * ref, ref]
    assert hostspeed.scaled_s(*long_tick, at, samples) == pytest.approx(2.0)


def test_scaled_time_rejects_mismatched_or_missing_samples():
    with pytest.raises(ValueError):
        hostspeed.scaled_s([0, 1], [5], [0], [1])
    with pytest.raises(ValueError):
        hostspeed.scaled_s([0], [5], [], [])


def test_scaled_setup_time():
    ref = hostspeed.BURST_REFERENCE_NS
    assert hostspeed.scaled_setup_s(0.5, [ref, 2 * ref, 2 * ref]) == pytest.approx(0.25)


def test_sampler_leaves_its_time_out_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(period_s=0.005)
    sampler.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(100))
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(sampler.at_ns) == len(sampler.ref_ns) >= 2
    assert sampler.at_ns == sorted(sampler.at_ns)
    assert sampler.spent_ns == sum(sampler.ref_ns)


def test_host_times_are_medians_over_simulations_and_set_ups():
    import run

    ref = hostspeed.REFERENCE_NS
    burst = hostspeed.BURST_REFERENCE_NS

    def sim(slow: int, rss: float) -> dict:
        return {
            "ticks": 2,
            "tick_at_ns": [0, 1000],
            "tick_ns": [slow * 400, slow * 600],
            "ref_at_ns": [0],
            "ref_ns": [slow * ref],
            "setup_s": 0.4 * slow,
            "setup_ref_ns": [slow * burst],
            "peak_rss_mb": rss,
        }

    sims = [sim(1, 80.0), sim(2, 81.0), sim(3, 90.0)]
    values = run.host_times(sims, sims)
    assert values["wall_s"] == pytest.approx(1000 / 1e9)
    assert values["ms_per_tick"] == pytest.approx(1e3 * 1000 / 1e9 / 2)
    assert values["setup_s"] == pytest.approx(0.4)
    assert values["peak_rss_mb"] == 81.0
    assert values["raw_wall_s"] == pytest.approx(2000 / 1e9)
    assert values["raw_setup_s"] == pytest.approx(0.8)


def test_consistent_digests_within_a_run_and_across_runs(tmp_path):
    import run

    cache = tmp_path / "digests.json"
    assert run.consistent_digests([{"digest": "a"}, {"digest": "a"}], cache, "k") == []
    assert run.consistent_digests([{"digest": "a"}], cache, "k") == []
    assert "earlier run" in run.consistent_digests([{"digest": "b"}], cache, "k")[0]
    assert run.consistent_digests([{"digest": "b"}], cache, "other") == []
    assert "one run" in run.consistent_digests([{"digest": "a"}, {"digest": "c"}], cache, "j")[0]


def test_scenario_key_covers_config_and_world(tmp_path):
    import run

    (tmp_path / "w.world").write_text("one")
    cfg = {"seed": 0, "world": "w.world"}
    key = run.scenario_key(tmp_path, cfg, "src")
    assert key == run.scenario_key(tmp_path, dict(cfg), "src")
    assert key != run.scenario_key(tmp_path, {**cfg, "max_ticks": 5}, "src")
    assert key != run.scenario_key(tmp_path, cfg, "other-src")
    (tmp_path / "w.world").write_text("two")
    assert key != run.scenario_key(tmp_path, cfg, "src")
