"""Run one semteam simulation in a fresh process and print its result.

Usage: ``python3 benchmark/simrun.py SPEC_JSON`` from the checkout root, with
the checkout's ``src`` on ``PYTHONPATH``. SPEC_JSON holds:

* ``config``: ScenarioConfig overrides;
* ``src``: the directory semteam must be imported from;
* ``run``: false to stop after set-up (a set-up sample);
* ``trace_path``: when set, trace the run and write its spans there.

The last line of standard output is one JSON object. Only the standard
library is imported before the set-up clock starts, so ``setup_s`` covers
importing semteam and its dependencies, config validation, world load, truth
ROI extraction and agent construction; ``setup_ref_ns`` times a burst of
reference work right after it. ``tick_ns`` holds each tick's
host time and ``tick_at_ns`` its start. An untraced run also samples the
host's speed (``hostspeed.Sampler``): ``ref_at_ns`` and ``ref_ns`` hold
when each sample started and how long it took. Sampling time is left out
of ``tick_ns`` and ``wall_s``.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    t0 = time.perf_counter()
    import semteam
    from semteam.config import ScenarioConfig
    from semteam.engine import Simulation

    cfg = ScenarioConfig.from_dict(spec["config"])
    sim = Simulation(cfg)
    t1 = time.perf_counter()

    from pathlib import Path

    here = Path(semteam.__file__).resolve().parent
    if here.parent != Path(spec["src"]).resolve():
        print(f"semteam imported from {here}, not from {spec['src']}", file=sys.stderr)
        return 3
    import hostspeed

    result = {"setup_s": t1 - t0, "setup_ref_ns": hostspeed.burst()}
    if not spec["run"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if spec.get("trace_path"):
        import spans

        tracer = spans.Tracer()
        spans.install_semteam(tracer)

    # an untraced run samples host speed; in a traced one the samples would
    # land inside spans
    sampler = hostspeed.Sampler() if tracer is None else None
    tick_at_ns = []
    tick_ns = []
    tick = sim.tick
    clock = time.perf_counter_ns

    def timed_tick():
        spent = 0 if sampler is None else sampler.spent_ns
        start = clock()
        tick()
        took = clock() - start
        if sampler is not None:
            took -= sampler.spent_ns - spent
        tick_at_ns.append(start)
        tick_ns.append(took)

    sim.tick = timed_tick
    if sampler is not None:
        sampler.start()
    t2 = time.perf_counter()
    try:
        report = sim.run()
    finally:
        t3 = time.perf_counter()
        if sampler is not None:
            sampler.stop()
    if tracer is not None:
        tracer.uninstall()

    import resource

    import outcome

    sampled_s = 0.0 if sampler is None else sampler.spent_ns / 1e9
    result.update(outcome.measure(sim, report, wall_s=t3 - t2 - sampled_s))
    result["tick_at_ns"] = tick_at_ns
    result["tick_ns"] = tick_ns
    if sampler is not None:
        result["ref_at_ns"] = sampler.at_ns
        result["ref_ns"] = sampler.ref_ns
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.save(spec["trace_path"])
        result["layers"] = spans.layer_metrics(tracer)
        result["trace_sums_ns"] = spans.tick_sums(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
