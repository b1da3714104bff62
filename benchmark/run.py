"""Benchmark for semteam: host speed and mission outcome end to end, and
per-layer self time from a separately traced run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload team2 --seed 0 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. Each simulation runs in a
fresh single-threaded process, one at a time, always on the workload's
reference scenario (see ``workloads.py``). With ``--trace 0`` it runs the
simulation as many times as fit in ``--seconds`` at the workload's nominal
duration, at least once, with set-up-only samples in between, and reports
end-to-end metrics. Host times are scaled to a reference host speed that
the simulations measure as they run (``hostspeed.py``); the raw times are
printed beside them. With ``--trace 1`` it runs the simulation once
untraced and once traced and reports per-layer metrics. Either way a short
held-out probe then runs the scenario at ``--seed`` and its outputs are
checked. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 170.0  # one invocation, set-up and all simulations

#: end-to-end metrics in the result line, with units; host times are at
#: the reference host speed (``hostspeed.py``)
GATED = (("wall_s", "s"), ("ms_per_tick", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: the same host times as measured, printed and recorded; they move with
#: the load other tenants put on the host
RAW = (("raw_wall_s", "s"), ("raw_ms_per_tick", "ms"), ("raw_setup_s", "s"))
#: end-to-end metrics printed and recorded, exact for a given (config, seed)
SIM = (
    ("mission_s", "s"),
    ("targets_missed", "count"),
    ("loc_err_late_m", "m"),
    ("distance_m", "m"),
    ("claim_conflicts", "count"),
)


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("_frac", "_per_scan", "_per_claim")):
        return "ratio"
    if name.endswith(("_bytes", "bytes_shipped")):
        return "B"
    if name.endswith("ess_mean"):
        return "particles"
    return "count"


def src_digest(src: Path) -> str:
    """sha256 over the package's source files, names and contents."""
    h = hashlib.sha256()
    for path in sorted((src / "semteam").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, src: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "src_sha256": src_digest(src),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class Child:
    """Runs ``simrun.py`` in fresh processes under one deadline."""

    def __init__(self, root: Path, src: Path, deadline: float) -> None:
        self.root = root
        self.src = src
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=str(src),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def __call__(self, cfg: dict, run: bool, trace_path: Path | None = None) -> dict:
        """The child's result, or ``{"error": ...}`` if it failed or timed out."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            return {"error": "time limit reached before start"}
        spec = {
            "config": cfg,
            "src": str(self.src),
            "run": run,
            "trace_path": None if trace_path is None else str(trace_path),
        }
        cmd = [sys.executable, str(HERE / "simrun.py"), json.dumps(spec)]
        try:
            done = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=left
            )
        except subprocess.TimeoutExpired:
            return {"error": f"time limit: no result after {left:.0f} s"}
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-3:]
            return {"error": f"exit {done.returncode}: " + " | ".join(tail)}
        return json.loads(done.stdout.strip().splitlines()[-1])


def scaled_s(sim: dict) -> float:
    """A simulation's tick-loop time at the reference host speed."""
    import hostspeed

    return hostspeed.scaled_s(sim["tick_at_ns"], sim["tick_ns"], sim["ref_at_ns"], sim["ref_ns"])


def host_times(sims: list[dict], setups: list[dict]) -> dict:
    """Host metrics of a run, at the reference host speed and raw: medians
    over its simulations, and for set-up over every process that set up."""
    import hostspeed

    median = statistics.median
    ticks = sims[0]["ticks"]
    wall_s = median(scaled_s(s) for s in sims)
    raw_wall_s = median(sum(s["tick_ns"]) / 1e9 for s in sims)
    return {
        "wall_s": wall_s,
        "ms_per_tick": 1e3 * wall_s / ticks,
        "setup_s": median(hostspeed.scaled_setup_s(s["setup_s"], s["setup_ref_ns"]) for s in setups),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in sims),
        "raw_wall_s": raw_wall_s,
        "raw_ms_per_tick": 1e3 * raw_wall_s / ticks,
        "raw_setup_s": median(s["setup_s"] for s in setups),
    }


def scenario_key(root: Path, cfg: dict, src_sha256: str) -> str:
    """Identifies what a simulation ran: source, config and world file."""
    h = hashlib.sha256(src_sha256.encode() + json.dumps(cfg, sort_keys=True).encode())
    if "world" in cfg:
        h.update((root / cfg["world"]).read_bytes())
    return h.hexdigest()


def consistent_digests(sims: list[dict], cache_path: Path, key: str) -> list[str]:
    """Problems if completed simulations disagree on the event log, with each
    other or with earlier runs of the same scenario key."""
    digests = {s["digest"] for s in sims if "digest" in s}
    problems = []
    if len(digests) > 1:
        problems.append(f"event digests differ between simulations of one run: {sorted(digests)}")
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    if len(digests) == 1:
        (digest,) = digests
        earlier = cache.setdefault(key, digest)
        if earlier != digest:
            problems.append(f"event digest {digest[:12]} differs from an earlier run's {earlier[:12]}")
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
    return problems


def run_workload(
    root: Path, name: str, seed: int, seconds: float, trace: bool, scenario_seed: int
) -> tuple[dict, dict]:
    """Run one workload; return (record, result line)."""
    import outcome
    import workloads

    started = time.monotonic()
    src = root / "src"
    out = root / ".bench_out"
    world = None
    if name == "clutter":
        path = workloads.write_clutter_world(scenario_seed, out / "worlds")
        world = path.relative_to(root).as_posix()
    cfg = workloads.config(name, scenario_seed, world)
    probe_cfg = dict(workloads.config(name, seed, world), max_ticks=workloads.PROBE_TICKS)
    n_targets = workloads.n_targets(cfg)
    child = Child(root, src, started + RUN_BUDGET_S)
    env = environment(root, src)

    sims: list[dict] = []
    setup_runs: list[dict] = []
    trace_file = None
    if trace:
        sims.append(child(cfg, run=True))
        trace_file = out / "traces" / f"{name}.npz"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        sims.append(child(cfg, run=True, trace_path=trace_file))
    else:
        # set-up-only samples run before each simulation and after the last,
        # so that they see the same spells of machine load as the simulations
        for _ in range(max(1, round(seconds / workloads.SIM_SECONDS[name]))):
            setup_runs.append(child(cfg, run=False))
            sims.append(child(cfg, run=True))
            if "error" in sims[-1]:
                break
        setup_runs.append(child(cfg, run=False))
    probe = child(probe_cfg, run=True)
    done = [s for s in sims if "error" not in s]
    setups = [s for s in setup_runs + done if "error" not in s]

    digests = out / "digests.json"
    problems = [p for s in done for p in s["problems"]]
    problems += [f"simulation failed: {s['error']}" for s in sims + setup_runs if "error" in s]
    problems += consistent_digests(done, digests, scenario_key(root, cfg, env["src_sha256"]))
    if "error" in probe:
        problems.append(f"held-out probe failed: {probe['error']}")
    else:
        problems += [f"held-out probe: {p}" for p in probe["problems"]]
        problems += consistent_digests(
            [probe], digests, scenario_key(root, probe_cfg, env["src_sha256"])
        )

    metrics: dict[str, dict] = {}
    if trace and len(done) == 2:
        traced = sims[1]
        sums = traced["trace_sums_ns"]
        if sums["self_ns"] != sums["tick_ns"]:
            problems.append(f"self times sum to {sums['self_ns']} ns, ticks to {sums['tick_ns']} ns")
        for key, value in traced["layers"].items():
            metrics[key] = {"value": value, "unit": layer_unit(key)}
    raw = {}
    if not trace and done:
        values = host_times(done, setups)
        raw = {key: values[key] for key, _ in RAW}
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in GATED}

    attempted = failed = 0
    for s in sims:
        a, f = outcome.operations(n_targets, None if "error" in s else s)
        attempted += a
        failed += f
    if problems:
        failed = attempted
    for s in sims:
        if "ref_ns" in s:
            s["scaled_wall_s"] = scaled_s(s)
            s["ref_samples"] = len(s["ref_ns"])
            s["ref_median_ns"] = statistics.median(s["ref_ns"])
    for s in sims + [probe]:
        for key in ("tick_at_ns", "tick_ns", "ref_at_ns", "ref_ns"):
            s.pop(key, None)

    reference = None
    if scenario_seed == workloads.REFERENCE_SEED:
        reference = json.loads((HERE / "reference.json").read_text()).get(name)
    record = {
        "workload": name,
        "seed": seed,
        "scenario_seed": scenario_seed,
        "trace": trace,
        "config": cfg,
        "n_targets": n_targets,
        "environment": env,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "simulations": sims,
        "raw_host": raw,
        "probe_config": probe_cfg,
        "probe": probe,
        "problems": problems,
        "reference_digest": reference,
        "trace_file": None if trace_file is None else trace_file.relative_to(root).as_posix(),
        "elapsed_s": time.monotonic() - started,
    }
    line = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-{seed}-trace{int(trace)}-{stamp}.json").write_text(
        json.dumps({"record": record, "result": line}, indent=1) + "\n"
    )
    return record, line


def report(record: dict, line: dict) -> None:
    """Human-readable block for one workload."""
    env = record["environment"]
    done = [s for s in record["simulations"] if "error" not in s]
    print(
        f"workload {record['workload']} seed {record['seed']} scenario seed "
        f"{record['scenario_seed']} trace {int(record['trace'])}: "
        f"{len(record['simulations'])} simulation(s), {len(record['setup_samples_s'])} set-up "
        f"sample(s), {record['elapsed_s']:.1f} s"
    )
    print(
        f"  git {env['git_sha'] or '-'} src {env['src_sha256'][:12]} nproc {env['nproc']} "
        f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
    )
    print(f"  config {json.dumps(record['config'], sort_keys=True)}")
    if done:
        first = done[0]
        digest = first["digest"]
        ref = record["reference_digest"]
        same = "no reference" if ref is None else ("same as reference" if ref == digest else "DIFFERS from reference")
        print(f"  events sha256 {digest} ({same})")
        if not record["trace"]:
            for key, unit in GATED:
                print(f"  {key:<16} {line['metrics'][key]['value']:>12.4f} {unit}")
            for key, unit in RAW:
                print(f"  {key:<16} {record['raw_host'][key]:>12.4f} {unit}")
        for key, unit in SIM:
            print(f"  {key:<16} {first[key]:>12.4f} {unit}")
        print(f"  targets          {first['targets_visited']} of {first['n_targets']} reached in {first['ticks']} ticks")
    if record["trace"] and len(done) == 2:
        plain, traced = record["simulations"]
        print(
            f"  tracing overhead {traced['wall_s'] - plain['wall_s']:+.3f} s "
            f"(untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s)"
        )
        tick_ms = traced["trace_sums_ns"]["tick_ns"] / 1e6
        shares = sorted(
            ((v["value"], k) for k, v in line["metrics"].items() if k.endswith(".ms")), reverse=True
        )
        for value, key in shares[:8]:
            print(f"  {key:<36} {value:>10.1f} ms  {100 * value / tick_ms:5.1f}% of tick time")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(line))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="team2, team6, clutter or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scenario-seed",
        type=int,
        default=None,
        help="time the scenario at this sim seed (clutter: and world seed) "
        "instead of the reference scenario",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "semteam" / "__init__.py").is_file():
        print(f"no semteam sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    scenario_seed = workloads.REFERENCE_SEED if args.scenario_seed is None else args.scenario_seed
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        if name not in workloads.NAMES:
            print(f"unknown workload {name!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
            return 2
    status = 0
    for name in names:
        record, line = run_workload(
            root, name, args.seed, args.seconds, bool(args.trace), scenario_seed
        )
        if not line["metrics"]:
            for problem in record["problems"]:
                print(problem, file=sys.stderr)
            status = 1
            continue
        report(record, line)
    return status


if __name__ == "__main__":
    sys.exit(main())
