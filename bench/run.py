#!/usr/bin/env python3
"""The edgesched benchmark: end-to-end metrics, or per-layer ones when traced.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from ``src/``.
Each workload runs its units in fresh processes (unit.py), one at a time,
with BLAS pinned to one thread, within ``--seconds`` seconds but at least
MIN_UNITS units, and never past RUN_LIMIT_S. With ``--trace 0`` it reports
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it alternates
plain and traced units and reports every per-layer metric. Every unit's
artifacts are checked (row ranges, param file round trip, digest agreement
across units and with digests.json).
Per workload it prints a readable block and, as the block's last line, one
JSON object with the keys correct, attempted, failed and metrics.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"

# Unit sizes. A unit is one process; a run repeats units for --seconds.
TRAIN_EPISODES = 60        # acceptance-suite length of one TD3 seed
# 3 units give fewer than 1000 episodes, so the rollout tail is p95: its episodes all do
# the same work, and a p99 there reads host hiccups (README.md, Noise)
EVAL_EPISODES = 300
CAMPAIGN_EPISODES = 10     # per job
CAMPAIGN_ALGOS = ("td3", "ddpg", "dqn", "basek")   # as in scripts/run_campaign.py
CAMPAIGN_SCENARIOS = ("normal_100", "high_300")
CAMPAIGN_JOBS = len(CAMPAIGN_ALGOS) * len(CAMPAIGN_SCENARIOS) * 2   # two seeds
STEPS = 20
HIDDEN = 128
LR = 5e-4
DQN_LEVELS = 10            # DqnHyper default, which run_campaign.py keeps

MIN_UNITS = 3
RUN_LIMIT_S = 165          # no unit of a run is still running past this
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("train_td3", "rollout_eval", "campaign")
# printed with the end-to-end metrics but not in BENCHMARK.json: host contention
# moves it too far between runs to hold a bound (see README.md, Noise)
UNBOUNDED_UNITS = {"episode_ms_p50": "ms"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# seeded inputs


def td3_section() -> dict:
    return {"hidden": HIDDEN, "batch_size": 64, "actor_lr": LR, "critic_lr": LR}


def burst_trace(seed: int, n_services: int, steps: int) -> list:
    """Per-service rates of one episode: a base load with one burst window.

    Window and rates come from the seed. The burst drives CPU demand past
    every grant and memory demand past the allocation of the heavy
    services, so the latency cap and memory pressure both fire.
    """
    import numpy as np
    from edgesched.workload import TraceRecord, front_heavy_weights

    rng = np.random.default_rng(seed)
    base = rng.uniform(60.0, 140.0)
    burst = rng.uniform(600.0, 900.0)
    start = int(rng.integers(2, 9))
    length = int(rng.integers(4, 9))
    weights = front_heavy_weights(n_services)
    records = []
    for step in range(steps + 1):
        rate = burst if start <= step < start + length else base
        records.extend(TraceRecord(step, i, float(rate * w)) for i, w in enumerate(weights))
    return records


def shared_edge_topology() -> dict:
    """2 edge + 2 cloud nodes with the default services round-robin on them.

    Two services share each 2-core edge node, so mid-box CPU requests add
    up past its capacity and grant() scales them down.
    """
    from edgesched.domain import default_services

    nodes = [{"node_id": 0, "tier": "edge"}, {"node_id": 1, "tier": "edge"},
             {"node_id": 2, "tier": "cloud"}, {"node_id": 3, "tier": "cloud"}]
    services = [{"name": s.name, "home_node": i % len(nodes),
                 "cpu_cost_per_request": s.cpu_cost_per_request, "mem_floor": s.mem_floor,
                 "mem_per_qps": s.mem_per_qps, "initial_cpu_request": s.initial_cpu_request,
                 "initial_mem_request": s.initial_mem_request}
                for i, s in enumerate(default_services())]
    return {"nodes": nodes, "services": services}


def make_inputs(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's input files; return the spec fields units share."""
    from edgesched.workload import write_trace

    inputs.mkdir(parents=True)
    spec = {"workload": workload, "seed": seed, "inputs": str(inputs)}
    if workload == "train_td3":
        config = {"algorithm": "td3", "episodes": TRAIN_EPISODES, "steps_per_episode": STEPS,
                  "scenario": "high_300", "seeds": [seed], "td3": td3_section()}
        spec["episodes"] = TRAIN_EPISODES
    elif workload == "rollout_eval":
        sim = shared_edge_topology()
        write_trace(burst_trace(seed, len(sim["services"]), STEPS), inputs / "burst.csv")
        config = {"algorithm": "td3", "episodes": 1, "steps_per_episode": STEPS,
                  "scenario": "trace:burst.csv", "seeds": [seed], "td3": td3_section(),
                  "sim": sim}
        spec["episodes"] = EVAL_EPISODES
    else:
        config = None
        spec["episodes"] = CAMPAIGN_EPISODES
        spec["campaign_seeds"] = [seed, seed + 1]
    if config is not None:
        (inputs / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return spec


# ---------------------------------------------------------------------------
# units


def spawn_unit(spec: dict, unit_dir: Path, timeout_s: int) -> dict:
    """Run one unit to completion; return its timings, peak RSS and result."""
    unit_dir.mkdir(parents=True)
    spec = dict(spec, unit_dir=str(unit_dir), timeout_s=max(timeout_s, 1))
    spec_path = unit_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(unit_dir / "stdout.log", "wb") as out, open(unit_dir / "stderr.log", "wb") as err:
        t_spawn = now()
        proc = subprocess.Popen([sys.executable, str(BENCH / "unit.py"), str(spec_path),
                                 repr(t_spawn)], stdout=out, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no unit behind, then re-raise
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall_s = now() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    unit = {"mode": spec["mode"], "dir": unit_dir, "wall_s": wall_s,
            "maxrss_mb": usage.ru_maxrss / 1024.0, "problems": [],
            "stopped": proc.returncode == -signal.SIGALRM}
    result_path = unit_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (unit_dir / "stderr.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        unit["problems"].append(f"unit exited with {proc.returncode}: {tail.strip()}")
        return unit
    unit.update(json.loads(result_path.read_text(encoding="utf-8")))
    return unit


# ---------------------------------------------------------------------------
# output checks


def csv_without_wall_time(path: Path) -> bytes:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    if not rows or rows[0][-1] != "wall_time_s":
        raise ValueError(f"{path.name}: no wall_time_s column")
    buf = io.StringIO()
    csv.writer(buf).writerows(row[:-1] for row in rows)
    return buf.getvalue().encode("utf-8")


def artifact_digest(base: Path, files: list[Path]) -> str:
    """sha256 over the metrics CSVs minus wall_time_s and the params bytes."""
    h = hashlib.sha256()
    for path in sorted(files):
        data = csv_without_wall_time(path) if path.suffix == ".csv" else path.read_bytes()
        h.update(path.relative_to(base).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def row_problems(rows, seed: int, episodes: int, config) -> list[str]:
    """One problem per episode row that is missing, out of order, non-finite or out of range."""
    sim, w, n, t = config.sim, config.reward, config.sim.n_services, config.steps_per_episode
    excess = sim.latency.saturation_cap_ms - sim.l_target
    if w.normalize_latency_excess:
        excess /= sim.l_target
    reward_lo = -t * (w.alpha * n * excess + (w.beta + w.mu) * 2 * n)
    reward_hi = t * w.lam * n
    problems = [f"seed {seed}: episode {e} missing" for e in range(len(rows), episodes)]
    for e, r in enumerate(rows):
        values = (r.mean_latency_ms, r.resource_efficiency, r.slo_violation_rate,
                  r.total_reward, r.wall_time_s)
        if not (r.episode == e < episodes and r.seed == seed
                and all(math.isfinite(v) for v in values)
                and 0.0 < r.mean_latency_ms <= sim.latency.saturation_cap_ms
                and 0.0 <= r.resource_efficiency <= 1.0
                and 0.0 <= r.slo_violation_rate <= 1.0
                and reward_lo <= r.total_reward <= reward_hi
                and r.wall_time_s >= 0.0):
            problems.append(f"seed {seed}: bad row {r}")
    return problems


def params_problems(path: Path, sizes: list[int]) -> list[str]:
    """The params file loads with the expected layer sizes and re-saves byte-identically."""
    from edgesched.nets import load_mlp, save_mlp

    net = load_mlp(path, expect_sizes=sizes)
    copy = path.with_name(path.name + ".roundtrip")
    save_mlp(net, copy)
    same = copy.read_bytes() == path.read_bytes()
    copy.unlink()
    return [] if same else [f"{path.name}: params do not round-trip byte-identically"]


def policy_sizes(algorithm: str, n_services: int) -> list[int]:
    out = 2 * n_services * (DQN_LEVELS if algorithm == "dqn" else 1)
    return [4 * n_services, HIDDEN, HIDDEN, out]


def check_unit(spec: dict, unit: dict) -> tuple[int, list[str], str | None]:
    """Check one finished unit; return (failed ops, problems, artifact digest)."""
    from edgesched.configio import ExperimentConfig, load_config
    from edgesched.harness import load_metrics, load_run

    workload, seed, episodes = spec["workload"], spec["seed"], spec["episodes"]
    d = unit["dir"]
    if workload == "campaign":
        config = ExperimentConfig()
        failed, problems, files = 0, [], []
        root = d / "campaign"
        for scenario in CAMPAIGN_SCENARIOS:
            for algo in CAMPAIGN_ALGOS:
                run = load_run(root / scenario / algo)
                for s in spec["campaign_seeds"]:
                    job = row_problems(run.by_seed.get(s, []), s, episodes, config)
                    files.append(root / scenario / algo / f"metrics_seed{s}.csv")
                    if algo != "basek":
                        params = root / scenario / algo / f"params_seed{s}.bin"
                        job += params_problems(params, policy_sizes(algo, config.sim.n_services))
                        files.append(params)
                    failed += bool(job)
                    problems += job
        log = (d / "stdout.log").read_text(encoding="utf-8")
        if "campaign wall time" not in log:
            return unit_ops(spec), problems + ["campaign did not finish its report"], None
        unit["steps"] = CAMPAIGN_JOBS * episodes * STEPS
        return failed, problems, artifact_digest(root, files)

    config = load_config(Path(spec["inputs"]) / "config.json")
    if workload == "train_td3":
        run = d / "run"
        metrics, params_path = run / f"metrics_seed{seed}.csv", run / f"params_seed{seed}.bin"
        manifest = json.loads((run / f"manifest_seed{seed}.json").read_text(encoding="utf-8"))
        if manifest["status"] != "complete" or \
                manifest["counters"]["env_steps"] != episodes * STEPS:
            return unit_ops(spec), [f"manifest incomplete: {manifest}"], None
    else:
        metrics, params_path = d / "metrics.csv", d / "params.bin"
    rows = load_metrics(metrics)
    problems = row_problems(rows, seed, episodes, config)
    failed = min(len(problems), episodes)
    params = params_problems(params_path, policy_sizes("td3", config.sim.n_services))
    if params:  # every episode fed the parameters
        failed = episodes
    unit["steps"] = len(rows) * STEPS
    return failed, problems + params, artifact_digest(d, [metrics, params_path])


def unit_ops(spec: dict) -> int:
    """Ops one unit attempts: its episodes, or its jobs on campaign."""
    return CAMPAIGN_JOBS if spec["workload"] == "campaign" else spec["episodes"]


# ---------------------------------------------------------------------------
# metrics


def tail(samples: list[float], n_min: int) -> tuple[float, float]:
    """Highest ladder percentile with >= 10 samples beyond it at n_min samples.

    The percentile is fixed by the run's guaranteed sample count, not the
    actual one, so it does not change between runs. With fewer than 10
    samples beyond any rung, the maximum (p100) is reported.
    """
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        if n_min * (100.0 - p) / 100.0 >= 10:
            return p, ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]
    return 100.0, ordered[-1]


def steps_per_s(spec: dict, units: list[dict]) -> float:
    """Pooled throughput: every unit's env steps over every unit's timed seconds."""
    # campaign users wait for the whole process; the others time the rollout loop
    key = "wall_s" if spec["workload"] == "campaign" else "timed_s"
    return sum(u["steps"] for u in units) / sum(u[key] for u in units)


def episode_ms(spec: dict, unit: dict) -> list[float]:
    if spec["workload"] == "campaign":
        # amortised campaign wall time per episode, one sample per campaign
        return [1000.0 * unit["wall_s"] / (CAMPAIGN_JOBS * spec["episodes"])]
    return [1000.0 * w for w in unit["episode_wall_s"]]


def end_to_end(spec: dict, units: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values, and notes on how each was formed.

    Host contention makes whole units fast or slow, so a median over units
    jumps between the two modes; throughput is therefore pooled over units.
    """
    setups = [u["setup_s"] for u in units]
    per_unit = [episode_ms(spec, u) for u in units]
    pooled = [ms for unit_ms in per_unit for ms in unit_ms]
    pct, tail_ms = tail(pooled, MIN_UNITS * len(per_unit[0]))
    values = {
        "setup_s": median(setups),
        "env_steps_per_s": steps_per_s(spec, units),
        "episode_ms_p50": median(pooled),
        "episode_ms_tail": tail_ms,
        "peak_rss_mb": max(u["maxrss_mb"] for u in units),
    }
    notes = {
        "setup_s": f"median of {len(setups)} units",
        "env_steps_per_s": f"pooled over {len(units)} units",
        "episode_ms_p50": f"n={len(pooled)}; not bounded",
        "episode_ms_tail": f"p{pct:g}, n={len(pooled)}",
        "peak_rss_mb": f"largest of {len(units)} units",
    }
    return values, notes


def per_layer(spec: dict, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metric values from the traced units, and count mismatches."""
    sys.path.insert(0, str(BENCH))
    from timers import MODULES, TIMED

    first = traced[0]["trace"]
    problems = [f"counts differ between traced units: {u['trace']['calls']}"
                for u in traced[1:]
                if (u["trace"]["calls"], u["trace"]["counts"]) != (first["calls"], first["counts"])]
    calls, counts = first["calls"], first["counts"]
    values: dict = {}
    for key in TIMED:
        values[f"{key}.calls"] = calls[key]
        values[f"{key}.self_s"] = median(u["trace"]["self_s"][key] for u in traced)
    values["nets.matmul_flops"] = counts["nets.matmul_flops"]
    values["domain.objects_per_step"] = (calls["domain.objects"] / calls["simulator.step"]
                                         if calls["simulator.step"] else 0.0)
    values["agents.learn.applied_ratio"] = (counts["agents.learn.applied"] / calls["agents.learn"]
                                            if calls["agents.learn"] else 0.0)
    values["simulator.grant.scaled_down"] = counts["simulator.grant.scaled_down"]
    values["simulator.step.mem_pressured"] = counts["simulator.step.mem_pressured"]
    for module in MODULES:
        values[f"{module}.self_frac"] = median(
            sum(s for k, s in u["trace"]["self_s"].items() if k.startswith(module + "."))
            / u["body_s"] for u in traced)
    values["trace.overhead_frac"] = steps_per_s(spec, plain) / steps_per_s(spec, traced) - 1.0
    return values, problems


# ---------------------------------------------------------------------------
# environment record


def reference_ms() -> float:
    """Median time of a fixed pure-Python and numpy loop, in this process.

    It runs no edgesched code, so it moves only with the host's speed: set
    beside a metric, it tells a host that ran slower from a program that did.
    """
    import numpy as np

    w = np.full((HIDDEN, HIDDEN), 1.0 / HIDDEN)
    times = []
    for _ in range(5):
        t0 = now()
        total = 0
        for i in range(100_000):
            total += i & 7
        x = np.full((64, HIDDEN), 0.5)
        for _ in range(200):
            x = np.tanh(x @ w)
        times.append(now() - t0)
    return 1000.0 * median(times)


def environment(units: list[dict], reference: list[float]) -> dict:
    import numpy as np
    import edgesched

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    blas = next((u["blas"] for u in units if "blas" in u), {})
    return {"package": edgesched.__version__, "commit": commit,
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas.get("build"), "openblas_core": blas.get("corename"),
            "blas_threads": blas.get("threads"), "blas_env": THREAD_ENV,
            "nproc": affinity, "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "host_ref_ms": [round(r, 3) for r in reference]}


def digest_key(env: dict) -> str:
    # BLAS kernels differ by CPU and can change the last bits of a matmul
    return f"numpy {env['numpy']} / python {env['python']} / openblas {env['openblas_core']}"


def stored_digest(env: dict, workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(digest_key(env), {}).get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec_meta: dict) -> dict:
    started = now()
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = make_inputs(workload, seed, work / "inputs")  # imports fill the bytecode cache
        reference = [reference_ms()]
        modes = ("plain", "traced") if trace else ("plain",)
        units: list[dict] = []
        stopped = None
        t0 = now()
        cycle = 0.0
        # Start another unit only if one as long as the last ends inside the
        # window (after the first MIN_UNITS) and inside RUN_LIMIT_S. A unit
        # that the limit stops anyway measured nothing: it is dropped, not failed.
        while now() - started + cycle <= RUN_LIMIT_S and (
                len(units) < MIN_UNITS * len(modes) or now() - t0 + cycle <= seconds):
            t_cycle = now()
            mode = modes[len(units) % len(modes)]
            limit = max(int(started + RUN_LIMIT_S - now()), 1)
            unit = spawn_unit(dict(spec, mode=mode), work / f"{mode}{len(units)}", limit)
            cycle = now() - t_cycle
            if unit["stopped"]:
                stopped = f"{mode} unit stopped at the {RUN_LIMIT_S}s run limit; dropped"
                break
            units.append(unit)
        reference.append(reference_ms())

        attempted, failed, problems = 0, 0, []
        for u in units:
            attempted += unit_ops(spec)
            if u["problems"]:
                failed += unit_ops(spec)
                problems += u["problems"]
                continue
            try:
                bad, found, digest = check_unit(spec, u)
            except (OSError, ValueError, KeyError) as exc:
                bad, found, digest = unit_ops(spec), [f"{type(exc).__name__}: {exc}"], None
            failed += bad
            problems += found
            u["digest"] = digest

        ok_units = [u for u in units if not u["problems"] and u.get("digest")]
        env = environment(units, reference)
        stored = stored_digest(env, workload, seed)
        expected = stored or (ok_units[0]["digest"] if ok_units else None)
        for u in ok_units:
            if u["digest"] != expected:
                failed += unit_ops(spec)
                problems.append(f"artifact digest {u['digest'][:16]} != "
                                f"{'stored' if stored else 'first unit'} {expected[:16]}")
        plain = [u for u in ok_units if u["mode"] == "plain"]
        traced = [u for u in ok_units if u["mode"] == "traced"]
        if not plain or (trace and not traced):
            reasons = ([stopped] if stopped else []) + problems
            raise RuntimeError(f"{workload}: no unit ran cleanly: {reasons[:3]}")
        if trace:
            values, count_problems = per_layer(spec, plain, traced)
            problems += count_problems
            failed += unit_ops(spec) * len(count_problems)
            notes = {}
            wanted = spec_meta["per_layer"]
        else:
            values, notes = end_to_end(spec, plain)
            wanted = spec_meta["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        unbounded = {name: {"value": value, "unit": UNBOUNDED_UNITS[name]}
                     for name, value in values.items() if name not in metrics}
        return {"workload": workload, "seed": seed, "trace": int(trace), "env": env,
                "units": len(units), "stopped": stopped, "attempted": attempted,
                "failed": failed, "problems": problems, "digest": expected,
                "digest_source": "stored" if stored else "first unit",
                "metrics": metrics, "unbounded": unbounded, "notes": notes,
                "run_s": now() - started}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


def report(record: dict) -> None:
    out = sys.stdout
    out.write(f"== {record['workload']} seed {record['seed']} trace {record['trace']}: "
              f"{record['units']} units, {record['run_s']:.1f}s\n")
    out.write("env " + json.dumps(record["env"], sort_keys=True) + "\n")
    if record["stopped"]:
        out.write(f"  note: {record['stopped']}\n")
    for name, m in {**record["metrics"], **record["unbounded"]}.items():
        note = record["notes"].get(name, "")
        out.write(f"  {name:34s} {m['value']:>14.6g} {m['unit']:10s} {note}\n")
    if not record["trace"]:
        out.write(f"  {'ops_failed':34s} {record['failed']:>14d} {'count':10s} "
                  f"of ops_attempted={record['attempted']}\n")
    out.write(f"  digest {record['digest']} ({record['digest_source']})\n")
    for problem in record["problems"][:20]:
        out.write(f"  FAILED: {problem}\n")
    result = {"correct": record["failed"] == 0 and not record["problems"],
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": record["metrics"]}
    out.write(json.dumps(result) + "\n")
    out.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    meta_path = ROOT / "BENCHMARK.json"
    missing = [p for p in (meta_path, ROOT / "src" / "edgesched" / "__init__.py",
                           ROOT / "scripts" / "run_campaign.py") if not p.is_file()]
    if missing:
        print(f"error: not an edgesched checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running unit is stopped and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    seconds = meta["run_seconds"] if args.seconds is None else args.seconds
    os.environ.update(THREAD_ENV)  # before numpy loads, here and in every unit
    sys.path.insert(0, str(ROOT / "src"))

    for workload in args.workload:
        report(run_workload(workload, args.seed, seconds, bool(args.trace), meta))
    return 0


if __name__ == "__main__":
    sys.exit(main())
