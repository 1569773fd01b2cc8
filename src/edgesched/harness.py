"""Experiment orchestration: training campaigns, evaluation, and reports.

A run directory holds one artifact trio per seed: metrics_seed<S>.csv,
params_seed<S>.bin (learning agents only), and manifest_seed<S>.json.
Given (config, seed) every artifact byte is reproducible except the
wall_time_s column, which measures real elapsed time.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import platform
import signal
import sys
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .agents import build_agent
from .configio import ExperimentConfig, build_workload, config_hash
from .domain import ValidationError, csv_rows, write_atomic
from .nets import load_mlp, save_mlp
from .replay import ReplayBuffer
from .rewards import episode_metrics, step_metrics, total_reward
from .rng import child_seed, stream
from .simulator import ClusterSim

__all__ = [
    "EpisodeRow",
    "METRICS_HEADER",
    "export_csv",
    "load_metrics",
    "MetricsLoadError",
    "run_campaign",
    "run_lanes",
    "run_training",
    "train_one_seed",
    "run_evaluation",
    "RunSummary",
    "load_run",
    "ComparisonReport",
    "compare_runs",
    "REPORT_METRICS",
]

@dataclass(frozen=True)
class EpisodeRow:
    """One exported metrics line; the fields are the CSV columns, in order."""

    episode: int
    seed: int
    mean_latency_ms: float
    resource_efficiency: float
    slo_violation_rate: float
    total_reward: float
    wall_time_s: float

    def as_csv(self) -> list[str]:
        return [repr(getattr(self, name)) for name in METRICS_HEADER]


METRICS_HEADER = [f.name for f in fields(EpisodeRow)]

# the episode aggregates: every column between seed and wall_time_s
REPORT_METRICS = tuple(METRICS_HEADER[2:-1])


def export_csv(rows: list[EpisodeRow], path: str | Path) -> None:
    """Plain CSV, repr-formatted floats so a parse-back is exact."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            for row in rows:
                writer.writerow(row.as_csv())
    except OSError as exc:
        raise ValidationError(f"cannot write metrics to {path}: {exc.strerror or exc}") from exc


class MetricsLoadError(ValidationError):
    """Raised for unreadable, malformed or non-finite metrics files."""


def load_metrics(path: str | Path) -> list[EpisodeRow]:
    rows = []
    lines = csv_rows(path, MetricsLoadError)
    _, header = next(lines, (0, None))
    if header != METRICS_HEADER:
        raise MetricsLoadError(f"{path}: unexpected metrics header {header}")
    for lineno, line in lines:
        if len(line) != len(METRICS_HEADER):
            raise MetricsLoadError(f"{path}:{lineno}: malformed row {line}")
        try:
            values = [float(v) for v in line[2:]]
            rows.append(EpisodeRow(int(line[0]), int(line[1]), *values))
        except ValueError as exc:
            raise MetricsLoadError(f"{path}:{lineno}: malformed row {line} ({exc})") from exc
        if not all(map(math.isfinite, values)):
            raise MetricsLoadError(f"{path}:{lineno}: non-finite value in row {line}")
    return rows


def _metrics_path(out_dir: Path, seed: int) -> Path:
    return out_dir / f"metrics_seed{seed}.csv"


def _params_path(out_dir: Path, seed: int) -> Path:
    return out_dir / f"params_seed{seed}.bin"


def _manifest_path(out_dir: Path, seed: int) -> Path:
    return out_dir / f"manifest_seed{seed}.json"


def _write_manifest(out_dir: Path, seed: int, config: ExperimentConfig,
                    counters: dict, status: str, error: str | None = None) -> None:
    doc = {
        "algorithm": config.algorithm,
        "scenario": config.scenario,
        "seed": seed,
        "config_hash": config_hash(config),
        "episodes": config.episodes,
        "steps_per_episode": config.steps_per_episode,
        "status": status,
        "counters": counters,
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if error is not None:
        doc["error"] = error
    write_atomic(_manifest_path(out_dir, seed),
                 (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _agent_counters(agent, env_steps: int) -> dict:
    return {
        "env_steps": env_steps,
        "critic_updates": getattr(agent, "critic_update_count", 0),
        "actor_updates": getattr(agent, "actor_update_count", 0),
        "train_steps": getattr(agent, "train_step_count", 0),
    }


def _setup(config: ExperimentConfig, workload, seed: int):
    """The seed's simulator and freshly initialised agent."""
    env = ClusterSim(config.sim, workload)
    agent = build_agent(config.algorithm, config.sim.n_services, stream(seed, "init"),
                        td3=config.td3, dqn=config.dqn, initial_action=env.initial_action,
                        basek_mode=config.basek_mode)
    return env, agent


def _run_episode(env: ClusterSim, agent, config: ExperimentConfig, seed: int,
                 episodes: int | tuple[int, ...], reset_stream: str, t: int, trajectory: list,
                 rng: np.random.Generator | None, buffer: ReplayBuffer | None,
                 sample_rng: np.random.Generator | None = None) -> list[EpisodeRow]:
    """Reset, then act -> env step -> reward until done; t counts earlier steps.

    episodes is one episode index, or a tuple of them that run greedily as
    one batch; each resets from child_seed(seed, reset_stream, episode). A
    buffer means explore with rng, store each transition and learn; None
    means act greedily, and rng may be None. Every finished step appends its
    episode_metrics entry to the caller's trajectory, so its length stays
    right when a step raises. Returns one row per episode, each timed with
    an equal share of the elapsed time.
    """
    t_start = time.perf_counter()
    batch = isinstance(episodes, tuple)
    obs, raw = env.reset(tuple(child_seed(seed, reset_stream, e) for e in episodes) if batch
                         else child_seed(seed, reset_stream, episodes))
    prev_action = env.initial_action
    done = False
    while not done:
        action = agent.act(obs, raw, t + len(trajectory), buffer is not None, rng)
        next_obs, done, raw = env.step(action)
        reward = total_reward(raw, action, prev_action, env.config.l_target,
                              config.reward).total
        if buffer is not None:
            buffer.add(obs.vec, action.vec, reward, next_obs.vec, done)
            agent.learn(buffer, sample_rng)
        trajectory.append((*step_metrics(raw), reward))
        obs = next_obs
        prev_action = action
    # one list of four Python floats per episode
    metrics = np.array(episode_metrics(trajectory, env.config.l_target)).T.reshape(-1, 4)
    wall_time_s = (time.perf_counter() - t_start) / len(metrics)
    return [EpisodeRow(episode, seed, *values, wall_time_s)
            for episode, values in zip(episodes if batch else (episodes,), metrics.tolist())]


def train_one_seed(config: ExperimentConfig, seed: int, out_dir: Path) -> list[EpisodeRow]:
    """One full training campaign: M episodes of T steps, then artifacts.

    Each episode runs the loop shared with evaluation, with exploration,
    transition storage and one learn() call per step for learning agents.
    Metrics are appended to the seed's CSV after every episode so partial
    runs stay inspectable.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    env, agent = _setup(config, build_workload(config), seed)
    explore_rng = stream(seed, "explore")
    sample_rng = stream(seed, "sample")
    transitions = config.episodes * config.steps_per_episode  # a larger ring is never filled
    buffer = (ReplayBuffer(min(agent.hyper.buffer_capacity, transitions))
              if agent.trainable else None)

    rows: list[EpisodeRow] = []
    t = 0
    trajectory = []
    csv_path = _metrics_path(out_dir, seed)
    try:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            for episode in range(config.episodes):
                row, = _run_episode(env, agent, config, seed, episode, "episode", t,
                                    trajectory, explore_rng, buffer, sample_rng)
                t += len(trajectory)
                trajectory = []
                writer.writerow(row.as_csv())
                fh.flush()
                rows.append(row)
        if agent.trainable:
            save_mlp(agent.policy_net(), _params_path(out_dir, seed))
    except BaseException as exc:  # an interrupt too: the old complete manifest must go
        _write_manifest(out_dir, seed, config, _agent_counters(agent, t + len(trajectory)),
                        status="aborted", error=f"{type(exc).__name__}: {exc}")
        raise
    _write_manifest(out_dir, seed, config, _agent_counters(agent, t),
                    status="complete")
    return rows


def _train_job(config: ExperimentConfig, seed: int) -> None:
    train_one_seed(config, seed, Path(config.output_dir))


def _lane_main() -> None:
    """Worker lane: run the (fn, jobs) pickled on stdin; pickle back the results or the error.

    stdin's EOF, once the caller has the outcome, gives up or dies, raises
    KeyboardInterrupt in the running job, and the lane exits with 1.
    """
    out, sys.stdout = sys.stdout.buffer, sys.stderr
    fn, jobs = pickle.load(sys.stdin.buffer)
    signal.signal(signal.SIGINT, signal.default_int_handler)  # none if started with it ignored
    main = threading.main_thread().ident  # a signal, unlike interrupt_main, wakes a sleep
    try:  # the EOF may come while the watcher starts
        threading.Thread(target=lambda: os.read(0, 1) or signal.pthread_kill(main, signal.SIGINT),
                         daemon=True).start()
        data = pickle.dumps([fn(*job) for job in jobs])
    except KeyboardInterrupt:
        sys.exit(1)
    except Exception as exc:  # a job's, or the pickling of the results
        try:  # an exception that cannot make the round trip goes as text
            pickle.loads(data := pickle.dumps(exc))
        except Exception:
            data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    out.write(data)
    out.flush()


def _start_lane(fn, jobs: list[tuple]):
    import subprocess  # imported here, so a single-lane run does not pay for it

    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"),
               PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from edgesched.harness import _lane_main; _lane_main()"],
        bufsize=0, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    proc.stdin.write(pickle.dumps((fn, jobs)))  # stdin stays open until the outcome is in
    return proc


def run_lanes(fn, jobs: list[tuple]) -> list:
    """Run fn(*job) for every job; return the results in job order.

    Lane k of min(jobs, usable CPUs) lanes runs jobs[k::lanes] in order. The
    caller is lane 0; each other lane is a worker process with one BLAS thread
    and the caller's sys.path, so fn must be a module-level function and the
    jobs and results must pickle. A worker's exception is raised here, and
    every worker has exited when this returns or raises.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    lanes, workers, results = max(1, min(len(jobs), cpus)), [], [None] * len(jobs)
    try:
        for k in range(1, lanes):
            workers.append(_start_lane(fn, jobs[k::lanes]))
        results[::lanes] = [fn(*job) for job in jobs[::lanes]]
        for k, proc in enumerate(workers, 1):
            data = proc.stdout.read()
            if proc.wait() != 0 or not data:
                raise RuntimeError(f"lane worker exited with code {proc.returncode} "
                                   "without sending an outcome")
            if isinstance(outcome := pickle.loads(data), Exception):
                raise outcome
            results[k::lanes] = outcome
    finally:
        for proc in workers:  # EOF stops a lane still running
            proc.stdin.close()
            proc.stdout.close()
            proc.wait()
    return results


def run_campaign(configs: list[ExperimentConfig]) -> list[Path]:
    """Train every (config, seed) job on run_lanes; return each config's run directory.
    A (run directory, seed) job listed twice is rejected: two lanes would write its files."""
    jobs = [(config, seed) for config in configs for seed in config.seeds]
    seen = set()
    for config, seed in jobs:
        if (job := (Path(config.output_dir).resolve(), seed)) in seen:
            raise ValidationError(f"{job[0]}: seed {seed} is listed twice for this directory")
        seen.add(job)
    run_lanes(_train_job, jobs)
    return [Path(config.output_dir) for config in configs]


def run_training(config: ExperimentConfig) -> Path:
    """Full campaign over all configured seeds; returns the run directory."""
    return run_campaign([config])[0]


# values in one evaluation batch's (T + 1, episodes, services) jitter block: caps its memory
_EVAL_BATCH_VALUES = 2**22


def run_evaluation(config: ExperimentConfig, params_path: str | Path | None,
                   episodes: int, seeds: tuple[int, ...] | None = None) -> list[EpisodeRow]:
    """Greedy rollouts of a saved policy: no noise, no learning, no buffer. A seed's
    episodes run in batches of at most _EVAL_BATCH_VALUES // ((T + 1) * services)
    episodes; each row's wall_time_s is its share of its batch."""
    if episodes < 1:
        raise ValidationError("episodes must be >= 1")
    if seeds is not None:  # the config checks the seeds
        config = replace(config, seeds=tuple(seeds))
    # only the resets depend on the seed: a loaded policy replaces the seeded init
    env, agent = _setup(config, build_workload(config), config.seeds[0])
    if agent.trainable:
        if params_path is None:
            raise ValidationError(
                f"algorithm {config.algorithm!r} needs a parameter file to evaluate")
        agent.load_policy(load_mlp(params_path, expect_sizes=agent.policy_net().layer_sizes))
    size = max(1, _EVAL_BATCH_VALUES // ((config.steps_per_episode + 1) * config.sim.n_services))
    # no greedy act reads the step counter or a stream
    return [row for seed in config.seeds for k in range(0, episodes, size)
            for row in _run_episode(env, agent, config, seed, tuple(range(episodes)[k:k + size]),
                                    "eval", 0, [], None, None)]


# ---------------------------------------------------------------------------
# run comparison


@dataclass(frozen=True)
class RunSummary:
    """One completed run directory, loaded back for reporting."""

    path: Path
    algorithm: str
    scenario: str
    seeds: tuple[int, ...]
    by_seed: dict[int, list[EpisodeRow]]

    @property
    def label(self) -> str:
        return f"{self.algorithm}[{self.path.name}]"


# manifest keys every seed of one run directory must agree on
_RUN_KEYS = ("algorithm", "scenario", "episodes", "steps_per_episode")


def load_run(run_dir: str | Path) -> RunSummary:
    """Load a run directory whose seeds all ran one experiment.

    Every manifest must be complete and agree with the first on _RUN_KEYS,
    and each seed's metrics file must hold exactly its episodes, in order.
    """
    run_dir = Path(run_dir)
    manifests = sorted(run_dir.glob("manifest_seed*.json"))
    if not manifests:
        raise ValidationError(f"{run_dir}: no run manifests found")
    first = None
    by_seed: dict[int, list[EpisodeRow]] = {}
    for mpath in manifests:
        try:
            doc = json.loads(mpath.read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, not UTF-8, or an integer over 4300 digits
            raise ValidationError(f"{mpath}: manifest is not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"{mpath}: manifest is not a JSON object")
        if doc.get("status") != "complete":
            raise ValidationError(f"{mpath}: run not complete (status {doc.get('status')!r})")
        missing = [key for key in ("seed", *_RUN_KEYS) if key not in doc]
        if missing:
            raise ValidationError(f"{mpath}: manifest lacks {missing}")
        if not (isinstance(doc["algorithm"], str) and isinstance(doc["scenario"], str)):
            raise ValidationError(f"{mpath}: manifest algorithm and scenario must be strings")
        seed = doc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValidationError(f"{mpath}: manifest seed must be an integer, got {seed!r}")
        if mpath != _manifest_path(run_dir, seed):
            raise ValidationError(f"{mpath}: manifest seed {seed} differs from its file name")
        for key in ("episodes", "steps_per_episode"):
            if isinstance(doc[key], bool) or not isinstance(doc[key], int) or doc[key] < 1:
                raise ValidationError(
                    f"{mpath}: manifest {key} must be a positive integer, got {doc[key]!r}")
        if first is None:
            first = doc
        for key in _RUN_KEYS:
            if doc[key] != first[key]:
                raise ValidationError(
                    f"{run_dir}: seeds ran different experiments: {key} is {first[key]!r} "
                    f"for seed {first['seed']} but {doc[key]!r} for seed {seed}")
        by_seed[seed] = rows = load_metrics(metrics := _metrics_path(run_dir, seed))
        # the length first: episodes may be far too large to build anything from
        if len(rows) != doc["episodes"]:
            raise ValidationError(
                f"{metrics}: {len(rows)} episode rows, manifest says {doc['episodes']}")
        for i, row in enumerate(rows):
            if (row.episode, row.seed) != (i, seed):
                raise ValidationError(
                    f"{metrics}: row {i} is episode {row.episode} of seed {row.seed}, "
                    f"expected episode {i} of seed {seed}")
    return RunSummary(run_dir, first["algorithm"], first["scenario"], tuple(sorted(by_seed)),
                      by_seed)


def _seed_means(run: RunSummary, metric: str, last_k: int | None) -> np.ndarray:
    """Per-seed mean of one metric, optionally over only the last K episodes."""
    values = []
    for seed in run.seeds:
        series = [getattr(r, metric) for r in run.by_seed[seed]]
        if last_k is not None:
            series = series[-last_k:]
        values.append(float(np.mean(series)))
    return np.array(values)


@dataclass(frozen=True)
class ComparisonReport:
    """Cross-run tables plus per-episode learning-curve series."""

    scenario: str
    runs: tuple[RunSummary, ...]
    last_k: int = 10

    def table_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        width = max(len(r.label) for r in self.runs)
        for metric in REPORT_METRICS:
            lines.append("")
            lines.append(f"{metric} (mean +/- std across seeds)")
            lines.append(f"  {'run'.ljust(width)}  {'all-episode':>24}  "
                         f"{f'last-{self.last_k}':>24}")
            for run in self.runs:
                full = _seed_means(run, metric, None)
                tail = _seed_means(run, metric, self.last_k)
                lines.append(
                    f"  {run.label.ljust(width)}  "
                    f"{full.mean():>12.4f} +/- {full.std():<8.4f}  "
                    f"{tail.mean():>12.4f} +/- {tail.std():<8.4f}")
        return "\n".join(lines) + "\n"

    def curve_rows(self) -> list[list[str]]:
        """Long-format series: run, algorithm, metric, episode, mean across seeds."""
        rows = [["run", "algorithm", "metric", "episode", "mean"]]
        for run in self.runs:
            for metric in REPORT_METRICS:  # load_run saw every seed run the same episodes
                per_seed = np.array([[getattr(r, metric) for r in run.by_seed[s]]
                                     for s in run.seeds])
                means = per_seed.mean(axis=0)
                for episode, value in enumerate(means):
                    rows.append([run.path.name, run.algorithm, metric,
                                 str(episode), repr(float(value))])
        return rows

    def write_curves(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(self.curve_rows())


def compare_runs(run_dirs: list[str | Path], last_k: int = 10) -> ComparisonReport:
    """Load >= 2 completed runs on one scenario and build the report."""
    if len(run_dirs) < 2:
        raise ValidationError("need at least two run directories to compare")
    runs = tuple(load_run(d) for d in run_dirs)
    scenarios = {r.scenario for r in runs}
    if len(scenarios) != 1:
        raise ValidationError(
            f"runs cover different scenarios {sorted(scenarios)}; "
            "comparisons must share one scenario")
    return ComparisonReport(scenario=runs[0].scenario, runs=runs, last_k=last_k)
