"""Run orchestration: artifacts, reproducibility, evaluation, comparison."""

import json
import os
import pickle
import re
import runpy
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgesched import harness
from edgesched.agents import BaseKScheduler, DqnHyper, Td3Agent, Td3Hyper
from edgesched.configio import ExperimentConfig, build_workload, config_hash
from edgesched.domain import ValidationError
from edgesched.harness import (
    METRICS_HEADER,
    EpisodeRow,
    MetricsLoadError,
    compare_runs,
    export_csv,
    load_metrics,
    load_run,
    run_campaign,
    run_evaluation,
    run_lanes,
    run_training,
    train_one_seed,
)
from edgesched.nets import Mlp, load_mlp, save_mlp
from edgesched.replay import ReplayBuffer
from edgesched.simulator import ClusterSim
from edgesched.workload import TraceParseError

RECORDER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "record_golden.py"))


def tiny_config(**kw):
    """Desk-sized campaign: default topology, minimal network and budget."""
    base = dict(
        episodes=2,
        steps_per_episode=4,
        seeds=(0,),
        td3=Td3Hyper(hidden=8, batch_size=4, warmup_transitions=4,
                     buffer_capacity=256),
        dqn=DqnHyper(hidden=8, batch_size=4, warmup_transitions=4,
                     buffer_capacity=256),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def strip_wall_time(path):
    """CSV text with the wall_time_s column removed from every line."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestMetricsCsv:
    def test_header_is_pinned(self):
        assert METRICS_HEADER == ["episode", "seed", "mean_latency_ms",
                                  "resource_efficiency", "slo_violation_rate",
                                  "total_reward", "wall_time_s"]

    def test_round_trip_is_exact(self, tmp_path):
        rows = [EpisodeRow(0, 3, 123.456789012345, 0.71234, 0.25,
                           -1.3333333333333333, 0.017),
                EpisodeRow(1, 3, 99.0, 0.5, 0.0, 0.1, 0.02)]
        path = tmp_path / "m.csv"
        export_csv(rows, path)
        back = load_metrics(path)
        assert back == rows

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("episode,seed,latency\n0,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            load_metrics(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(METRICS_HEADER) + "\n0,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed"):
            load_metrics(path)


    def test_non_numeric_cell_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(METRICS_HEADER) + "\n0,0,1,1,0,1,1\n1,0,fast,1,0,1,1\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad\.csv:3: malformed row"):
            load_metrics(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(MetricsLoadError, match=re.escape(f"{path}: No such file")):
            load_metrics(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_path_and_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(METRICS_HEADER) + f"\n0,0,1,1,0,1,1\n1,0,{cell},1,0,1,1\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad\.csv:3: non-finite value"):
            load_metrics(path)


class TestTraining:
    def test_artifact_trio_per_seed(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path / "run"))
        out = run_training(cfg)
        for name in ("metrics_seed0.csv", "params_seed0.bin", "manifest_seed0.json"):
            assert (out / name).exists(), name

    def test_metrics_rows_cover_all_episodes(self, tmp_path):
        cfg = tiny_config(episodes=3)
        rows = train_one_seed(cfg, 5, tmp_path)
        assert [r.episode for r in rows] == [0, 1, 2]
        assert all(r.seed == 5 for r in rows)
        back = load_metrics(tmp_path / "metrics_seed5.csv")
        assert back == rows

    def test_reward_sees_the_previous_action(self, tmp_path, monkeypatch):
        """Each episode's first reward gets the simulator's initial action as
        the previous action; every later one gets the action before it."""
        envs, steps = [], []
        setup, reward = harness._setup, harness.total_reward

        def spy_setup(*args):
            env, agent = setup(*args)
            envs.append(env)
            return env, agent

        def spy_reward(raw, action, prev_action, *args):
            steps.append((action, prev_action))
            return reward(raw, action, prev_action, *args)

        monkeypatch.setattr(harness, "_setup", spy_setup)
        monkeypatch.setattr(harness, "total_reward", spy_reward)
        cfg = tiny_config()
        train_one_seed(cfg, 0, tmp_path)
        (env,) = envs
        assert len(steps) == cfg.episodes * cfg.steps_per_episode
        n = cfg.steps_per_episode
        for episode in range(cfg.episodes):
            actions, prevs = zip(*steps[episode * n:(episode + 1) * n])
            assert prevs[0] is env.initial_action
            assert all(prev is action for prev, action in zip(prevs[1:], actions))

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config()
        train_one_seed(cfg, 0, tmp_path)
        doc = json.loads((tmp_path / "manifest_seed0.json").read_text())
        assert doc["status"] == "complete"
        assert doc["algorithm"] == "td3"
        assert doc["scenario"] == "normal_100"
        assert doc["seed"] == 0
        assert doc["config_hash"] == config_hash(cfg)
        assert doc["counters"]["env_steps"] == cfg.episodes * cfg.steps_per_episode
        assert doc["counters"]["critic_updates"] > 0
        assert "numpy" in doc["versions"]

    def test_rows_are_finite_and_sane(self, tmp_path):
        rows = train_one_seed(tiny_config(), 1, tmp_path)
        for r in rows:
            assert np.isfinite([r.mean_latency_ms, r.resource_efficiency,
                                r.slo_violation_rate, r.total_reward]).all()
            assert 0.0 <= r.slo_violation_rate <= 1.0
            assert 0.0 <= r.resource_efficiency <= 1.0
            assert r.mean_latency_ms > 0
            assert r.wall_time_s >= 0

    def test_identical_seed_reproduces_bytes(self, tmp_path):
        cfg = tiny_config()
        train_one_seed(cfg, 7, tmp_path / "a")
        train_one_seed(cfg, 7, tmp_path / "b")
        # all columns except wall-clock must match byte for byte
        assert (strip_wall_time(tmp_path / "a" / "metrics_seed7.csv")
                == strip_wall_time(tmp_path / "b" / "metrics_seed7.csv"))
        assert ((tmp_path / "a" / "params_seed7.bin").read_bytes()
                == (tmp_path / "b" / "params_seed7.bin").read_bytes())

    def test_different_seeds_differ(self, tmp_path):
        cfg = tiny_config()
        r0 = train_one_seed(cfg, 0, tmp_path / "s0")
        r1 = train_one_seed(cfg, 1, tmp_path / "s1")
        assert any(a.mean_latency_ms != b.mean_latency_ms for a, b in zip(r0, r1))

    def test_basek_writes_no_params(self, tmp_path):
        cfg = tiny_config(algorithm="basek")
        train_one_seed(cfg, 0, tmp_path)
        assert (tmp_path / "metrics_seed0.csv").exists()
        assert (tmp_path / "manifest_seed0.json").exists()
        assert not (tmp_path / "params_seed0.bin").exists()

    def test_aborted_run_leaves_exact_manifest(self, tmp_path, monkeypatch):
        # learn() call 7 is the third step of episode 1: 6 finished steps,
        # 2 applied critic updates (batch 4 skips calls 1-4), 1 actor update
        learn = Td3Agent.learn
        calls = []

        def failing_learn(agent, buffer, rng):
            calls.append(1)
            if len(calls) == 7:
                raise ValidationError("injected")
            return learn(agent, buffer, rng)

        monkeypatch.setattr(Td3Agent, "learn", failing_learn)
        with pytest.raises(ValidationError, match="injected"):
            train_one_seed(tiny_config(episodes=3), 0, tmp_path)
        doc = json.loads((tmp_path / "manifest_seed0.json").read_text())
        assert doc["status"] == "aborted"
        assert doc["error"] == "ValidationError: injected"
        counters = doc["counters"]
        assert (counters["env_steps"], counters["critic_updates"],
                counters["actor_updates"]) == (6, 2, 1)
        lines = (tmp_path / "metrics_seed0.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert not (tmp_path / "params_seed0.bin").exists()

    def test_failed_params_write_replaces_complete_manifest(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        manifest = tmp_path / "manifest_seed0.json"
        train_one_seed(cfg, 0, tmp_path)
        assert json.loads(manifest.read_text())["status"] == "complete"

        def full_disk(net, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness, "save_mlp", full_disk)
        with pytest.raises(OSError, match="No space left"):
            train_one_seed(cfg, 0, tmp_path)
        doc = json.loads(manifest.read_text())
        assert doc["status"] == "aborted"
        assert doc["error"] == "OSError: [Errno 28] No space left on device"
        assert doc["counters"]["env_steps"] == cfg.episodes * cfg.steps_per_episode

    def test_interrupted_rerun_replaces_complete_manifest(self, tmp_path, monkeypatch):
        # act() call 6 is the second step of episode 1: 5 finished steps
        cfg = tiny_config(algorithm="basek", episodes=3)
        train_one_seed(cfg, 0, tmp_path)
        act, calls = BaseKScheduler.act, []

        def interrupted_act(agent, *args):
            calls.append(1)
            if len(calls) == 6:
                raise KeyboardInterrupt
            return act(agent, *args)

        monkeypatch.setattr(BaseKScheduler, "act", interrupted_act)
        with pytest.raises(KeyboardInterrupt):
            train_one_seed(cfg, 0, tmp_path)
        doc = json.loads((tmp_path / "manifest_seed0.json").read_text())
        assert doc["status"] == "aborted"
        assert doc["error"] == "KeyboardInterrupt: "
        assert doc["counters"]["env_steps"] == 5
        with pytest.raises(ValidationError, match="run not complete"):
            load_run(tmp_path)

    @pytest.mark.parametrize("episodes,rows", [(2, 8), (65, 256)],
                             ids=["run-shorter-than-capacity", "run-longer"])
    def test_ring_is_sized_from_the_run(self, tmp_path, monkeypatch, episodes, rows):
        sizes = []
        monkeypatch.setattr(harness, "ReplayBuffer",
                            lambda capacity: sizes.append(capacity) or ReplayBuffer(capacity))
        train_one_seed(tiny_config(episodes=episodes), 0, tmp_path)
        assert sizes == [rows]

    @pytest.mark.parametrize("algo", ["ddpg", "dqn"])
    def test_other_learners_complete(self, tmp_path, algo):
        cfg = tiny_config(algorithm=algo)
        rows = train_one_seed(cfg, 0, tmp_path)
        assert len(rows) == cfg.episodes
        assert (tmp_path / "params_seed0.bin").exists()


class TestAtomicWrites:
    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    @pytest.mark.parametrize("name", ["params_seed0.bin", "manifest_seed0.json"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, name, fail_at):
        cfg = tiny_config()
        train_one_seed(cfg, 0, tmp_path)
        target = tmp_path / name
        before = target.read_bytes()
        write_bytes = Path.write_bytes

        def torn_write(path, data):
            write_bytes(path, data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        def failed_replace(src, dst):
            raise OSError(28, "No space left on device")

        if fail_at == "write":
            monkeypatch.setattr(Path, "write_bytes", torn_write)
        else:
            monkeypatch.setattr(os, "replace", failed_replace)
        with pytest.raises(OSError, match="No space left"):
            if name == "params_seed0.bin":
                save_mlp(Mlp([32, 8, 8, 16], "tanh"), target)
            else:
                harness._write_manifest(tmp_path, 0, cfg, {}, status="aborted")
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest_seed0.json", "metrics_seed0.csv", "params_seed0.bin"]


CPUS = len(os.sched_getaffinity(0))
pooled = pytest.mark.skipif(CPUS < 2, reason="a worker lane needs a second CPU")


@pytest.fixture
def workers(monkeypatch):
    """Every process run_campaign starts, recorded as it is started."""
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return started


def one_lane(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def two_by_two(root, **kw):
    """Two configs x two seeds: four jobs, so lane 1 gets jobs 1 and 3 on two CPUs."""
    return [tiny_config(algorithm=algo, seeds=(0, 1), output_dir=str(root / algo), **kw)
            for algo in ("td3", "dqn")]


def artifacts(root):
    """Metrics (without wall_time_s) and params under root; manifests hash output_dir."""
    return {p.relative_to(root).as_posix():
            strip_wall_time(p) if p.suffix == ".csv" else p.read_bytes()
            for p in sorted(root.rglob("*_seed*")) if p.suffix != ".json"}


def broken_trace(tmp_path, kind):
    path = tmp_path / f"{kind}.csv"
    if kind == "malformed":
        path.write_text("step_index,service_id,qps\n0,0,fast\n", encoding="utf-8")
    return path


def lane_process(**popen):
    """A worker lane started as run_lanes starts one, with stderr piped too."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    return subprocess.Popen(
        [sys.executable, "-c", "from edgesched.harness import _lane_main; _lane_main()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, **popen)


# run_lanes job functions: module-level, so a worker lane unpickles them from here


def job_and_pid(value):
    return value, os.getpid()


def fail_at(value, bad):
    if value == bad:
        raise ValueError(f"job {value} failed")
    return value


def interrupt_in(pid):
    """KeyboardInterrupt in process pid; a long wait in any other."""
    if os.getpid() == pid:
        raise KeyboardInterrupt
    time.sleep(60)


class Stubborn(Exception):
    """Pickles, but cannot be unpickled: __init__ takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def raise_stubborn(a, b):
    raise Stubborn(a, b)


class TestLanes:
    def test_results_come_back_in_job_order(self, workers):
        lanes = min(5, CPUS)
        results = run_lanes(job_and_pid, [(value,) for value in range(5)])
        assert [value for value, _ in results] == list(range(5))
        assert len(workers) == lanes - 1 and all(proc.returncode == 0 for proc in workers)
        pids = [pid for _, pid in results]
        assert pids[::lanes] == [os.getpid()] * len(pids[::lanes])
        if lanes > 1:  # lane 1 is another process
            assert pids[1] != os.getpid() and set(pids[1::lanes]) == {pids[1]}

    @pooled
    def test_worker_exception_is_raised_by_caller(self, workers):
        with pytest.raises(ValueError, match="job 1 failed"):
            run_lanes(fail_at, [(0, 1), (1, 1)])  # job 1 is lane 1's
        assert len(workers) == 1 and workers[0].returncode == 0

    def test_one_lane_starts_no_process(self, monkeypatch, workers):
        pid = os.getpid()
        assert run_lanes(job_and_pid, [(7,)]) == [(7, pid)]
        assert run_lanes(job_and_pid, []) == []
        one_lane(monkeypatch)
        assert run_lanes(job_and_pid, [(0,), (1,), (2,)]) == [(0, pid), (1, pid), (2, pid)]
        assert workers == []


class TestCampaign:
    @pooled
    def test_pooled_writes_single_lane_bytes(self, tmp_path, monkeypatch, workers):
        dirs = run_campaign(two_by_two(tmp_path / "pooled"))
        assert dirs == [tmp_path / "pooled" / "td3", tmp_path / "pooled" / "dqn"]
        assert len(workers) == min(4, CPUS) - 1
        assert all(proc.returncode == 0 for proc in workers)
        one_lane(monkeypatch)
        run_campaign(two_by_two(tmp_path / "single"))
        assert len(workers) == min(4, CPUS) - 1
        pooled_files, single_files = artifacts(tmp_path / "pooled"), artifacts(tmp_path / "single")
        assert len(pooled_files) == 2 * 2 * 2
        assert pooled_files == single_files

    def test_single_lane_starts_no_process(self, tmp_path, monkeypatch, workers):
        run_training(tiny_config(output_dir=str(tmp_path / "one_job")))  # one job
        one_lane(monkeypatch)
        run_campaign(two_by_two(tmp_path))
        assert workers == []
        assert len(artifacts(tmp_path)) == 2 + 2 * 2 * 2

    @pooled
    @pytest.mark.parametrize("kind, error", [("missing", TraceParseError),
                                             ("malformed", ValidationError)])
    def test_worker_error_is_raised_by_caller(self, tmp_path, workers, kind, error):
        trace = broken_trace(tmp_path, kind)
        configs = [tiny_config(output_dir=str(tmp_path / "good")),
                   tiny_config(output_dir=str(tmp_path / "bad"), scenario=f"trace:{trace}")]
        with pytest.raises(error, match=str(trace)):
            run_campaign(configs)
        assert len(workers) == 1 and workers[0].returncode == 0
        assert (tmp_path / "good" / "manifest_seed0.json").exists()

    @pooled
    def test_caller_failure_stops_workers(self, tmp_path, workers):
        trace = broken_trace(tmp_path, "missing")
        configs = [tiny_config(output_dir=str(tmp_path / "bad"), scenario=f"trace:{trace}"),
                   tiny_config(output_dir=str(tmp_path / "long"), episodes=10_000)]
        started = time.perf_counter()
        with pytest.raises(TraceParseError, match=str(trace)):
            run_campaign(configs)
        assert time.perf_counter() - started < 30
        assert len(workers) == 1 and workers[0].returncode == 1  # stopped at stdin EOF
        assert not (tmp_path / "long" / "manifest_seed0.json").exists()

    @pooled
    def test_interrupted_caller_waits_for_workers(self, workers):
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):  # in lane 0 only
            run_lanes(interrupt_in, [(os.getpid(),)] * 4)
        assert time.perf_counter() - started < 30
        assert workers and all(proc.returncode == 1 for proc in workers)  # stdin EOF

    @pooled
    def test_worker_without_outcome_names_exit_code(self, tmp_path, monkeypatch, workers):
        popen = subprocess.Popen

        def dying_worker(args, **kwargs):  # reads its jobs, then exits 3 without a word
            return popen([sys.executable, "-c",
                          "import sys; sys.stdin.buffer.read(1); sys.exit(3)"], **kwargs)

        monkeypatch.setattr(subprocess, "Popen", dying_worker)
        with pytest.raises(RuntimeError, match="exited with code 3 without sending an outcome"):
            run_campaign(two_by_two(tmp_path))
        assert [proc.returncode for proc in workers] == [3]
        assert (tmp_path / "td3" / "manifest_seed0.json").exists()


    @pytest.mark.parametrize("case", ["seed_twice", "shared_dir"])
    def test_job_listed_twice_rejected_before_any_lane(self, tmp_path, workers, case):
        # two lanes training one seed into one directory would interleave its files
        out = tmp_path / "run"
        if case == "seed_twice":
            configs = [tiny_config(seeds=(1, 0, 0), output_dir=str(out))]
        else:  # two spellings of one directory
            configs = [tiny_config(seeds=(0, 1), output_dir=str(out)),
                       tiny_config(algorithm="dqn", seeds=(2, 0),
                                   output_dir=str(out / ".." / "run"))]
        with pytest.raises(ValidationError,
                           match=re.escape(f"{out.resolve()}: seed 0 is listed twice")):
            run_campaign(configs)
        assert workers == []
        assert not out.exists()


class TestLaneProtocol:
    def _outcome(self, fn, jobs):
        """Send a new lane (fn, jobs); return its outcome and what it wrote to stderr."""
        proc = lane_process()
        proc.stdin.write(pickle.dumps((fn, jobs)))
        proc.stdin.flush()
        data, stderr = proc.stdout.read(), proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()
        return pickle.loads(data), stderr

    def test_prints_go_to_stderr(self):
        assert self._outcome(print, [("noise", [])]) == ([None], b"noise []\n")

    def test_unpicklable_error_arrives_as_text(self):
        outcome, _ = self._outcome(raise_stubborn, [(1, 2)])
        assert type(outcome) is RuntimeError
        assert str(outcome) == "Stubborn: 1/2"

    def test_unpicklable_result_sends_the_pickling_error(self):
        outcome, _ = self._outcome(threading.Lock, [()])
        assert type(outcome) is TypeError
        assert str(outcome).startswith("cannot pickle")

    def _close_stdin_while_training(self, tmp_path, **popen):
        """Start a long training job on a lane and close its stdin once the job
        has opened its metrics CSV; check the lane exits with 1 and sends nothing."""
        proc = lane_process(**popen)
        config = tiny_config(episodes=10_000, output_dir=str(tmp_path))
        proc.stdin.write(pickle.dumps((harness._train_job, [(config, 0)])))
        proc.stdin.flush()
        deadline = time.perf_counter() + 60
        while not (tmp_path / "metrics_seed0.csv").exists():
            assert proc.poll() is None and time.perf_counter() < deadline
            time.sleep(0.01)
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stdout.read() == b""
        proc.stdout.close()
        proc.stderr.close()
        manifest = json.loads((tmp_path / "manifest_seed0.json").read_text(encoding="utf-8"))
        assert manifest["status"] == "aborted"
        assert manifest["error"].startswith("KeyboardInterrupt")

    def test_stdin_eof_ends_a_busy_lane(self, tmp_path):
        # the job ends as an interrupt would end it, so no stale manifest survives it
        self._close_stdin_while_training(tmp_path)

    def test_stdin_eof_ends_a_lane_started_with_sigint_ignored(self, tmp_path):
        # as a background job of a non-interactive shell is: Python then installs no handler
        self._close_stdin_while_training(
            tmp_path, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))


class TestEvaluation:
    def test_greedy_rollouts_shape(self, tmp_path):
        cfg = tiny_config(seeds=(0, 1))
        out = run_training(tiny_config(output_dir=str(tmp_path / "run")))
        rows = run_evaluation(cfg, out / "params_seed0.bin", episodes=3)
        assert len(rows) == 3 * 2
        assert sorted({r.seed for r in rows}) == [0, 1]

    def test_eval_is_deterministic(self, tmp_path):
        out = run_training(tiny_config(output_dir=str(tmp_path / "run")))
        cfg = tiny_config()
        a = run_evaluation(cfg, out / "params_seed0.bin", episodes=2)
        b = run_evaluation(cfg, out / "params_seed0.bin", episodes=2)
        for x, y in zip(a, b):
            assert (x.mean_latency_ms, x.resource_efficiency,
                    x.slo_violation_rate, x.total_reward) == \
                   (y.mean_latency_ms, y.resource_efficiency,
                    y.slo_violation_rate, y.total_reward)

    @pytest.mark.parametrize("algo", ["td3", "basek"])
    def test_seeds_share_one_setup(self, tmp_path, monkeypatch, algo):
        run_training(tiny_config(algorithm=algo, output_dir=str(tmp_path)))
        params = tmp_path / "params_seed0.bin" if algo == "td3" else None
        cfg = tiny_config(algorithm=algo, seeds=(0, 1))
        loads, load = [], harness.load_mlp
        monkeypatch.setattr(harness, "load_mlp",
                            lambda *args, **kw: loads.append(args) or load(*args, **kw))
        both = run_evaluation(cfg, params, episodes=3)
        assert loads == ([(params,)] if params else [])
        alone = [row for seed in cfg.seeds
                 for row in run_evaluation(cfg, params, episodes=3, seeds=(seed,))]
        assert [row.as_csv()[:-1] for row in both] == [row.as_csv()[:-1] for row in alone]
        assert {row.seed for row in both} == {0, 1}

    def test_learner_requires_params(self):
        with pytest.raises(ValidationError, match="parameter file"):
            run_evaluation(tiny_config(), None, episodes=1)

    def test_basek_needs_no_params(self):
        rows = run_evaluation(tiny_config(algorithm="basek"), None, episodes=1)
        assert len(rows) == 1

    def test_bad_episode_count(self):
        with pytest.raises(ValidationError):
            run_evaluation(tiny_config(algorithm="basek"), None, episodes=0)

    @pytest.mark.parametrize("seeds", [(-1,), (0, -2), (1.5,)])
    def test_bad_seeds_rejected(self, seeds):
        with pytest.raises(ValidationError, match="seeds must be non-negative integers"):
            run_evaluation(tiny_config(algorithm="basek"), None, episodes=1, seeds=seeds)


BATCH_EPISODES = 7
BATCH_STEPS = 20  # past 8 steps, numpy adds a contiguous axis pairwise but axis 0 row by row


def wide_config(**kw):
    """tiny_config with networks as wide as the benchmark's, whose forward
    rounds differently as one flat batch than row by row."""
    return tiny_config(td3=replace(tiny_config().td3, hidden=128),
                       dqn=replace(tiny_config().dqn, hidden=128), **kw)


@pytest.fixture(scope="module")
def wide_policies(tmp_path_factory):
    """Each learner's policy after a few updates on high_300."""
    root = tmp_path_factory.mktemp("policies")
    for algo in ("td3", "ddpg", "dqn"):
        train_one_seed(wide_config(algorithm=algo, scenario="high_300"), 0, root / algo)
    return root


class TestBatchedEvaluation:
    """run_evaluation steps a seed's episodes as one batch; each row and
    each step must keep the bytes of the episode run on its own."""

    @staticmethod
    def scored_steps(monkeypatch) -> list:
        """Record the (raw, action, reward total) blocks of every step the
        harness scores, in call order."""
        steps, score = [], harness.total_reward

        def recording(raw, action, *args):
            breakdown = score(raw, action, *args)
            steps.append((raw._block, action._block, np.asarray(breakdown.total)))
            return breakdown

        monkeypatch.setattr(harness, "total_reward", recording)
        return steps

    @pytest.mark.parametrize("topology", RECORDER["EVAL_TOPOLOGIES"])
    @pytest.mark.parametrize("algo,mode", [("td3", "static"), ("ddpg", "static"),
                                           ("dqn", "static"), ("basek", "static"),
                                           ("basek", "threshold")])
    def test_rows_and_steps_match_one_by_one(self, wide_policies, tmp_path, monkeypatch,
                                             topology, algo, mode):
        config = RECORDER["eval_config"](wide_config(steps_per_episode=BATCH_STEPS,
                                                     seeds=(0, 3)), tmp_path, topology)
        config = replace(config, algorithm=algo, basek_mode=mode)
        params = None if algo == "basek" else wide_policies / algo / "params_seed0.bin"
        steps = self.scored_steps(monkeypatch)
        rows = run_evaluation(config, params, BATCH_EPISODES)
        batched = steps[:]
        del steps[:]
        workload, alone = build_workload(config), []
        for seed in config.seeds:
            env, agent = harness._setup(config, workload, seed)
            if params is not None:
                agent.load_policy(load_mlp(params))
            for episode in range(BATCH_EPISODES):
                alone += harness._run_episode(env, agent, config, seed, episode, "eval", 0, [],
                                              None, None)
        assert [row.as_csv()[:-1] for row in rows] == [row.as_csv()[:-1] for row in alone]
        assert all(type(value) is float for row in rows for value in vars(row).values()
                   if not isinstance(value, int))
        assert len(batched) * BATCH_EPISODES == len(steps) == \
            len(config.seeds) * BATCH_EPISODES * BATCH_STEPS
        for i, step in enumerate(batched):
            seed_index, t = divmod(i, BATCH_STEPS)
            for episode in range(BATCH_EPISODES):
                own = steps[(seed_index * BATCH_EPISODES + episode) * BATCH_STEPS + t]
                for got, want in zip(step, own, strict=True):
                    # a block without the episode axis counts for every episode
                    got = np.broadcast_to(got, (BATCH_EPISODES, *want.shape))[episode]
                    assert got.tobytes() == want.tobytes(), (i, episode)

    @pytest.mark.parametrize("algo", ["td3", "basek"])
    def test_split_batches_keep_the_rows_of_one_batch(self, wide_policies, monkeypatch, algo):
        config = wide_config(algorithm=algo, scenario="high_300", seeds=(0, 3))
        params = None if algo == "basek" else wide_policies / algo / "params_seed0.bin"
        whole = run_evaluation(config, params, BATCH_EPISODES)
        resets, reset = [], ClusterSim.reset
        monkeypatch.setattr(ClusterSim, "reset",
                            lambda env, seeds: resets.append(seeds) or reset(env, seeds))
        monkeypatch.setattr(harness, "_EVAL_BATCH_VALUES",
                            3 * (config.steps_per_episode + 1) * config.sim.n_services)
        split = run_evaluation(config, params, BATCH_EPISODES)
        assert [row.as_csv()[:-1] for row in split] == [row.as_csv()[:-1] for row in whole]
        assert [len(seeds) for seeds in resets] == [3, 3, 1] * len(config.seeds)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    td3_dir = root / "td3_run"
    basek_dir = root / "basek_run"
    run_training(tiny_config(output_dir=str(td3_dir), seeds=(0, 1)))
    run_training(tiny_config(algorithm="basek", output_dir=str(basek_dir),
                             seeds=(0, 1)))
    return td3_dir, basek_dir


def copy_run(run_dir, dest):
    dest.mkdir()
    for f in run_dir.iterdir():
        (dest / f.name).write_bytes(f.read_bytes())
    return dest


class TestComparison:
    def test_load_run_summary(self, two_runs):
        td3_dir, _ = two_runs
        summary = load_run(td3_dir)
        assert summary.algorithm == "td3"
        assert summary.scenario == "normal_100"
        assert summary.seeds == (0, 1)
        assert {len(v) for v in summary.by_seed.values()} == {2}
        assert "td3" in summary.label

    def test_load_run_requires_manifests(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest"):
            load_run(tmp_path)

    def test_load_run_rejects_aborted(self, tmp_path, two_runs):
        clone = copy_run(two_runs[0], tmp_path / "clone")
        doc = json.loads((clone / "manifest_seed0.json").read_text())
        doc["status"] = "aborted"
        (clone / "manifest_seed0.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="not complete"):
            load_run(clone)

    @pytest.mark.parametrize("key", ["algorithm", "scenario", "seed", "episodes",
                                     "steps_per_episode"])
    def test_load_run_rejects_manifest_without_key(self, tmp_path, two_runs, key):
        clone = copy_run(two_runs[0], tmp_path / "clone")
        doc = json.loads((clone / "manifest_seed0.json").read_text())
        del doc[key]
        (clone / "manifest_seed0.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError,
                           match=rf"manifest_seed0\.json: manifest lacks \['{key}'\]"):
            load_run(clone)

    @pytest.mark.parametrize("text,why", [("{", "is not valid JSON"),
                                          ("[]", "is not a JSON object")],
                             ids=["truncated", "list"])
    def test_load_run_rejects_unreadable_manifest(self, tmp_path, two_runs, text, why):
        clone = copy_run(two_runs[0], tmp_path / "clone")
        (clone / "manifest_seed1.json").write_text(text)
        with pytest.raises(ValidationError, match=rf"manifest_seed1\.json: manifest {why}"):
            load_run(clone)

    @pytest.mark.parametrize("key,count,shown", [
        *[(key, bad, rf"manifest_seed0\.json: manifest {key} must be a positive integer")
          for key in ("episodes", "steps_per_episode")
          for bad in ("2", 2.0, 0, -1, True, None)],
        # compared with the row count before anything is sized by it
        ("episodes", 10**400, r"metrics_seed0\.csv: 2 episode rows, manifest says 10{400}$"),
    ], ids=[*(f"{prefix}{bad}" for prefix in ("", "steps-")
              for bad in ("string", "float", "zero", "negative", "bool", "null")), "huge"])
    def test_load_run_rejects_bad_episode_count(self, tmp_path, two_runs, key, count, shown):
        clone = copy_run(two_runs[0], tmp_path / "clone")
        doc = json.loads((clone / "manifest_seed0.json").read_text())
        doc[key] = count
        (clone / "manifest_seed0.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=shown):
            load_run(clone)

    @pytest.mark.parametrize("edit,shown", [
        (lambda lines: lines[:1], "0 episode rows, manifest says 2"),
        (lambda lines: lines[:1] + lines[2:], "1 episode rows, manifest says 2"),
        (lambda lines: lines + lines[2:], "3 episode rows, manifest says 2"),
        (lambda lines: [lines[0], lines[1].replace("0,0,", "0,1,", 1), lines[2]],
         "row 0 is episode 0 of seed 1, expected episode 0 of seed 0"),
        (lambda lines: [lines[0], lines[2], lines[1]],
         "row 0 is episode 1 of seed 0, expected episode 0 of seed 0"),
    ], ids=["header-only", "dropped-row", "extra-row", "wrong-seed", "swapped-rows"])
    def test_load_run_rejects_metrics_unlike_manifest(self, tmp_path, two_runs, edit, shown):
        clone = copy_run(two_runs[0], tmp_path / "clone")
        metrics = clone / "metrics_seed0.csv"
        metrics.write_text("\n".join(edit(metrics.read_text().splitlines())) + "\n")
        with pytest.raises(ValidationError) as exc:
            load_run(clone)
        assert str(exc.value) == f"{metrics}: {shown}"

    @pytest.mark.parametrize("seed1,key,shown", [
        (dict(episodes=3, steps_per_episode=6), "episodes", "2 for seed 0 but 3 for seed 1"),
        (dict(steps_per_episode=6), "steps_per_episode", "4 for seed 0 but 6 for seed 1"),
    ], ids=["episodes-and-steps", "steps-only"])
    def test_load_run_rejects_seeds_of_different_experiments(self, tmp_path, seed1, key,
                                                             shown):
        run = tmp_path / "run"
        for seed, kw in ((0, {}), (1, seed1)):
            train_one_seed(tiny_config(algorithm="basek", output_dir=str(run), **kw), seed, run)
        with pytest.raises(ValidationError) as exc:
            load_run(run)
        assert str(exc.value) == (f"{run}: seeds ran different experiments: {key} is "
                                  f"{shown}")

    def test_load_run_accepts_seeds_trained_apart(self, tmp_path):
        # the config hash covers seeds and output_dir, so it may differ
        run = tmp_path / "run"
        for seed in (0, 1):
            train_one_seed(tiny_config(algorithm="basek", seeds=(seed,)), seed, run)
        hashes = {json.loads((run / f"manifest_seed{seed}.json").read_text())["config_hash"]
                  for seed in (0, 1)}
        assert len(hashes) == 2
        assert load_run(run).seeds == (0, 1)

    def test_compare_needs_two_runs(self, two_runs):
        with pytest.raises(ValidationError, match="two run directories"):
            compare_runs([two_runs[0]])

    def test_compare_refuses_mixed_scenarios(self, tmp_path, two_runs):
        other = tmp_path / "high"
        run_training(tiny_config(scenario="high_300", output_dir=str(other)))
        with pytest.raises(ValidationError, match="different scenarios"):
            compare_runs([two_runs[0], other])

    def test_report_table(self, two_runs):
        report = compare_runs(list(two_runs), last_k=1)
        text = report.table_text()
        assert "scenario: normal_100" in text
        assert "mean_latency_ms" in text and "slo_violation_rate" in text
        assert "td3" in text and "basek" in text
        assert "last-1" in text

    def test_curve_rows_layout(self, two_runs):
        report = compare_runs(list(two_runs))
        rows = report.curve_rows()
        assert rows[0] == ["run", "algorithm", "metric", "episode", "mean"]
        # 2 runs x 4 metrics x 2 episodes, plus the header
        assert len(rows) == 1 + 2 * 4 * 2
        assert {r[1] for r in rows[1:]} == {"td3", "basek"}
        for row in rows[1:]:
            float(row[4])

    def test_write_curves_round_trip(self, two_runs, tmp_path):
        report = compare_runs(list(two_runs))
        path = tmp_path / "curves.csv"
        report.write_curves(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "run,algorithm,metric,episode,mean"
        assert len(lines) == len(report.curve_rows())
