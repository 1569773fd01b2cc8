"""The bench tracer's hooks still fit the package.

bench/timers.py wraps functions by name and reads some of their arguments
and results. This runs it over a small training run of each algorithm and
a greedy evaluation in a subprocess, so its global patches stay out of the
test process, and checks the exact call counts. Renaming or reshaping a
hooked function fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import edgesched

SRC_DIR = Path(edgesched.__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
EPISODES, STEPS = 2, 4
BATCH, POLICY_FREQ = 4, 2

SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
from timers import Tracer
tracer = Tracer()
tracer.install()
from dataclasses import replace
from edgesched.agents import DqnHyper, Td3Hyper
from edgesched.configio import ExperimentConfig
from edgesched.harness import run_evaluation, train_one_seed
config = ExperimentConfig(episodes={episodes}, steps_per_episode={steps}, seeds=(0,),
                          td3=Td3Hyper(hidden=8, batch_size={batch}, warmup_transitions=4,
                                       policy_freq={policy_freq}, buffer_capacity=256),
                          dqn=DqnHyper(hidden=8, batch_size={batch}, warmup_transitions=4,
                                       buffer_capacity=256))
out = Path({out!r})
snapshots = []
for algo in {algos!r}:
    train_one_seed(replace(config, algorithm=algo), 0, out / algo)
    snapshots.append(tracer.snapshot())
run_evaluation(config, out / "td3" / "params_seed0.bin", {episodes})
snapshots.append(tracer.snapshot())
print(json.dumps(snapshots))
"""
ALGOS = ("td3", "ddpg", "dqn", "basek")


def _run_deltas(snapshots):
    """Each run's own calls and counts: the difference from the snapshot before it."""
    runs, before = [], {"calls": {}, "counts": {}}
    for snap in snapshots:
        runs.append({part: {key: value - before[part].get(key, 0)
                            for key, value in snap[part].items()}
                     for part in ("calls", "counts")})
        before = snap
    return runs


def test_traced_training_counts(tmp_path):
    script = SCRIPT.format(src=str(SRC_DIR), bench=str(BENCH_DIR), episodes=EPISODES,
                           steps=STEPS, batch=BATCH, policy_freq=POLICY_FREQ,
                           out=str(tmp_path / "run"), algos=ALGOS)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = _run_deltas(json.loads(proc.stdout.splitlines()[-1]))
    steps = EPISODES * STEPS
    # every run steps the simulator once per window. A learning agent calls
    # learn() once per step and applies it from step BATCH + 1 on; the
    # baseline stores nothing and the greedy evaluation learns nothing.
    learning = (steps, steps - BATCH)
    expected = {"td3": learning, "ddpg": learning, "dqn": learning,
                "basek": (0, 0), "eval": (0, 0)}
    for (name, (learns, applied)), run in zip(expected.items(), runs, strict=True):
        assert run["calls"]["simulator.step"] == steps, name
        assert run["calls"]["agents.learn"] == learns, name
        assert run["counts"]["agents.learn.applied"] == applied, name
    assert runs[-1]["calls"]["harness.run_evaluation"] == 1
    snapshot = runs[0]
    calls = snapshot["calls"]
    assert calls["harness.train_one_seed"] == 1
    assert calls["simulator.reset"] == EPISODES
    for key in ("simulator.step", "agents.act", "replay.add", "agents.learn"):
        assert calls[key] == steps, key
    # the step path adopts each raw, state and action block without running a
    # public constructor, so only set-up builds an object: the simulator's
    # initial action, which the agent shares
    assert calls["domain.objects"] == 1
    # learn() applies an update once the buffer holds more than a batch: from
    # step BATCH + 1 on. Each update steps both critics (a backward and an Adam
    # step each); every POLICY_FREQ-th also steps the actor, with a backward
    # through critic 0 for the action gradient and one through the actor.
    critic_updates = steps - BATCH
    actor_updates = critic_updates // POLICY_FREQ
    assert snapshot["counts"]["agents.learn.applied"] == critic_updates == 4
    assert calls["nets.backward"] == 2 * critic_updates + 2 * actor_updates == 12
    assert calls["nets.adam_step"] == 2 * critic_updates + actor_updates == 10
