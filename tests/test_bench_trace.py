"""The bench tracer's hooks still fit the package.

bench/timers.py wraps functions by name and reads some of their arguments
and results. This runs it over a small training run in a subprocess, so
its global patches stay out of the test process, and checks the exact call
counts. Renaming or reshaping a hooked function fails here.
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
from edgesched.agents import Td3Hyper
from edgesched.configio import ExperimentConfig
from edgesched.harness import train_one_seed
config = ExperimentConfig(episodes={episodes}, steps_per_episode={steps}, seeds=(0,),
                          td3=Td3Hyper(hidden=8, batch_size={batch}, warmup_transitions=4,
                                       policy_freq={policy_freq}, buffer_capacity=256))
train_one_seed(config, 0, Path({out!r}))
print(json.dumps(tracer.snapshot()))
"""


def test_traced_training_counts(tmp_path):
    script = SCRIPT.format(src=str(SRC_DIR), bench=str(BENCH_DIR), episodes=EPISODES,
                           steps=STEPS, batch=BATCH, policy_freq=POLICY_FREQ,
                           out=str(tmp_path / "run"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(proc.stdout.splitlines()[-1])
    calls = snapshot["calls"]
    steps = EPISODES * STEPS
    assert calls["harness.train_one_seed"] == 1
    assert calls["simulator.reset"] == EPISODES
    for key in ("simulator.step", "agents.act", "replay.add", "agents.learn"):
        assert calls[key] == steps, key
    # per episode: a reset builds raw, state and the initial action, and each
    # step builds the action, raw and state; +1 is the setup's initial action
    assert calls["domain.objects"] == 3 * EPISODES * (STEPS + 1) + 1
    # learn() applies an update once the buffer holds more than a batch: from
    # step BATCH + 1 on. Each update steps both critics (a backward and an Adam
    # step each); every POLICY_FREQ-th also steps the actor, with a backward
    # through critic 0 for the action gradient and one through the actor.
    critic_updates = steps - BATCH
    actor_updates = critic_updates // POLICY_FREQ
    assert snapshot["counts"]["agents.learn.applied"] == critic_updates == 4
    assert calls["nets.backward"] == 2 * critic_updates + 2 * actor_updates == 12
    assert calls["nets.adam_step"] == 2 * critic_updates + actor_updates == 10
