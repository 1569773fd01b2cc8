#!/usr/bin/env python3
"""Train all four policies on both load scenarios and print the comparison.

Reproduces the qualitative-ordering experiment end to end: 4 algorithms x
2 scenarios x 4 seeds with the settings the acceptance suite locks in
(60 episodes of 20 steps, 128-wide nets, 5e-4 learning rates). The 32
jobs train in one lane per CPU (harness.run_campaign). One run took 26 s
on a 2-vCPU x86_64 Xeon host (OpenBLAS SkylakeX kernel, Python 3.11.7,
numpy 2.4.6), and 42 s pinned to one CPU (taskset -c 0), where the jobs
run one after another. A shared host's speed drifts, so compare only
timings taken together. Pass --episodes / --seeds to shrink it.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgesched import BLAS_THREAD_VARS  # loads no numpy

# One BLAS thread, set before numpy loads: this process is lane 0 of the
# campaign, and more BLAS threads here would compete with the worker lanes.
for var in BLAS_THREAD_VARS:
    os.environ.setdefault(var, "1")

from edgesched.agents import DqnHyper, Td3Hyper
from edgesched.configio import ExperimentConfig
from edgesched.harness import compare_runs, run_campaign

ALGOS = ("td3", "ddpg", "dqn", "basek")
SCENARIOS = ("normal_100", "high_300")


def campaign_configs(root: Path, episodes: int, seeds, hidden: int,
                     lr: float) -> list[ExperimentConfig]:
    """One config per (scenario, algorithm), scenario-major, run under root/scenario/algo."""
    td3 = Td3Hyper(hidden=hidden, actor_lr=lr, critic_lr=lr)
    dqn = DqnHyper(hidden=hidden, lr=lr)
    return [ExperimentConfig(algorithm=algo, episodes=episodes, steps_per_episode=20,
                             scenario=scenario, seeds=tuple(seeds),
                             output_dir=str(Path(root) / scenario / algo), td3=td3, dqn=dqn)
            for scenario in SCENARIOS for algo in ALGOS]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/campaign", help="campaign root directory")
    parser.add_argument("--episodes", type=int, default=60)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--hidden", type=int, default=128)
    parser.add_argument("--lr", type=float, default=5e-4)
    args = parser.parse_args()

    root = Path(args.out)
    started = time.perf_counter()
    configs = campaign_configs(root, args.episodes, args.seeds, args.hidden, args.lr)
    print(f"training {ALGOS} on {SCENARIOS} (seeds {args.seeds}) -> {root}", flush=True)
    dirs = run_campaign(configs)
    for k in range(0, len(dirs), len(ALGOS)):
        print()
        print(compare_runs(dirs[k:k + len(ALGOS)]).table_text())
    print(f"campaign wall time: {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
