#!/usr/bin/env python3
"""Train all four policies on both load scenarios and print the comparison.

Reproduces the qualitative-ordering experiment end to end: 4 algorithms x
2 scenarios x 4 seeds with the settings the acceptance suite locks in
(60 episodes of 20 steps, 128-wide nets, 5e-4 learning rates). The 32
jobs train in one lane per CPU (harness.run_campaign). Took 61 s on a
2-vCPU x86_64 Xeon host (OpenBLAS SkylakeX kernel, Python 3.11.7,
numpy 2.4.6), against 125 s for the same jobs one after another; pass
--episodes / --seeds to shrink it.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: this process is lane 0 of the
# campaign, and more BLAS threads here would compete with the worker lanes.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgesched.agents import DqnHyper, Td3Hyper
from edgesched.configio import ExperimentConfig
from edgesched.harness import compare_runs, run_campaign

ALGOS = ("td3", "ddpg", "dqn", "basek")
SCENARIOS = ("normal_100", "high_300")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/campaign", help="campaign root directory")
    parser.add_argument("--episodes", type=int, default=60)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--hidden", type=int, default=128)
    parser.add_argument("--lr", type=float, default=5e-4)
    args = parser.parse_args()

    root = Path(args.out)
    td3 = Td3Hyper(hidden=args.hidden, actor_lr=args.lr, critic_lr=args.lr)
    dqn = DqnHyper(hidden=args.hidden, lr=args.lr)

    started = time.perf_counter()
    configs = [ExperimentConfig(algorithm=algo, episodes=args.episodes, steps_per_episode=20,
                                scenario=scenario, seeds=tuple(args.seeds),
                                output_dir=str(root / scenario / algo), td3=td3, dqn=dqn)
               for scenario in SCENARIOS for algo in ALGOS]
    print(f"training {ALGOS} on {SCENARIOS} (seeds {args.seeds}) -> {root}", flush=True)
    dirs = run_campaign(configs)
    for k in range(0, len(dirs), len(ALGOS)):
        print()
        print(compare_runs(dirs[k:k + len(ALGOS)]).table_text())
    print(f"campaign wall time: {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
