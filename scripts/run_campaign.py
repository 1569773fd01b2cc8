#!/usr/bin/env python3
"""Train all four policies on both load scenarios and print the comparison.

Reproduces the qualitative-ordering experiment end to end: 4 algorithms x
2 scenarios x 4 seeds with the settings the acceptance suite locks in
(60 episodes of 20 steps, 128-wide nets, 5e-4 learning rates). Took 104 s
on a 2-vCPU x86_64 Xeon host (OpenBLAS SkylakeX kernel, Python 3.11.7,
numpy 2.4.6); pass --episodes / --seeds to shrink it.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgesched.agents import DqnHyper, Td3Hyper
from edgesched.configio import ExperimentConfig
from edgesched.harness import compare_runs, run_training

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
    for scenario in SCENARIOS:
        dirs = []
        for algo in ALGOS:
            out = root / scenario / algo
            print(f"training {algo} on {scenario} "
                  f"(seeds {args.seeds}) -> {out}", flush=True)
            cfg = ExperimentConfig(algorithm=algo, episodes=args.episodes,
                                   steps_per_episode=20, scenario=scenario,
                                   seeds=tuple(args.seeds), output_dir=str(out),
                                   td3=td3, dqn=dqn)
            run_training(cfg)
            dirs.append(out)
        print()
        print(compare_runs(dirs).table_text())
    print(f"campaign wall time: {time.perf_counter() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
