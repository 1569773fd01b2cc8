"""Command-line surface: train, eval, compare, gen-trace."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import BLAS_THREAD_VARS

# One BLAS thread, set before numpy loads: this process is lane 0 of a
# several-seed train, and more BLAS threads here would compete with the lanes.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from .agents import AGENT_KINDS
from .configio import MAX_STEPS_PER_EPISODE, load_config
from .domain import ValidationError
from .harness import METRICS_HEADER, compare_runs, run_evaluation, run_training
from .workload import TraceRecord, burst_source, constant_source, sinusoidal_source, write_trace


def _cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    overrides: dict = {"algorithm": args.algo}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.out is not None:
        overrides["output_dir"] = args.out
    config = replace(config, **overrides)
    out_dir = run_training(config)
    print(f"trained {config.algorithm} on {config.scenario}: "
          f"{config.episodes} episodes x {config.steps_per_episode} steps, "
          f"seeds {list(config.seeds)} -> {out_dir}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seeds = None if args.seed is None else (args.seed,)
    rows = run_evaluation(config, args.params, args.episodes, seeds=seeds)
    writer = csv.writer(sys.stdout)
    writer.writerow(METRICS_HEADER)
    for row in rows:
        writer.writerow(row.as_csv())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_runs([Path(d) for d in args.runs])
    sys.stdout.write(report.table_text())
    if args.out is not None:
        report.write_curves(args.out)
        print(f"learning curves -> {args.out}")
    return 0


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    if not 1 <= args.steps <= MAX_STEPS_PER_EPISODE + 1:  # the most rows a run reads
        raise ValidationError(f"--steps must be in [1, {MAX_STEPS_PER_EPISODE + 1}]")
    if args.services < 1:
        raise ValidationError("--services must be >= 1")
    n, rows = args.services, args.steps
    if args.kind == "constant":
        rates = constant_source(args.rate, n, rows)
    elif args.kind == "sinusoidal":
        amplitude = 0.5 * args.rate if args.amplitude is None else args.amplitude
        rates = sinusoidal_source(args.rate, amplitude, args.period, n, rows)
    else:
        burst_rate = 3.0 * args.rate if args.burst_rate is None else args.burst_rate
        burst_start = args.steps // 3 if args.burst_start is None else args.burst_start
        burst_len = max(1, args.steps // 5) if args.burst_len is None else args.burst_len
        rates = burst_source(args.rate, burst_rate, burst_start, burst_len, n, rows)
    write_trace((TraceRecord(step, i, float(qps)) for step, row in enumerate(rates)
                 for i, qps in enumerate(row)), args.out)
    print(f"wrote {args.out}: {args.steps} steps x {n} services ({args.kind})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesched",
        description="Continuous-control resource allocation experiments "
                    "on a simulated cloud-edge cluster.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="run a training campaign",
        description="Train one seed per entry of the config's seeds list. Several seeds "
                    "train side by side, one CPU lane each, and this process is lane 0.")
    train.add_argument("--config", required=True, help="experiment JSON file")
    train.add_argument("--algo", required=True, choices=AGENT_KINDS,
                       help="policy to train")
    train.add_argument("--seed", type=int, default=None,
                       help="train this single seed instead of the config's list")
    train.add_argument("--out", default=None, help="override the output directory")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("eval", help="greedy rollouts of saved parameters")
    evaluate.add_argument("--config", required=True, help="experiment JSON file")
    evaluate.add_argument("--params", default=None,
                          help="parameter file from a training run "
                               "(unused for the non-learning baseline)")
    evaluate.add_argument("--episodes", type=int, required=True,
                          help="episodes per seed")
    evaluate.add_argument("--seed", type=int, default=None,
                          help="evaluate this single seed instead of the config's list")
    evaluate.set_defaults(func=_cmd_eval)

    compare = sub.add_parser("compare", help="tabulate completed runs")
    compare.add_argument("--runs", nargs="+", required=True,
                         help="two or more run directories")
    compare.add_argument("--out", default=None,
                         help="also write learning-curve series to this CSV")
    compare.set_defaults(func=_cmd_compare)

    gen = sub.add_parser("gen-trace", help="write a synthetic workload trace CSV")
    gen.add_argument("--kind", required=True,
                     choices=("constant", "sinusoidal", "burst"))
    gen.add_argument("--out", required=True, help="trace CSV path")
    gen.add_argument("--steps", type=int, required=True)
    gen.add_argument("--services", type=int, default=8)
    gen.add_argument("--rate", type=float, default=100.0,
                     help="aggregate request rate (mean/base for the varying kinds)")
    gen.add_argument("--period", type=int, default=20, help="sinusoidal period in steps")
    gen.add_argument("--amplitude", type=float, default=None,
                     help="sinusoidal amplitude (default rate/2)")
    gen.add_argument("--burst-rate", type=float, default=None,
                     help="rate inside the burst (default 3x rate)")
    gen.add_argument("--burst-start", type=int, default=None)
    gen.add_argument("--burst-len", type=int, default=None)
    gen.set_defaults(func=_cmd_gen_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
