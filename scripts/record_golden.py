#!/usr/bin/env python3
"""Record sha256 hashes of a fixed artifact matrix into tests/golden.json.

The matrix is 4 algorithms x 2 scenarios x seed 0 at configs/smoke.json
sizes, plus greedy evaluations of each algorithm's trained high_300 policy
(the threshold rule for the baseline) on a shared-edge topology under a
burst trace, where node grants are scaled down and memory pressure sets
in. Each metrics or evaluation CSV is hashed without its wall_time_s
column; each params_seed0.bin is hashed as written. tests/test_golden.py
re-creates the artifacts and compares them against these hashes, so a
refactor that changes any output byte fails there. Re-record only when
a change to the outputs is intended:

    PYTHONPATH=src python3 scripts/record_golden.py
"""

import csv
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from edgesched.configio import TRACE_PREFIX, load_config
from edgesched.domain import default_services, make_node
from edgesched.harness import export_csv, run_campaign, run_evaluation
from edgesched.workload import TraceRecord, front_heavy_weights, write_trace

GOLDEN = ROOT / "tests" / "golden.json"
ALGOS = ("td3", "ddpg", "dqn", "basek")
SCENARIOS = ("normal_100", "high_300")
SEED = 0
EVAL_ALGOS = ("td3", "ddpg", "dqn", "basek")


def build_key() -> dict:
    """The build the hashes hold for; other builds may round differently."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def _metrics_digest(path: Path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_time_s"]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def eval_config(base, work_dir: Path):
    """base on 2 edge + 2 cloud nodes under a burst trace written to work_dir.

    Two services share each 2-core edge node, so mid-box CPU requests are
    scaled down; the burst pushes the heavy services' memory demand past
    their grants.
    """
    nodes = [make_node(0, "edge"), make_node(1, "edge"),
             make_node(2, "cloud"), make_node(3, "cloud")]
    sim = replace(base.sim, nodes=nodes, services=default_services(nodes))
    weights = front_heavy_weights(sim.n_services)
    trace = work_dir / "burst.csv"
    write_trace([TraceRecord(step, i, (800.0 if step in (2, 3) else 100.0) * w)
                 for step in range(base.steps_per_episode + 1)
                 for i, w in enumerate(weights)], trace)
    return replace(base, sim=sim, scenario=TRACE_PREFIX + str(trace), basek_mode="threshold")


def artifact_hashes(work_dir: Path) -> dict[str, str]:
    """Train and evaluate the matrix under work_dir; map '<group>/<algo>/<file>' to sha256."""
    base = load_config(ROOT / "configs" / "smoke.json")
    hashes = {}
    for out in run_campaign([replace(base, algorithm=algo, scenario=scenario, seeds=(SEED,),
                                     output_dir=str(work_dir / scenario / algo))
                             for scenario in SCENARIOS for algo in ALGOS]):
        run = f"{out.parent.name}/{out.name}"
        hashes[f"{run}/metrics_seed{SEED}.csv"] = _metrics_digest(out / f"metrics_seed{SEED}.csv")
        params = out / f"params_seed{SEED}.bin"
        if params.exists():
            hashes[f"{run}/{params.name}"] = hashlib.sha256(params.read_bytes()).hexdigest()
    config = eval_config(base, work_dir)
    for algo in EVAL_ALGOS:
        out = work_dir / "eval_shared_edge" / algo
        out.mkdir(parents=True)
        rows = run_evaluation(replace(config, algorithm=algo),
                              work_dir / "high_300" / algo / f"params_seed{SEED}.bin",
                              episodes=base.episodes, seeds=(SEED,))
        export_csv(rows, out / f"eval_seed{SEED}.csv")
        hashes[f"eval_shared_edge/{algo}/eval_seed{SEED}.csv"] = \
            _metrics_digest(out / f"eval_seed{SEED}.csv")
    return hashes


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = {"build": build_key(), "artifacts": artifact_hashes(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['artifacts'])} hashes to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
