#!/usr/bin/env python3
"""Record sha256 hashes of a fixed artifact matrix into tests/golden.json.

The matrix is 4 algorithms x 2 scenarios x seed 0 at configs/smoke.json
sizes. Each metrics CSV is hashed without its wall_time_s column; each
params_seed0.bin is hashed as written. tests/test_golden.py re-creates the
artifacts and compares them against these hashes, so a refactor that
changes any output byte fails there. Re-record only when a change to the
outputs is intended:

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

from edgesched.configio import load_config
from edgesched.harness import run_training

GOLDEN = ROOT / "tests" / "golden.json"
ALGOS = ("td3", "ddpg", "dqn", "basek")
SCENARIOS = ("normal_100", "high_300")
SEED = 0


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


def artifact_hashes(work_dir: Path) -> dict[str, str]:
    """Train the matrix under work_dir; map '<scenario>/<algo>/<file>' to sha256."""
    base = load_config(ROOT / "configs" / "smoke.json")
    hashes = {}
    for scenario in SCENARIOS:
        for algo in ALGOS:
            out = work_dir / scenario / algo
            run_training(replace(base, algorithm=algo, scenario=scenario,
                                 seeds=(SEED,), output_dir=str(out)))
            hashes[f"{scenario}/{algo}/metrics_seed{SEED}.csv"] = \
                _metrics_digest(out / f"metrics_seed{SEED}.csv")
            params = out / f"params_seed{SEED}.bin"
            if params.exists():
                hashes[f"{scenario}/{algo}/{params.name}"] = \
                    hashlib.sha256(params.read_bytes()).hexdigest()
    return hashes


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = {"build": build_key(), "artifacts": artifact_hashes(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['artifacts'])} hashes to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
