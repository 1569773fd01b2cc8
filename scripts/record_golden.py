#!/usr/bin/env python3
"""Record sha256 hashes of a fixed artifact matrix into tests/golden.json.

The matrix is 4 algorithms x 2 scenarios x seed 0 at configs/smoke.json
sizes, plus greedy evaluations of each algorithm's trained high_300 policy
(the threshold rule for the baseline) under a burst trace on two
topologies: a shared-edge one, where node grants are scaled down and
memory pressure sets in, and a crowded-edge one, where one node hosts five
services and the others two and one, so grants are summed and scaled over
nodes of several member counts. Each metrics or evaluation CSV is hashed without
its wall_time_s column; each params_seed0.bin is hashed as written. Each run also
gets a per-step digest (steps_seed0): one sha256 over the bytes of every window's
raw metrics, every action passed to ClusterSim.step and every reward total, in
step order, episode by episode (a batch of evaluation episodes hashes as the
same episodes run one by one), so a last-bit change that the per-episode
aggregates round away still shows. The TD3 and DDPG runs get a second digest
(units_seed0) over every unit-box action their acts pass to action_from_unit,
kept per episode row alike, so a last-bit change in the actor's output shows
even where the box mapping rounds it away. The training runs go one at a time
in this process, so the hooks that feed the digests see every step. tests/test_golden.py
re-creates the artifacts and compares them against these hashes, so a
refactor that changes any output byte fails there.

OpenBLAS picks a matrix kernel for the CPU it runs on, and the kernels round
differently, so golden.json holds one table of hashes per build and kernel.
The recorder runs the matrix once per kernel in KERNELS, each in a child
process with OPENBLAS_CORETYPE set, and keeps one table per kernel the
library reports. Re-record only when a change to the outputs is intended:

    PYTHONPATH=src python3 scripts/record_golden.py
"""

import csv
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from edgesched import agents, harness
from edgesched.configio import TRACE_PREFIX, load_config
from edgesched.domain import NodeSpec, RawMetrics, default_services
from edgesched.harness import export_csv, run_evaluation, train_one_seed
from edgesched.simulator import ClusterSim
from edgesched.workload import TraceRecord, front_heavy_weights, write_trace

GOLDEN = ROOT / "tests" / "golden.json"
ALGOS = ("td3", "ddpg", "dqn", "basek")
SCENARIOS = ("normal_100", "high_300")
SEED = 0
EVAL_ALGOS = ("td3", "ddpg", "dqn", "basek")
EVAL_TOPOLOGIES = ("shared_edge", "crowded_edge")
UNIT_ALGOS = ("td3", "ddpg")  # the runs whose acts map unit-box actions
CROWDED_HOMES = (0, 1, 0, 2, 0, 1, 0, 0)  # home node of each default service


# OPENBLAS_CORETYPE values to record under; None leaves the choice to OpenBLAS.
KERNELS = (None, "Haswell", "Sandybridge", "Prescott")


def blas_core() -> str | None:
    """The OpenBLAS kernel numpy runs on, by the name the library reports.

    A forced Prescott reports Katmai. bench/unit.py blas_info reads it alike.
    """
    package = Path(np.__file__).resolve().parent
    for path in sorted([*(package.parent / "numpy.libs").glob("*openblas*.so*"),
                        *(package / ".libs").glob("*openblas*.so*")]):
        lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            if (corename := getattr(lib, name, None)) is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def build_key() -> dict:
    """The build the hashes hold for; other builds may round differently."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "blas_core": blas_core()}


def _metrics_digest(path: Path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_time_s"]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _field_block(obj) -> np.ndarray:
    """A value object's field rows stacked along axis -2, in field order."""
    return np.stack([getattr(obj, f.name) for f in fields(obj)], axis=-2)


@contextmanager
def step_digest():
    """Yield two sha256s fed while the block runs: "steps" with each window's
    raw metrics, each action passed to ClusterSim.step and each reward total,
    and "units" with each unit-box action an agent passes to
    action_from_unit, each in call order.

    Each episode row of a call with a leading episode axis keeps a byte stream
    of its own per digest, and a call without that axis (a baseline's one
    action, a training act) counts for every row; at the next reset and at
    the end, the streams join in episode order, so a batch of episodes hashes
    as the same episodes run one by one. The raw metrics are found by type in
    the reset and step results, so the digest does not depend on where in the
    result they sit.
    """
    digests = {"steps": hashlib.sha256(), "units": hashlib.sha256()}
    streams = {key: [bytearray()] for key in digests}  # the current reset's, per episode row
    reset, step, reward = ClusterSim.reset, ClusterSim.step, harness.total_reward
    from_unit = agents.action_from_unit

    def feed(key: str, values, row_ndim: int) -> None:
        values = np.asarray(values, dtype="<f8")
        rows = np.broadcast_to(values, (len(streams[key]),
                                        *values.shape[values.ndim - row_ndim:]))
        for stream, row in zip(streams[key], rows, strict=True):
            stream += row.tobytes()

    def flush() -> None:
        for key, digest in digests.items():
            for stream in streams[key]:
                digest.update(stream)

    def add_raw(result):
        feed("steps", _field_block(next(x for x in result if isinstance(x, RawMetrics))), 2)
        return result

    def hashed_reset(sim, *args, **kwargs):
        flush()
        result = reset(sim, *args, **kwargs)
        raw = _field_block(next(x for x in result if isinstance(x, RawMetrics)))
        for key in streams:
            streams[key] = [bytearray() for _ in range(len(raw) if raw.ndim == 3 else 1)]
        return add_raw(result)

    def hashed_step(sim, action):
        feed("steps", _field_block(action), 2)
        return add_raw(step(sim, action))

    def hashed_reward(*args, **kwargs):
        breakdown = reward(*args, **kwargs)
        feed("steps", breakdown.total, 0)
        return breakdown

    def hashed_from_unit(u):
        feed("units", u, 1)
        return from_unit(u)

    ClusterSim.reset = hashed_reset
    ClusterSim.step = hashed_step
    harness.total_reward = hashed_reward
    agents.action_from_unit = hashed_from_unit
    try:
        yield digests
    finally:
        flush()
        ClusterSim.reset, ClusterSim.step, harness.total_reward = reset, step, reward
        agents.action_from_unit = from_unit


def eval_config(base, work_dir: Path, topology: str):
    """base on the named evaluation topology under a burst trace written to work_dir.

    shared_edge: 2 edge + 2 cloud nodes with two services on each, so
    mid-box CPU requests are scaled down on the 2-core edge nodes.
    crowded_edge: services 0, 2, 4, 6 and 7 on an edge node of 3 cores and
    3000 MB, 1 and 5 on a stock edge node and 3 on a cloud node, so node 0's
    grants are scaled down over five interleaved members. Node 0 is sized so
    its lighter services run below saturation: their latency then follows
    the last bits of the scaled grants, so a reordered sum shows in the CSVs.
    The burst pushes the heavy services' memory demand past their grants.
    """
    if topology == "shared_edge":
        nodes = [NodeSpec(0, "edge"), NodeSpec(1, "edge"),
                 NodeSpec(2, "cloud"), NodeSpec(3, "cloud")]
        services = default_services(nodes)
    else:
        nodes = [NodeSpec(0, "edge", cpu_capacity=3.0, mem_capacity=3000.0),
                 NodeSpec(1, "edge"), NodeSpec(2, "cloud")]
        services = [replace(s, home_node=home)
                    for s, home in zip(default_services(), CROWDED_HOMES)]
    sim = replace(base.sim, nodes=nodes, services=services)
    weights = front_heavy_weights(sim.n_services)
    trace = work_dir / "burst.csv"
    write_trace([TraceRecord(step, i, (800.0 if step in (2, 3) else 100.0) * w)
                 for step in range(base.steps_per_episode + 1)
                 for i, w in enumerate(weights)], trace)
    return replace(base, sim=sim, scenario=TRACE_PREFIX + str(trace), basek_mode="threshold")


def _digest_hashes(run: str, algo: str, digests: dict) -> dict[str, str]:
    """The steps digest of run, and its units digest if algo maps unit actions."""
    keys = ("steps", "units") if algo in UNIT_ALGOS else ("steps",)
    return {f"{run}/{key}_seed{SEED}": digests[key].hexdigest() for key in keys}


def artifact_hashes(work_dir: Path) -> dict[str, str]:
    """Train and evaluate the matrix under work_dir; map '<group>/<algo>/<file>' to sha256."""
    base = load_config(ROOT / "configs" / "smoke.json")
    hashes = {}
    for scenario in SCENARIOS:
        for algo in ALGOS:
            out, run = work_dir / scenario / algo, f"{scenario}/{algo}"
            with step_digest() as digests:
                train_one_seed(replace(base, algorithm=algo, scenario=scenario, seeds=(SEED,),
                                       output_dir=str(out)), SEED, out)
            hashes.update(_digest_hashes(run, algo, digests))
            hashes[f"{run}/metrics_seed{SEED}.csv"] = \
                _metrics_digest(out / f"metrics_seed{SEED}.csv")
            params = out / f"params_seed{SEED}.bin"
            if params.exists():
                hashes[f"{run}/{params.name}"] = hashlib.sha256(params.read_bytes()).hexdigest()
    for topology in EVAL_TOPOLOGIES:
        config = eval_config(base, work_dir, topology)
        for algo in EVAL_ALGOS:
            run = f"eval_{topology}/{algo}"
            out = work_dir / run
            out.mkdir(parents=True)
            with step_digest() as digests:
                rows = run_evaluation(replace(config, algorithm=algo),
                                      work_dir / "high_300" / algo / f"params_seed{SEED}.bin",
                                      episodes=base.episodes, seeds=(SEED,))
            hashes.update(_digest_hashes(run, algo, digests))
            export_csv(rows, out / f"eval_seed{SEED}.csv")
            hashes[f"{run}/eval_seed{SEED}.csv"] = \
                _metrics_digest(out / f"eval_seed{SEED}.csv")
    return hashes


def table() -> dict:
    """This process's build and the artifact hashes it makes."""
    with tempfile.TemporaryDirectory() as tmp:
        return {"build": build_key(), "artifacts": artifact_hashes(Path(tmp))}


def main() -> int:
    if sys.argv[1:] == ["--table"]:  # a child: one kernel's table on stdout
        print(json.dumps(table()))
        return 0
    tables = {}
    for kernel in KERNELS:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        child = subprocess.run([sys.executable, __file__, "--table"], env=env, check=True,
                               stdout=subprocess.PIPE)
        found = json.loads(child.stdout.splitlines()[-1])
        # the kernel OpenBLAS picks may be one of the forced ones
        tables.setdefault(found["build"]["blas_core"], found)
        print(f"OPENBLAS_CORETYPE={kernel or '(unset)'}: {found['build']['blas_core']}")
    record = {"tables": list(tables.values())}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(tables)} tables of {len(record['tables'][0]['artifacts'])} hashes "
          f"to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
