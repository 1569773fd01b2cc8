"""One unit of a benchmark workload, run in a fresh process by run.py.

    python3 bench/unit.py SPEC.json T_SPAWN

SPEC.json names the workload, its seed and sizes, the unit directory and
the mode: ``plain`` runs the unit untraced; ``traced`` installs the wrapper
timers of timers.py first. T_SPAWN is the parent's CLOCK_MONOTONIC reading
just before it started this process. The unit writes result.json into its
directory; run.py checks the artifacts and computes the metrics.
"""

from __future__ import annotations

import ctypes
import json
import runpy
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def hook_first_reset(marks: dict) -> None:
    """Record when the first env reset starts, then get out of the way."""
    from edgesched.simulator import ClusterSim

    inner = ClusterSim.__dict__["reset"]

    def reset(self, *args, **kwargs):
        marks["setup_done"] = now()
        ClusterSim.reset = inner
        return inner(self, *args, **kwargs)

    ClusterSim.reset = reset


def blas_info() -> dict:
    """OpenBLAS build and run-time settings of the library numpy loaded."""
    import numpy as np

    info = {"build": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
    # numpy wheels vendor OpenBLAS beside the package; opening it again returns
    # the copy already loaded. Other builds report the build version only.
    package = Path(np.__file__).resolve().parent
    paths = [*(package.parent / "numpy.libs").glob("*openblas*.so*"),
             *(package / ".libs").glob("*openblas*.so*")]
    for path in sorted(paths):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            corename.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            info.update(corename=corename().decode(), threads=threads())
            return info
    return info


def train_td3(spec: dict, unit_dir: Path, marks: dict) -> list[float]:
    from edgesched import configio, harness

    config = configio.load_config(Path(spec["inputs"]) / "config.json")
    rows = harness.train_one_seed(config, spec["seed"], unit_dir / "run")
    marks["end"] = now()
    return [row.wall_time_s for row in rows]


def rollout_eval(spec: dict, unit_dir: Path, marks: dict) -> list[float]:
    from edgesched import build_agent, configio, harness, nets
    from edgesched.rng import stream

    config = configio.load_config(Path(spec["inputs"]) / "config.json")
    actor = build_agent(config.algorithm, config.sim.n_services,
                        stream(spec["seed"], "init"), td3=config.td3).policy_net()
    params = unit_dir / "params.bin"
    nets.save_mlp(actor, params)
    rows = harness.run_evaluation(config, params, spec["episodes"], seeds=(spec["seed"],))
    marks["end"] = now()
    harness.export_csv(rows, unit_dir / "metrics.csv")
    return [row.wall_time_s for row in rows]


def campaign(spec: dict, unit_dir: Path, marks: dict) -> list[float]:
    script = ROOT / "scripts" / "run_campaign.py"
    sys.argv = [str(script), "--out", str(unit_dir / "campaign"),
                "--episodes", str(spec["episodes"]),
                "--seeds", *(str(s) for s in spec["campaign_seeds"])]
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
    marks["end"] = now()
    return []


BODIES = {"train_td3": train_td3, "rollout_eval": rollout_eval, "campaign": campaign}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t_spawn = float(sys.argv[2])
    # a unit still running at the run's time limit ends itself (SIGALRM);
    # the parent waits on it without a timer
    signal.alarm(spec["timeout_s"])
    unit_dir = Path(spec["unit_dir"])
    sys.path.insert(0, str(ROOT / "src"))

    tracer = None
    if spec["mode"] == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from timers import Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {}
    hook_first_reset(marks)
    episode_wall_s = BODIES[spec["workload"]](spec, unit_dir, marks)
    result = {
        "setup_s": marks["setup_done"] - t_spawn,
        "timed_s": marks["end"] - marks["setup_done"],
        "body_s": marks["end"] - t_spawn,
        "episode_wall_s": episode_wall_s,
        "blas": blas_info(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    (unit_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
