"""Golden artifacts: fresh smoke-size runs match the hashes in golden.json.

Criterion 09 shows two runs on one build agree; this shows a code change
left every output byte as it was. Float results may round differently on
another numpy, Python or CPU architecture, so the check runs only on the
build the hashes were recorded on (scripts/record_golden.py).
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from edgesched import simulator

ROOT = Path(__file__).resolve().parent.parent
RECORDER = runpy.run_path(str(ROOT / "scripts" / "record_golden.py"))
GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(GOLDEN["build"] != RECORDER["build_key"](),
                    reason=f"hashes recorded on another build: {GOLDEN['build']}")
def test_artifacts_match_golden_hashes(tmp_path):
    fresh = RECORDER["artifact_hashes"](tmp_path)
    assert fresh.keys() == GOLDEN["artifacts"].keys()
    changed = sorted(k for k, digest in fresh.items() if GOLDEN["artifacts"][k] != digest)
    assert not changed, f"artifacts differ from golden.json: {changed}"



def test_eval_matrix_scales_grants_and_pressures_memory(tmp_path, monkeypatch):
    """The shared-edge evaluations reach the grant scale-down and memory-pressure branches."""
    seen = {"scaled_down": 0, "mem_pressured": 0}
    window = simulator.ClusterSim._window

    def counting_window(sim, step_index, action, prev_action):
        state, raw = window(sim, step_index, action, prev_action)
        if len(sim.config.nodes) == 4:  # the shared-edge topology, not the training one
            seen["scaled_down"] += bool(np.any(raw.cpu_alloc < action.cpu_alloc))
            seen["mem_pressured"] += bool(np.any(raw.mem_used >= raw.mem_alloc))
        return state, raw

    monkeypatch.setattr(simulator.ClusterSim, "_window", counting_window)
    hashes = RECORDER["artifact_hashes"](tmp_path)
    assert {"eval_shared_edge/td3/eval_seed0.csv",
            "eval_shared_edge/basek/eval_seed0.csv"} <= hashes.keys()
    assert seen["scaled_down"] > 0 and seen["mem_pressured"] > 0, seen
