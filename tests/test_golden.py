"""Golden artifacts: fresh smoke-size runs match the hashes in golden.json.

Criterion 09 shows two runs on one build agree; this shows a code change
left every output byte as it was. Float results may round differently on
another numpy, Python, CPU architecture or OpenBLAS kernel, so golden.json
holds one table per build and kernel (scripts/record_golden.py), and the
check runs against the running build's table; it is skipped only when no
table matches.
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
BUILD = RECORDER["build_key"]()
TABLE = next((t["artifacts"] for t in GOLDEN["tables"] if t["build"] == BUILD), None)


@pytest.mark.skipif(TABLE is None, reason=f"no hashes recorded for this build: {BUILD}")
def test_artifacts_match_golden_hashes(tmp_path):
    fresh = RECORDER["artifact_hashes"](tmp_path)
    assert fresh.keys() == TABLE.keys()
    changed = sorted(k for k, digest in fresh.items() if TABLE[k] != digest)
    assert not changed, f"artifacts differ from golden.json for {BUILD}: {changed}"


def test_every_table_names_the_same_artifacts():
    names = [t["artifacts"].keys() for t in GOLDEN["tables"]]
    assert names and all(n == names[0] for n in names)



def test_eval_matrix_scales_grants_and_pressures_memory(tmp_path, monkeypatch):
    """Both evaluation topologies reach the grant scale-down and memory-pressure
    branches; the crowded one scales the grants of its five-service node 0."""
    seen = {"shared_edge": [0, 0], "crowded_edge": [0, 0]}
    window = simulator.ClusterSim._window

    def counting_window(sim, step_index, action):
        raw = window(sim, step_index, action)
        topology = {4: "shared_edge", 3: "crowded_edge"}.get(len(sim.config.nodes))
        if topology is not None:  # an evaluation topology, not the training one
            crowded = (np.array(RECORDER["CROWDED_HOMES"]) == 0 if topology == "crowded_edge"
                       else slice(None))
            seen[topology][0] += bool(np.any(raw.cpu_alloc[..., crowded]
                                             < action.cpu_alloc[..., crowded]))
            seen[topology][1] += bool(np.any(raw.mem_used >= raw.mem_alloc))
        return raw

    monkeypatch.setattr(simulator.ClusterSim, "_window", counting_window)
    hashes = RECORDER["artifact_hashes"](tmp_path)
    assert {f"eval_{topology}/{algo}/eval_seed0.csv" for topology in seen
            for algo in ("td3", "basek")} <= hashes.keys()
    assert all(scaled > 0 and pressured > 0 for scaled, pressured in seen.values()), seen
