"""Golden artifacts: fresh smoke-size runs match the hashes in golden.json.

Criterion 09 shows two runs on one build agree; this shows a code change
left every output byte as it was. Float results may round differently on
another numpy, Python or CPU architecture, so the check runs only on the
build the hashes were recorded on (scripts/record_golden.py).
"""

import json
import runpy
from pathlib import Path

import pytest

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
