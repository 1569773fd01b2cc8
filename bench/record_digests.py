#!/usr/bin/env python3
"""Record reference artifact digests for this build into digests.json.

    python3 bench/record_digests.py [--seeds N]

Runs one plain unit of every workload for each seed 0..N-1, checks it as
run.py does, and stores its digest under this build's key (numpy, Python
and the OpenBLAS kernel in use). run.py counts a mismatch with a stored
digest as failed ops, so re-record only for a change that is meant to
alter the program's output, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args()
    os.environ.update(run.THREAD_ENV)
    sys.path.insert(0, str(run.ROOT / "src"))

    table = (json.loads(run.DIGESTS.read_text(encoding="utf-8"))
             if run.DIGESTS.is_file() else {})
    work = run.ROOT / ".bench_work" / f"record-{os.getpid()}"
    key = None
    try:
        for workload in run.WORKLOADS:
            for seed in range(args.seeds):
                base = work / f"{workload}-{seed}"
                spec = run.make_inputs(workload, seed, base / "inputs")
                unit = run.spawn_unit(dict(spec, mode="plain"), base / "unit", run.RUN_LIMIT_S)
                failed, problems, digest = ((0, [], None) if unit["problems"]
                                            else run.check_unit(spec, unit))
                problems = unit["problems"] + problems
                if failed or problems or digest is None:
                    print(f"error: {workload} seed {seed}: {problems[:3]}", file=sys.stderr)
                    return 1
                key = key or run.digest_key(run.environment([unit], []))
                table.setdefault(key, {}).setdefault(workload, {})[str(seed)] = digest
                print(f"{workload} seed {seed} {digest}", flush=True)
                shutil.rmtree(base)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"stored under {key!r} in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
