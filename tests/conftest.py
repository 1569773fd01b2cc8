import os

# One BLAS thread, set before numpy loads: campaign tests run a worker lane
# beside this process, and BLAS threads here would compete with it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from edgesched.domain import ActionVector, RawMetrics
from edgesched.rng import stream

# Acceptance tests register their verdict lines here so they show up in the
# terminal summary of a normal (captured) pytest run, not only under -s.
VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.line(line)


@pytest.fixture
def rng():
    return stream(1234, "tests")


def make_raw(n=2, latency=100.0, cpu_used=0.5, cpu_alloc=1.0,
             mem_used=512.0, mem_alloc=1024.0, qps=10.0):
    """RawMetrics with every field broadcast to n services."""
    full = lambda v: np.full(n, v, dtype=np.float64)
    return RawMetrics(cpu_used=full(cpu_used), cpu_alloc=full(cpu_alloc),
                      mem_used=full(mem_used), mem_alloc=full(mem_alloc),
                      latency_ms=full(latency), qps=full(qps))


def make_action(n=2, cpu=1.0, mem=1024.0):
    return ActionVector(cpu_alloc=np.full(n, cpu), mem_alloc=np.full(n, mem))
