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


def rows_of(obj) -> list:
    """The field rows of a RawMetrics, StateVector or ActionVector, in field order."""
    return [getattr(obj, name) for name in obj.__dataclass_fields__]


def assert_same_bits(got_rows, want_rows):
    """Equal values and sign bits, so a -0.0 cannot stand in for a +0.0."""
    for x, y in zip(got_rows, want_rows, strict=True):
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def assert_equals_constructed(obj):
    """obj's rows are read-only and equal, sign bits included, those of the
    object its public constructor builds from the same fields."""
    assert not any(row.flags.writeable for row in rows_of(obj))
    assert_same_bits(rows_of(obj), rows_of(type(obj)(*rows_of(obj))))


def make_action(n=2, cpu=1.0, mem=1024.0):
    return ActionVector(cpu_alloc=np.full(n, cpu), mem_alloc=np.full(n, mem))
