"""Replay buffer: FIFO eviction and sampling statistics."""

from collections import deque

import numpy as np
import pytest

from edgesched.domain import ActionVector, DimensionError, ValidationError, normalize_state
from edgesched.replay import ReplayBuffer, TransitionBatch
from edgesched.rng import stream
from conftest import make_raw


def transition(reward, n=1, done=False):
    """The five add() arguments of one (s, a, r, s', done) row."""
    s = normalize_state(make_raw(n=n), 300.0, 400.0).vec
    a = ActionVector(cpu_alloc=np.full(n, 1.0), mem_alloc=np.full(n, 512.0)).vec
    return s, a, reward, s, done


class TestPush:
    def test_grows_to_capacity(self):
        buf = ReplayBuffer(capacity=3)
        assert len(buf) == 0
        for i in range(3):
            buf.add(*transition(float(i)))
            assert len(buf) == i + 1

    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for i in range(5):
            buf.add(*transition(float(i)))
        assert len(buf) == 3
        rng = stream(0, "drain")
        seen = set()
        for _ in range(200):
            batch = buf.sample(3, rng)
            seen.update(batch.rewards.tolist())
        # 0 and 1 were evicted oldest-first
        assert seen == {2.0, 3.0, 4.0}

    def test_eviction_order_strict(self):
        buf = ReplayBuffer(capacity=2)
        buf.add(*transition(0.0))
        buf.add(*transition(1.0))
        buf.add(*transition(2.0))
        # 200 draws from 2 rows miss one with probability 2 * 2**-200
        rewards = set(buf.sample(200, stream(5, "strict")).rewards.tolist())
        assert rewards == {1.0, 2.0}

    def test_mismatched_widths_rejected(self):
        buf = ReplayBuffer(capacity=4)
        buf.add(*transition(0.0, n=2))
        with pytest.raises(DimensionError):
            buf.add(*transition(1.0, n=1))
        s, a, _, _, _ = transition(0.0, n=2)
        narrow = ActionVector(cpu_alloc=np.ones(1), mem_alloc=np.full(1, 512.0)).vec
        with pytest.raises(DimensionError):
            buf.add(s, narrow, 0.0, s, False)
        with pytest.raises(DimensionError):
            buf.add(s, a, 0.0, transition(0.0, n=1)[0], False)
        assert len(buf) == 1

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            ReplayBuffer(capacity=0)

    def test_columns_allocated_once_at_capacity(self):
        buf = ReplayBuffer(capacity=1500)
        buf.add(*transition(0.0))
        columns = buf._columns
        assert [len(column) for column in columns] == [1500] * 5
        for i in range(1, 1500 + 3):
            buf.add(*transition(float(i)))
        assert all(now is first for now, first in zip(buf._columns, columns, strict=True))


class TestSample:
    def test_forced_choice(self):
        buf = ReplayBuffer(capacity=4)
        buf.add(*transition(7.0))
        batch = buf.sample(1, stream(1, "s"))
        assert isinstance(batch, TransitionBatch)
        assert batch.rewards[0] == 7.0
        assert len(batch) == 1

    def test_batch_shapes(self):
        buf = ReplayBuffer(capacity=8)
        for i in range(8):
            buf.add(*transition(float(i), n=2))
        batch = buf.sample(5, stream(2, "s"))
        assert batch.states.shape == (5, 8)
        assert batch.actions.shape == (5, 4)
        assert batch.rewards.shape == (5,)
        assert batch.next_states.shape == (5, 8)
        assert batch.dones.shape == (5,)

    def test_empty_buffer_rejected(self):
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(ValidationError):
            buf.sample(1, stream(3, "s"))

    def test_bad_batch_size_rejected(self):
        buf = ReplayBuffer(capacity=4)
        buf.add(*transition(0.0))
        with pytest.raises(ValidationError):
            buf.sample(0, stream(4, "s"))

    def test_deterministic_given_rng(self):
        buf = ReplayBuffer(capacity=16)
        for i in range(16):
            buf.add(*transition(float(i)))
        a = buf.sample(8, stream(9, "s")).rewards
        b = buf.sample(8, stream(9, "s")).rewards
        np.testing.assert_array_equal(a, b)

    def test_uniform_frequency_three_sigma(self):
        # 10000 single draws from 4 items: binomial(10000, 1/4)
        buf = ReplayBuffer(capacity=4)
        for i in range(4):
            buf.add(*transition(float(i)))
        rng = stream(11, "freq")
        counts = np.zeros(4)
        draws = 10000
        for _ in range(draws):
            counts[int(buf.sample(1, rng).rewards[0])] += 1
        p = 0.25
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma), counts

    def test_with_replacement_within_batch(self):
        # batch larger than buffer is legal precisely because sampling
        # replaces; all entries come from storage
        buf = ReplayBuffer(capacity=2)
        buf.add(*transition(0.0))
        buf.add(*transition(1.0))
        batch = buf.sample(10, stream(12, "s"))
        assert set(batch.rewards.tolist()) <= {0.0, 1.0}


class DequeReference:
    """The deque-of-transitions buffer the columnar ring replaced, as the oracle."""

    def __init__(self, capacity):
        self.store = deque(maxlen=capacity)

    def add(self, t):
        self.store.append(t)

    def sample(self, batch_size, rng):
        idx = rng.integers(0, len(self.store), size=batch_size)
        rows = [self.store[i] for i in idx]
        return TransitionBatch(
            states=np.stack([s for s, _, _, _, _ in rows]),
            actions=np.stack([a for _, a, _, _, _ in rows]),
            rewards=np.array([r for _, _, r, _, _ in rows], dtype=np.float64),
            next_states=np.stack([s2 for _, _, _, s2, _ in rows]),
            dones=np.array([1.0 if d else 0.0 for _, _, _, _, d in rows]),
        )


def random_transition(rng, n=2):
    raw = lambda: make_raw(n=n, latency=rng.uniform(1, 500), cpu_used=rng.uniform(0, 1),
                           mem_used=rng.uniform(0, 1024), qps=rng.uniform(0, 300))
    return (normalize_state(raw(), 300.0, 400.0).vec,
            ActionVector(cpu_alloc=rng.uniform(0.1, 2.0, n),
                         mem_alloc=rng.uniform(64, 2048, n)).vec,
            float(rng.normal()), normalize_state(raw(), 300.0, 400.0).vec,
            bool(rng.random() < 0.1))


@pytest.mark.parametrize("n", [5, 64, 1500])
def test_larger_ring_samples_the_same_bytes(n):
    # the harness sizes the ring to the rows a run adds; until it wraps, the
    # capacity must not change a batch
    data_rng = stream(n, "replay-size-data")
    exact, roomy = ReplayBuffer(n), ReplayBuffer(10 * n)
    for _ in range(n):
        t = random_transition(data_rng)
        exact.add(*t)
        roomy.add(*t)
    rng_exact, rng_roomy = stream(n, "replay-size"), stream(n, "replay-size")
    for _ in range(3):
        got, want = roomy.sample(32, rng_roomy), exact.sample(32, rng_exact)
        for field in ("states", "actions", "rewards", "next_states", "dones"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.parametrize("capacity", [3, 7, 1024, 1500])
def test_sample_bytes_match_deque_reference(capacity):
    # wraparound at small (3, 7) and large (1024, 1500) rings: each ring fills,
    # then takes capacity + 5 more adds, so its head wraps around at least once
    data_rng = stream(capacity, "replay-ref-data")
    buf, ref = ReplayBuffer(capacity), DequeReference(capacity)
    rng_buf, rng_ref = stream(capacity, "replay-ref"), stream(capacity, "replay-ref")
    compared = 0
    for i in range(2 * capacity + 5):
        t = random_transition(data_rng)
        buf.add(*t)
        ref.add(t)
        assert len(buf) == len(ref.store)
        if i % 5 == 4 or i == 2 * capacity + 4:
            got, want = buf.sample(16, rng_buf), ref.sample(16, rng_ref)
            for field in ("states", "actions", "rewards", "next_states", "dones"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert a.tobytes() == b.tobytes(), f"{field} differs after {i + 1} adds"
            compared += 1
    assert compared >= (2 * capacity + 5) // 5
