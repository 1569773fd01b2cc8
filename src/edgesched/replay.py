"""Fixed-capacity experience replay with uniform sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DimensionError, ValidationError

__all__ = ["ReplayBuffer", "TransitionBatch"]


@dataclass(frozen=True, eq=False)
class TransitionBatch:
    """Column-stacked minibatch; rows align across all five arrays."""

    states: np.ndarray        # (B, state_dim)
    actions: np.ndarray       # (B, action_dim), domain units
    rewards: np.ndarray       # (B,)
    next_states: np.ndarray   # (B, state_dim)
    dones: np.ndarray         # (B,) float 0/1

    def __len__(self) -> int:
        return self.states.shape[0]


class ReplayBuffer:
    """FIFO ring of transitions in five column arrays; sampling is uniform
    with replacement.

    The first add allocates the columns once, at capacity rows and that
    transition's widths; np.empty touches no page before a row is written.
    With-replacement keeps every minibatch i.i.d. from the current buffer
    contents and stays well defined when len(buffer) is close to the batch
    size right after warmup. Logical row i (0 = oldest) lives at physical
    row (i + head) % capacity; head stays 0 until the ring is full, so any
    capacity >= len samples the same rows from the same rng.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._len = 0
        self._head = 0
        # widths come from the first add
        self._columns: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return self._len

    def add(self, state: np.ndarray, action: np.ndarray, reward: float,
            next_state: np.ndarray, done: bool) -> None:
        """Store one row: flat state vectors and a domain-unit action vector."""
        if self._columns is None:
            n, s, a = self.capacity, state.size, action.size
            self._columns = (np.empty((n, s)), np.empty((n, a)), np.empty(n),
                             np.empty((n, s)), np.empty(n))
        got = (state.size, action.size, next_state.size)
        want = (self._columns[0].shape[1], self._columns[1].shape[1], self._columns[0].shape[1])
        if got != want:
            raise DimensionError(f"transition widths (state, action, next_state) = {got} "
                                 f"differ from the buffer's {want}")
        if self._len < self.capacity:
            row = self._len
            self._len += 1
        else:
            row = self._head
            self._head = (self._head + 1) % self.capacity
        values = (state, action, reward, next_state, 1.0 if done else 0.0)
        for column, value in zip(self._columns, values):
            column[row] = value

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        if self._len == 0:
            raise ValidationError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        idx = rng.integers(0, self._len, size=batch_size)
        rows = (idx + self._head) % self.capacity
        return TransitionBatch(*(col[rows] for col in self._columns))
