"""Fixed-capacity experience replay with uniform sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DimensionError, Transition, ValidationError

__all__ = ["ReplayBuffer", "TransitionBatch"]

# Rows allocated at the first add; columns double from here up to capacity,
# so a large capacity costs no memory until the buffer actually fills.
_INITIAL_ROWS = 1024


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


def _empty_columns(rows: int, state_dim: int, action_dim: int) -> tuple[np.ndarray, ...]:
    """Uninitialised (states, actions, rewards, next_states, dones) columns."""
    return (np.empty((rows, state_dim)), np.empty((rows, action_dim)), np.empty(rows),
            np.empty((rows, state_dim)), np.empty(rows))


class ReplayBuffer:
    """FIFO ring of transitions in five column arrays; sampling is uniform
    with replacement.

    With-replacement keeps every minibatch i.i.d. from the current buffer
    contents and stays well defined when len(buffer) is close to the batch
    size right after warmup. Logical row i (0 = oldest) lives at physical
    row (i + head) % capacity; head stays 0 until the ring is full.
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

    def add(self, transition: Transition) -> None:
        state, action = transition.state.vec, transition.action.vec
        if self._columns is None:
            self._columns = _empty_columns(min(self.capacity, _INITIAL_ROWS),
                                           state.size, action.size)
        widths = (self._columns[0].shape[1], self._columns[1].shape[1])
        if (state.size, action.size) != widths:
            raise DimensionError(f"transition widths (state, action) = {(state.size, action.size)} "
                                 f"differ from the buffer's {widths}")
        if self._len < self.capacity:
            if self._len == len(self._columns[2]):
                self._grow(min(2 * self._len, self.capacity))
            row = self._len
            self._len += 1
        else:
            row = self._head
            self._head = (self._head + 1) % self.capacity
        values = (state, action, transition.reward, transition.next_state.vec,
                  1.0 if transition.done else 0.0)
        for column, value in zip(self._columns, values):
            column[row] = value

    def _grow(self, rows: int) -> None:
        old = self._columns
        self._columns = _empty_columns(rows, old[0].shape[1], old[1].shape[1])
        for new, column in zip(self._columns, old):
            new[:self._len] = column[:self._len]

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        if self._len == 0:
            raise ValidationError("cannot sample from an empty buffer")
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        idx = rng.integers(0, self._len, size=batch_size)
        rows = (idx + self._head) % self.capacity
        return TransitionBatch(*(col[rows] for col in self._columns))
