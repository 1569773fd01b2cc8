"""Multi-objective step reward and per-episode evaluation metrics.

The step reward, total_reward, weighs four competing terms: latency above
the objective, resource waste, services meeting the objective, and
allocation churn between steps. Their definitions live in its docstring.
Latency excess is in objective units and allocation deltas in unit-box
coordinates, so the published weights stay meaningful across terms
(raw-millisecond mode is kept behind a flag for ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (_BOX_SPAN, ActionVector, DimensionError, RawMetrics, ValidationError,
                     check_fields)

__all__ = [
    "RewardWeights",
    "RewardBreakdown",
    "total_reward",
    "step_metrics",
    "episode_metrics",
]


@dataclass(frozen=True)
class RewardWeights:
    """Objective weights; the defaults prioritize latency."""

    alpha: float = 0.5   # latency penalty
    beta: float = 0.1    # resource waste
    lam: float = 0.2     # objective satisfaction
    mu: float = 0.1      # allocation churn
    normalize_latency_excess: bool = True  # False: raw-ms latency penalty

    def __post_init__(self):
        check_fields(self, "reward")
        if min(self.alpha, self.beta, self.lam, self.mu) < 0:
            raise ValidationError("reward weights must be >= 0")


@dataclass(frozen=True)
class RewardBreakdown:
    """The four terms and their weighted total, each a float or an (E,) array."""

    r_latency: float
    r_waste: float
    r_slo: float
    r_migration: float
    total: float


def total_reward(raw: RawMetrics, action: ActionVector, prev_action: ActionVector,
                 l_target: float, weights: RewardWeights) -> RewardBreakdown:
    """Weighted sum of the four reward terms for one step, read off its blocks.

    - r_latency: minus the per-service latency excess over l_target, summed;
      the excess is in objective units (one l_target of excess costs 1), or
      in raw ms when weights.normalize_latency_excess is off.
    - r_waste: minus the idle fractions (alloc - used) / alloc of cpu and
      memory, each clamped to [0, 1], summed. It reads the allocations the
      cluster granted (raw's alloc rows); usage above them is a latency
      problem, not negative waste.
    - r_slo: the count of services at or under l_target (ties satisfy).
    - r_migration: minus the change from prev_action to the requested
      action, in unit-box coordinates so megabyte deltas do not dwarf core
      deltas, summed.

    raw, action and prev_action must cover the same services. Any of them
    may carry a leading episode axis; every sum runs over the contiguous
    service axis, so a batch row adds in the order one episode does.
    """
    if not raw.n_services == action.n_services == prev_action.n_services:
        raise DimensionError(
            f"raw covers {raw.n_services} services, action {action.n_services} "
            f"and prev_action {prev_action.n_services}")
    rows = raw._block
    excess = rows[..., 4, :] - l_target  # latency_ms
    np.maximum(0.0, excess, out=excess)
    if weights.normalize_latency_excess:
        excess /= l_target
    r_l = -excess.sum(axis=-1)
    alloc = rows[..., 1:4:2, :]  # granted cpu, mem; rows[..., 0:4:2, :] is their use
    idle = ((alloc - rows[..., 0:4:2, :]) / alloc).clip(0.0, 1.0)
    r_r = -(idle[..., 0, :] + idle[..., 1, :]).sum(axis=-1)
    r_s = np.count_nonzero(rows[..., 4, :] <= l_target, axis=-1) * 1.0
    delta = np.abs(action._block - prev_action._block) / _BOX_SPAN  # rows: cpu, mem
    r_m = -(delta[..., 0, :] + delta[..., 1, :]).sum(axis=-1)
    total = (weights.alpha * r_l + weights.beta * r_r
             + weights.lam * r_s + weights.mu * r_m)
    return RewardBreakdown(r_latency=r_l, r_waste=r_r, r_slo=r_s,
                           r_migration=r_m, total=total)


def step_metrics(raw: RawMetrics) -> tuple[np.ndarray, np.ndarray]:
    """One window's service-mean latency and resource efficiency, per episode row.

    Efficiency averages (cpu_util + mem_util)/2 over services, using
    allocation-normalized utilizations clipped to [0, 1]. Both means are
    ndarray.mean's sum over the count, on the contiguous service axis.
    """
    rows = raw._block
    n = rows.shape[-1]
    util = (rows[..., 0:4:2, :] / rows[..., 1:4:2, :]).clip(0.0, 1.0)  # used / alloc
    return (rows[..., 4, :].sum(axis=-1) / n,
            ((util[..., 0, :] + util[..., 1, :]) / 2.0).sum(axis=-1) / n)


def episode_metrics(trajectory: list[tuple[np.ndarray, np.ndarray, float]],
                    l_target: float) -> tuple[np.ndarray, ...]:
    """Aggregate one episode's trajectory, or a batch's, step by step.

    Each step is (*step_metrics(raw), reward). Returns (mean_latency_ms,
    resource_efficiency, slo_violation_rate, total_reward), the order of
    harness.EpisodeRow's metric columns: float64 scalars, or (E,) arrays for
    a batch. The latency and efficiency average their step values; the
    violation rate is the fraction of steps whose mean latency exceeds the
    objective.
    """
    if not trajectory:
        raise ValidationError("trajectory must be non-empty")
    lat, eff, rewards = zip(*trajectory)
    # each episode's steps on the contiguous last axis: (T,), or (E, T) for a batch
    lat, eff = np.stack(lat, axis=-1), np.stack(eff, axis=-1)
    reward_sum = 0.0
    for reward in rewards:  # summed in step order, as the bytes depend on it
        reward_sum += reward
    return (lat.mean(axis=-1), eff.mean(axis=-1),
            np.count_nonzero(lat > l_target, axis=-1) / lat.shape[-1], reward_sum)
