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
                     require_finite)

__all__ = [
    "RewardWeights",
    "RewardBreakdown",
    "total_reward",
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
        require_finite("reward", alpha=self.alpha, beta=self.beta, lam=self.lam, mu=self.mu)
        if min(self.alpha, self.beta, self.lam, self.mu) < 0:
            raise ValidationError("reward weights must be >= 0")


@dataclass(frozen=True)
class RewardBreakdown:
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

    raw, action and prev_action must cover the same services.
    """
    if not raw.n_services == action.n_services == prev_action.n_services:
        raise DimensionError(
            f"raw covers {raw.n_services} services, action {action.n_services} "
            f"and prev_action {prev_action.n_services}")
    rows = raw._block
    excess = rows[4] - l_target  # latency_ms
    np.maximum(0.0, excess, out=excess)
    if weights.normalize_latency_excess:
        excess /= l_target
    r_l = float(-excess.sum())
    alloc = rows[1:4:2]  # granted cpu, mem; rows[0:4:2] is their use
    idle = ((alloc - rows[0:4:2]) / alloc).clip(0.0, 1.0)
    r_r = float(-(idle[0] + idle[1]).sum())
    r_s = float(np.count_nonzero(rows[4] <= l_target))
    delta = np.abs(action._block - prev_action._block) / _BOX_SPAN  # rows: cpu, mem
    r_m = float(-(delta[0] + delta[1]).sum())
    total = (weights.alpha * r_l + weights.beta * r_r
             + weights.lam * r_s + weights.mu * r_m)
    return RewardBreakdown(r_latency=r_l, r_waste=r_r, r_slo=r_s,
                           r_migration=r_m, total=total)


def episode_metrics(trajectory: list[tuple[RawMetrics, float]],
                    l_target: float) -> tuple[float, float, float, float]:
    """Aggregate one episode's (raw metrics, reward) trajectory.

    Returns (mean_latency_ms, resource_efficiency, slo_violation_rate,
    total_reward), the order of harness.EpisodeRow's metric columns.
    mean_latency averages the per-step service-mean latency; efficiency
    averages (cpu_util + mem_util)/2 over services and steps using
    allocation-normalized utilizations; the violation rate is the fraction
    of steps whose mean latency exceeds the objective.
    """
    if not trajectory:
        raise ValidationError("trajectory must be non-empty")
    # one (T, 6, N) stack of the raw blocks; each step's mean is a reduction
    # over the contiguous service axis, as on a (T, N) array of its own
    blocks = np.array([raw._block for raw, _ in trajectory])
    lat = blocks[:, 4].mean(axis=1)
    util = (blocks[:, 0:4:2] / blocks[:, 1:4:2]).clip(0.0, 1.0)  # used / alloc: cpu, mem
    step_efficiency = ((util[:, 0] + util[:, 1]) / 2.0).mean(axis=1)
    reward_sum = 0.0
    for _, reward in trajectory:  # summed in step order, as the bytes depend on it
        reward_sum += float(reward)
    return (float(lat.mean()), float(step_efficiency.mean()),
            float(np.count_nonzero(lat > l_target) / lat.size), reward_sum)
