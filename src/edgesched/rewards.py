"""Multi-objective step reward and per-episode evaluation metrics.

The step reward is a weighted sum of four competing terms: a latency
penalty above the objective, a resource-waste penalty, a reward for
services meeting the latency objective, and a penalty on allocation churn
between consecutive steps. Latency excess is expressed in objective units
and allocation deltas in unit-box coordinates so the published weights
stay meaningful across terms (raw-millisecond mode is kept behind a flag
for ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (CPU_MAX, CPU_MIN, MEM_MAX, MEM_MIN, ActionVector,
                     DimensionError, RawMetrics, ValidationError)

__all__ = [
    "RewardWeights",
    "RewardBreakdown",
    "EpisodeMetrics",
    "latency_penalty",
    "resource_waste",
    "slo_satisfaction",
    "migration_cost",
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
        if not np.isfinite([self.alpha, self.beta, self.lam, self.mu]).all():
            raise ValidationError("reward weights must be finite")
        if min(self.alpha, self.beta, self.lam, self.mu) < 0:
            raise ValidationError("reward weights must be >= 0")


@dataclass(frozen=True)
class RewardBreakdown:
    r_latency: float
    r_waste: float
    r_slo: float
    r_migration: float
    total: float


def latency_penalty(latency_ms, l_target: float, normalize: bool = True) -> float:
    """Negative sum of per-service latency excess over the objective.

    With normalize=True the excess is divided by l_target, so one objective
    unit of excess costs 1.
    """
    lat = np.asarray(latency_ms, dtype=np.float64)
    excess = np.maximum(0.0, lat - l_target)
    if normalize:
        excess = excess / l_target
    return float(-excess.sum())


def resource_waste(cpu_alloc, mem_alloc, cpu_used, mem_used) -> float:
    """Negative sum of idle allocation fractions, each clamped to [0, 1].

    Usage is capped at allocation: demand above allocation is a latency
    problem, not negative waste.
    """
    cpu_alloc = np.asarray(cpu_alloc, dtype=np.float64)
    mem_alloc = np.asarray(mem_alloc, dtype=np.float64)
    cpu_used = np.asarray(cpu_used, dtype=np.float64)
    mem_used = np.asarray(mem_used, dtype=np.float64)
    cpu_frac = np.clip((cpu_alloc - cpu_used) / cpu_alloc, 0.0, 1.0)
    mem_frac = np.clip((mem_alloc - mem_used) / mem_alloc, 0.0, 1.0)
    return float(-(cpu_frac + mem_frac).sum())


def slo_satisfaction(latency_ms, l_target: float) -> float:
    """Count of services at or under the latency objective (ties satisfy)."""
    lat = np.asarray(latency_ms, dtype=np.float64)
    return float(np.count_nonzero(lat <= l_target))


def migration_cost(action: ActionVector, prev_action: ActionVector) -> float:
    """Negative allocation change between steps, in unit-box coordinates.

    Normalizing by the box ranges keeps megabyte deltas from dwarfing
    core deltas.
    """
    if action.n_services != prev_action.n_services:
        raise DimensionError("action and prev_action dimensions differ")
    cpu_delta = np.abs(action.cpu_alloc - prev_action.cpu_alloc) / (CPU_MAX - CPU_MIN)
    mem_delta = np.abs(action.mem_alloc - prev_action.mem_alloc) / (MEM_MAX - MEM_MIN)
    return float(-(cpu_delta + mem_delta).sum())


def total_reward(raw: RawMetrics, action: ActionVector, prev_action: ActionVector,
                 l_target: float, weights: RewardWeights) -> RewardBreakdown:
    """Weighted sum of the four reward components for one step.

    Waste is computed against the allocations the cluster actually granted
    (raw.cpu_alloc / raw.mem_alloc); churn against the agent's requested
    actions.
    """
    r_l = latency_penalty(raw.latency_ms, l_target, weights.normalize_latency_excess)
    r_r = resource_waste(raw.cpu_alloc, raw.mem_alloc, raw.cpu_used, raw.mem_used)
    r_s = slo_satisfaction(raw.latency_ms, l_target)
    r_m = migration_cost(action, prev_action)
    total = (weights.alpha * r_l + weights.beta * r_r
             + weights.lam * r_s + weights.mu * r_m)
    return RewardBreakdown(r_latency=r_l, r_waste=r_r, r_slo=r_s,
                           r_migration=r_m, total=total)


@dataclass(frozen=True)
class EpisodeMetrics:
    """Per-episode evaluation summary."""

    mean_latency_ms: float
    resource_efficiency: float
    slo_violation_rate: float
    total_reward: float


def episode_metrics(trajectory: list[tuple[RawMetrics, float]],
                    l_target: float) -> EpisodeMetrics:
    """Aggregate one episode's (raw metrics, reward) trajectory.

    mean_latency averages the per-step service-mean latency; efficiency
    averages (cpu_util + mem_util)/2 over services and steps using
    allocation-normalized utilizations; the violation rate is the fraction
    of steps whose mean latency exceeds the objective.
    """
    if not trajectory:
        raise ValidationError("trajectory must be non-empty")
    # (T, N) and (T, 2, N) stacks; each step's mean is a per-row reduction
    lat = np.array([raw.latency_ms for raw, _ in trajectory]).mean(axis=1)
    util = np.clip(np.array([(raw.cpu_used, raw.mem_used) for raw, _ in trajectory])
                   / np.array([(raw.cpu_alloc, raw.mem_alloc) for raw, _ in trajectory]),
                   0.0, 1.0)
    step_efficiency = ((util[:, 0] + util[:, 1]) / 2.0).mean(axis=1)
    reward_sum = 0.0
    for _, reward in trajectory:  # summed in step order, as the bytes depend on it
        reward_sum += float(reward)
    return EpisodeMetrics(
        mean_latency_ms=float(lat.mean()),
        resource_efficiency=float(step_efficiency.mean()),
        slo_violation_rate=float(np.count_nonzero(lat > l_target) / lat.size),
        total_reward=reward_sum,
    )
