"""Continuous-control resource allocation for cloud-edge microservice clusters.

A self-contained lab: a fluid-flow cluster simulator, a multi-objective
reward, numpy-only actor-critic learners (twin-critic and single-critic
deterministic policy gradient, a factored DQN) plus static baselines, and
a deterministic experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .agents import (
    BaseKScheduler,
    DdpgAgent,
    DqnAgent,
    DqnHyper,
    Td3Agent,
    Td3Hyper,
    build_agent,
)
from .configio import ExperimentConfig, build_workload, load_config
from .domain import (
    ActionVector,
    NormalizationConfig,
    RawMetrics,
    StateVector,
    Transition,
    ValidationError,
)
from .harness import compare_runs, run_campaign, run_evaluation, run_training
from .replay import ReplayBuffer
from .rewards import RewardWeights, episode_metrics, total_reward
from .simulator import ClusterSim, LatencyModel, SimConfig
from .workload import constant_source, load_trace, qps_at

__all__ = [
    "__version__",
    "ActionVector",
    "BaseKScheduler",
    "ClusterSim",
    "DdpgAgent",
    "DqnAgent",
    "DqnHyper",
    "ExperimentConfig",
    "LatencyModel",
    "NormalizationConfig",
    "RawMetrics",
    "ReplayBuffer",
    "RewardWeights",
    "SimConfig",
    "StateVector",
    "Td3Agent",
    "Td3Hyper",
    "Transition",
    "ValidationError",
    "build_agent",
    "build_workload",
    "compare_runs",
    "constant_source",
    "episode_metrics",
    "load_config",
    "load_trace",
    "qps_at",
    "run_campaign",
    "run_evaluation",
    "run_training",
    "total_reward",
]
