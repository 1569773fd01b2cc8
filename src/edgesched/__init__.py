"""Continuous-control resource allocation for cloud-edge microservice clusters.

A self-contained lab: a fluid-flow cluster simulator, a multi-objective
reward, numpy-only actor-critic learners (twin-critic and single-critic
deterministic policy gradient, a factored DQN) plus static baselines, and
a deterministic experiment harness with a CLI.

The names below load their module on first use, so importing the package
alone loads no numpy and an entry point can still set BLAS_THREAD_VARS.
"""

from importlib import import_module

__version__ = "0.1.0"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_EXPORTS = {name: module for module, names in {
    "agents": "BaseKScheduler DdpgAgent DqnAgent DqnHyper Td3Agent Td3Hyper build_agent",
    "configio": "ExperimentConfig build_workload load_config",
    "domain": "ActionVector RawMetrics StateVector Transition ValidationError",
    "harness": "compare_runs run_campaign run_evaluation run_training",
    "replay": "ReplayBuffer",
    "rewards": "RewardWeights episode_metrics total_reward",
    "simulator": "ClusterSim LatencyModel SimConfig",
    "workload": "constant_source load_trace qps_at",
}.items() for name in names.split()}

__all__ = ["BLAS_THREAD_VARS", "__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
