"""Wrapper timers around the public functions of each edgesched module.

A Tracer replaces each timed function or method with a wrapper that counts
calls and accumulates self time: the call's duration minus the time spent
in nested wrapped calls. Module-level functions are replaced wherever an
edgesched module holds a reference to them (``from .x import f`` copies the
reference), so every call site is seen. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

from edgesched import agents, configio, domain, harness, nets, replay, rewards, simulator, workload

# metric prefix -> (owner, attribute) pairs that make up one timed function
TIMED = {
    "simulator.step": [(simulator.ClusterSim, "step")],
    "simulator.reset": [(simulator.ClusterSim, "reset")],
    "simulator.grant": [(simulator.ClusterSim, "grant")],
    "workload.qps_at": [(workload, "qps_at")],
    "rewards.total_reward": [(rewards, "total_reward")],
    "rewards.episode_metrics": [(rewards, "episode_metrics")],
    "domain.objects": [(cls, "__init__") for cls in (domain.RawMetrics, domain.StateVector,
                                                     domain.ActionVector, domain.Transition)],
    "replay.sample": [(replay.ReplayBuffer, "sample")],
    "replay.add": [(replay.ReplayBuffer, "add")],
    "nets.forward": [(nets.Mlp, "forward")],
    "nets.backward": [(nets.Mlp, "backward")],
    "nets.adam_step": [(nets.AdamState, "step")],
    "nets.soft_update": [(nets, "soft_update")],
    "nets.check_finite": [(nets.Mlp, "check_finite")],
    "nets.param_io": [(nets, "save_mlp"), (nets, "load_mlp")],
    "agents.act": [(cls, "act") for cls in (agents.Td3Agent, agents.DqnAgent,
                                            agents.BaseKScheduler)],
    "agents.learn": [(cls, "learn") for cls in (agents.Td3Agent, agents.DqnAgent,
                                                agents.BaseKScheduler)],
    "harness.train_one_seed": [(harness, "train_one_seed")],
    "harness.run_evaluation": [(harness, "run_evaluation")],
    "configio.load_config": [(configio, "load_config")],
    "configio.build_workload": [(configio, "build_workload")],
}

MODULES = tuple(dict.fromkeys(key.split(".")[0] for key in TIMED))


def _matmul_flops(net, batch: int) -> int:
    """Multiply-adds of one forward pass, counted as 2 flops each."""
    sizes = net.layer_sizes
    return 2 * batch * sum(a * b for a, b in zip(sizes, sizes[1:]))


class Tracer:
    """Counts and self times for every TIMED function, plus derived counts."""

    def __init__(self):
        self.calls = {key: 0 for key in TIMED}
        self.self_s = {key: 0.0 for key in TIMED}
        self.counts = {"nets.matmul_flops": 0, "agents.learn.applied": 0,
                       "simulator.grant.scaled_down": 0, "simulator.step.mem_pressured": 0}
        self._stack: list[float] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "edgesched" or name.startswith("edgesched.")]
        for key, targets in TIMED.items():
            for owner, attr in targets:
                original = owner.__dict__[attr]
                wrapper = self._wrap(key, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def _wrap(self, key: str, fn):
        stack = self._stack
        on_return = getattr(self, "_after_" + key.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            # The callee's self time spans fn only. The caller is charged
            # with nothing of this wrapper: its whole span, bookkeeping and
            # count hooks included, is added to the caller's child time, so
            # tracing overhead lands in no module's self time.
            t_enter = perf_counter()
            stack.append(0.0)
            try:
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    child = stack.pop()
                    self.calls[key] += 1
                    self.self_s[key] += elapsed - child
                if on_return is not None:
                    on_return(args, result)
                return result
            finally:
                if stack:
                    stack[-1] += perf_counter() - t_enter

        wrapper.__wrapped__ = fn
        return wrapper

    # Derived counts, read from arguments and results outside every timed span.

    def _after_nets_forward(self, args, result) -> None:
        _, cache = result
        self.counts["nets.matmul_flops"] += _matmul_flops(args[0], cache.x.shape[0])

    def _after_nets_backward(self, args, result) -> None:
        # a weight-gradient and an input-gradient product per layer
        self.counts["nets.matmul_flops"] += 2 * _matmul_flops(args[0], args[1].x.shape[0])

    def _after_agents_learn(self, args, result) -> None:
        if not result.skipped:
            self.counts["agents.learn.applied"] += 1

    def _after_simulator_grant(self, args, result) -> None:
        action = args[1]
        cpu, mem = result
        if np.any(cpu < action.cpu_alloc) or np.any(mem < action.mem_alloc):
            self.counts["simulator.grant.scaled_down"] += 1

    def _after_simulator_step(self, args, result) -> None:
        raw = result[2]
        if np.any(raw.mem_used >= raw.mem_alloc):
            self.counts["simulator.step.mem_pressured"] += 1

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}
