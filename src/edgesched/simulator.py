"""Fluid-flow cluster simulator stepping in fixed decision windows.

Each step is one 30-second window: the controller's per-service CPU/memory
requests are installed (scaled down where a node is over-subscribed), the
workload level for the window is fetched, and an M/M/1-style utilization
curve turns demand and allocation into per-service latency. No per-request
event simulation; demand within a window is treated as a fluid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import (
    CPU_MIN,
    MEM_MIN,
    ActionVector,
    DimensionError,
    NodeSpec,
    NormalizationConfig,
    RawMetrics,
    ServiceSpec,
    StateVector,
    ValidationError,
    default_nodes,
    default_services,
    normalize_state,
    require_finite,
)
from .rng import stream
from .workload import qps_at

__all__ = [
    "RHO_CAP",
    "LatencyModel",
    "SimConfig",
    "SimState",
    "ClusterSim",
]

# Utilization is clamped below 1 so the queueing denominator stays positive;
# anything past this point reads as saturation and hits the latency cap.
RHO_CAP = 0.99


@dataclass(frozen=True)
class LatencyModel:
    """Shape of the latency response to utilization and memory pressure."""

    base_service_ms: float = 20.0
    saturation_cap_ms: float = 1000.0
    mem_pressure_multiplier: float = 2.0
    jitter_sigma: float = 0.02  # multiplicative measurement noise, 0 disables

    def __post_init__(self):
        require_finite("latency", **vars(self))
        if self.base_service_ms <= 0:
            raise ValidationError("base_service_ms must be positive")
        if self.saturation_cap_ms < self.base_service_ms:
            raise ValidationError("saturation_cap_ms must be >= base_service_ms")
        if self.mem_pressure_multiplier < 1.0:
            raise ValidationError("mem_pressure_multiplier must be >= 1")
        if self.jitter_sigma < 0:
            raise ValidationError("jitter_sigma must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Cluster layout plus dynamics constants for one environment.

    Without a normalization, the default divisors apply with l_max twice
    l_target, which puts the latency objective at mid-scale.
    """

    services: list[ServiceSpec] = field(default_factory=default_services)
    nodes: list[NodeSpec] = field(default_factory=default_nodes)
    l_target: float = 150.0
    episode_len: int = 20
    latency: LatencyModel = field(default_factory=LatencyModel)
    normalization: NormalizationConfig | None = None

    def __post_init__(self):
        if not self.services or not self.nodes:
            raise ValidationError("need at least one service and one node")
        if self.episode_len < 1:
            raise ValidationError(f"episode_len must be >= 1, got {self.episode_len}")
        require_finite("sim", l_target=self.l_target)
        if self.l_target <= 0:
            raise ValidationError("l_target must be positive")
        if self.normalization is None:
            object.__setattr__(self, "normalization",
                               NormalizationConfig(l_max=2.0 * self.l_target))
        node_ids = {n.node_id for n in self.nodes}
        if len(node_ids) != len(self.nodes):
            raise ValidationError("duplicate node ids")
        for svc in self.services:
            if svc.home_node not in node_ids:
                raise ValidationError(
                    f"service {svc.name} placed on unknown node {svc.home_node}")

    @property
    def n_services(self) -> int:
        return len(self.services)

    def initial_action(self) -> ActionVector:
        return ActionVector(
            cpu_alloc=np.array([s.initial_cpu_request for s in self.services]),
            mem_alloc=np.array([s.initial_mem_request for s in self.services]),
        )


@dataclass(frozen=True, eq=False)
class SimState:
    """Snapshot of one decision window, pre-normalization.

    alloc/prev_alloc hold the controller's clamped requests; the granted
    (possibly node-scaled) allocations live in the step's RawMetrics.
    """

    step: int
    alloc: ActionVector
    prev_alloc: ActionVector
    qps: np.ndarray
    cpu_used: np.ndarray
    mem_used: np.ndarray
    latency: np.ndarray


class ClusterSim:
    """Mutable environment: reset(seed) then step(action) until done.

    One instance is single-threaded; run independent instances for
    parallel seeds. With jitter_sigma = 0 trajectories are a pure function
    of (config, workload, seed, actions); with jitter they are still
    deterministic per seed because all noise comes from one named stream.
    """

    def __init__(self, config: SimConfig, workload: np.ndarray):
        """`workload` is the rate matrix: one row per window 0..episode_len."""
        expected = (config.episode_len + 1, config.n_services)
        if np.shape(workload) != expected:
            raise DimensionError(
                f"workload has shape {np.shape(workload)}, config needs {expected} "
                "(episode_len + 1 windows by n_services)")
        self.config = config
        self.workload = workload
        svcs = config.services
        nodes_by_id = {n.node_id: n for n in config.nodes}
        self._cpu_cost = np.array([s.cpu_cost_per_request for s in svcs])
        self._mem_floor = np.array([s.mem_floor for s in svcs])
        self._mem_per_qps = np.array([s.mem_per_qps for s in svcs])
        # latency floor per service: service time plus its node's network hop
        self._floor_ms = np.array(
            [config.latency.base_service_ms + nodes_by_id[s.home_node].base_network_latency
             for s in svcs])
        self._node_members = {
            n.node_id: np.array([i for i, s in enumerate(svcs) if s.home_node == n.node_id],
                                dtype=int)
            for n in config.nodes
        }
        self._nodes_by_id = nodes_by_id
        self._rng: np.random.Generator | None = None
        self.state: SimState | None = None
        self._done = True

    def grant(self, action: ActionVector) -> tuple[np.ndarray, np.ndarray]:
        """Node over-subscription check: proportional scale-down per resource.

        Never raises an allocation; scaled values are re-floored at the box
        minimum so downstream ratios stay well defined.
        """
        cpu = action.cpu_alloc.copy()
        mem = action.mem_alloc.copy()
        for node_id, members in self._node_members.items():
            if members.size == 0:
                continue
            node = self._nodes_by_id[node_id]
            total_cpu = cpu[members].sum()
            if total_cpu > node.cpu_capacity:
                cpu[members] *= node.cpu_capacity / total_cpu
            total_mem = mem[members].sum()
            if total_mem > node.mem_capacity:
                mem[members] *= node.mem_capacity / total_mem
        return np.maximum(cpu, CPU_MIN), np.maximum(mem, MEM_MIN)

    def _window(self, step_index: int, action: ActionVector,
                prev_action: ActionVector) -> tuple[SimState, RawMetrics]:
        lm = self.config.latency
        granted_cpu, granted_mem = self.grant(action)
        qps = qps_at(self.workload, step_index)
        demand = qps * self._cpu_cost
        rho = np.minimum(demand / granted_cpu, RHO_CAP)
        latency = np.minimum(self._floor_ms / (1.0 - rho), lm.saturation_cap_ms)
        mem_demand = self._mem_floor + self._mem_per_qps * qps
        pressured = granted_mem < mem_demand
        latency = np.where(
            pressured,
            np.minimum(latency * lm.mem_pressure_multiplier, lm.saturation_cap_ms),
            latency)
        if lm.jitter_sigma > 0:
            assert self._rng is not None
            latency = latency * (1.0 + lm.jitter_sigma * self._rng.standard_normal(qps.size))
            latency = np.clip(latency, self._floor_ms, lm.saturation_cap_ms)
        cpu_used = np.minimum(demand, granted_cpu)
        mem_used = np.minimum(mem_demand, granted_mem)
        raw = RawMetrics(cpu_used=cpu_used, cpu_alloc=granted_cpu,
                         mem_used=mem_used, mem_alloc=granted_mem,
                         latency_ms=latency, qps=qps)
        state = SimState(step=step_index, alloc=action, prev_alloc=prev_action,
                         qps=qps, cpu_used=cpu_used, mem_used=mem_used,
                         latency=latency)
        return state, raw

    def reset(self, seed: int) -> tuple[SimState, StateVector, RawMetrics]:
        """Window 0 under the services' initial requests."""
        self._rng = stream(seed, "env")
        initial = self.config.initial_action()
        self.state, raw = self._window(0, initial, initial)
        self._done = False
        return self.state, normalize_state(raw, self.config.normalization), raw

    def step(self, action: ActionVector) -> tuple[SimState, StateVector, RawMetrics, bool]:
        """Advance one window under the given (clamped) allocation request."""
        if self.state is None:
            raise ValidationError("step before reset")
        if self._done:
            raise ValidationError("episode is complete; call reset")
        if action.n_services != self.config.n_services:
            raise DimensionError(
                f"action covers {action.n_services} services, "
                f"config has {self.config.n_services}")
        if not np.isfinite(action.vec).all():
            raise ValidationError("action contains non-finite values")
        new_step = self.state.step + 1
        prev = self.state.alloc
        self.state, raw = self._window(new_step, action, prev)
        done = new_step == self.config.episode_len
        self._done = done
        obs = normalize_state(raw, self.config.normalization)
        return self.state, obs, raw, done
