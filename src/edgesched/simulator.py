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
    _BOX_LO,
    RAW_ALLOC,
    RAW_LATENCY,
    RAW_QPS,
    RAW_USED,
    ActionVector,
    DimensionError,
    NodeSpec,
    NormalizationConfig,
    RawMetrics,
    ServiceSpec,
    StateVector,
    ValidationError,
    _adopt,
    check_fields,
    default_nodes,
    default_services,
    normalize_state,
)
from .rng import stream
from .workload import qps_at

__all__ = [
    "RHO_CAP",
    "LatencyModel",
    "SimConfig",
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
        check_fields(self, "sim")  # the JSON section that holds the latency fields
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
    latency: LatencyModel = field(default_factory=LatencyModel)
    normalization: NormalizationConfig | None = None

    def __post_init__(self):
        check_fields(self, "sim")
        if not self.services or not self.nodes:
            raise ValidationError("need at least one service and one node")
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


class ClusterSim:
    """Mutable environment: reset(seed) then step(action) until done.

    reset returns (obs, raw) and step returns (obs, done, raw): the window's
    normalized observation first and its raw metrics last. Window 0 runs
    under initial_action, the services' initial requests. Reset with a
    tuple of E seeds to step E episodes at once: every block then has a
    leading episode axis, and an action without one applies to every
    episode. Each episode row computes the bytes it would alone.

    One instance is single-threaded; run independent instances for
    parallel seeds. With jitter_sigma = 0 trajectories are a pure function
    of (config, workload, seed, actions); with jitter they are still
    deterministic per seed because all noise comes from one named stream:
    reset draws the episode's whole (windows, services) noise block from it.
    """

    def __init__(self, config: SimConfig, workload: np.ndarray):
        """`workload` is the rate matrix, one row per window, of finite rates
        >= 0; the episode runs episode_len = rows - 1 steps after window 0."""
        shape = np.shape(workload)
        if len(shape) != 2 or shape[0] < 2 or shape[1] != config.n_services:
            raise DimensionError(
                f"workload has shape {shape}, config needs (rows >= 2, {config.n_services}) "
                "(window 0 plus at least one step, by n_services)")
        if not (np.isfinite(workload) & (workload >= 0)).all():
            raise ValidationError("workload rates must be finite and >= 0")
        self.config = config
        self.workload = workload
        self.episode_len = shape[0] - 1
        svcs = config.services
        nodes_by_id = {n.node_id: n for n in config.nodes}
        # per window and service, the action-independent demands: row 0 cores
        # (qps * cost per request), row 1 megabytes (floor + per-qps * qps)
        cpu_cost = np.array([s.cpu_cost_per_request for s in svcs])
        mem_floor = np.array([s.mem_floor for s in svcs])
        mem_per_qps = np.array([s.mem_per_qps for s in svcs])
        self._demand = np.stack([workload * cpu_cost, mem_floor + mem_per_qps * workload],
                                axis=1)
        # latency floor per service: service time plus its node's network hop
        self._floor_ms = np.array(
            [config.latency.base_service_ms + nodes_by_id[s.home_node].base_network_latency
             for s in svcs])
        # occupied nodes grouped by member count k: for a group of G nodes, the
        # (2, G, k) positions of their members' cpu and mem requests in the
        # flattened (2, N) action block, and the (2, G, 1) cpu/mem capacities
        members: dict[int, list[int]] = {}
        for i, s in enumerate(svcs):
            members.setdefault(s.home_node, []).append(i)
        by_count: dict[int, list[int]] = {}
        for node_id, idx in members.items():
            by_count.setdefault(len(idx), []).append(node_id)
        rows = np.array([0, len(svcs)])[:, None, None]
        self._node_groups = [
            (rows + np.array([members[n] for n in node_ids]),
             np.array([[nodes_by_id[n].cpu_capacity for n in node_ids],
                       [nodes_by_id[n].mem_capacity for n in node_ids]])[:, :, None])
            for node_ids in by_count.values()]
        self.initial_action = ActionVector(cpu_alloc=[s.initial_cpu_request for s in svcs],
                                           mem_alloc=[s.initial_mem_request for s in svcs])
        self._noise: np.ndarray | None = None  # jitter draws by window, (E,) and service
        self._batch: tuple[int, ...] = ()  # (E,) after a reset with E seeds
        self._t: int | None = None  # the last window's index; None before reset

    def grant(self, action: ActionVector) -> tuple[np.ndarray, np.ndarray]:
        """Node over-subscription check: proportional scale-down per resource.

        Never raises an allocation; scaled values are re-floored at the box
        minimum so downstream ratios stay well defined. Each node's members
        are summed from a contiguous gather (take), which adds them in the
        order a per-node loop over cpu[members].sum() does.
        """
        block = action._block.copy()
        flat = block.reshape(*block.shape[:-2], -1)  # a view: (cpu, mem) per episode row
        for pos, cap in self._node_groups:
            requested = flat.take(pos, axis=-1)
            total = requested.sum(axis=-1, keepdims=True)
            np.multiply(requested, cap / total, out=requested, where=total > cap)
            flat[..., pos] = requested
        np.maximum(block, _BOX_LO, out=block)
        return block[..., 0, :], block[..., 1, :]

    def _window(self, step_index: int, action: ActionVector) -> RawMetrics:
        """Fill the window's raw block field by field (RawMetrics order) and adopt it."""
        lm = self.config.latency
        block = np.empty((*self._batch, 6, self.config.n_services))
        demand, granted = self._demand[step_index], block[..., RAW_ALLOC, :]
        granted[..., 0, :], granted[..., 1, :] = self.grant(action)
        block[..., RAW_QPS, :] = qps_at(self.workload, step_index)
        np.minimum(demand, granted, out=block[..., RAW_USED, :])
        rho = np.minimum(demand[0] / granted[..., 0, :], RHO_CAP)
        latency = np.divide(self._floor_ms, 1.0 - rho, out=block[..., RAW_LATENCY, :])
        # memory pressure multiplies the latency, then the cap applies; as the
        # multiplier is >= 1 this equals capping both before and after it
        np.multiply(latency, lm.mem_pressure_multiplier, out=latency,
                    where=granted[..., 1, :] < demand[1])
        np.minimum(latency, lm.saturation_cap_ms, out=latency)
        if lm.jitter_sigma > 0:
            latency *= 1.0 + lm.jitter_sigma * self._noise[step_index]
            latency.clip(self._floor_ms, lm.saturation_cap_ms, out=latency)
        return _adopt(RawMetrics, block)

    def reset(self, seed: int | tuple[int, ...]) -> tuple[StateVector, RawMetrics]:
        """Window 0 under initial_action, for one seed or a batch of them."""
        seeds = seed if isinstance(seed, tuple) else (seed,)
        if not seeds:
            raise ValidationError("reset needs at least one seed")
        self._batch = (len(seeds),) if isinstance(seed, tuple) else ()
        if self.config.latency.jitter_sigma > 0:  # row k: window k's standard_normal(N)
            draws = [stream(s, "env").standard_normal(np.shape(self.workload)) for s in seeds]
            self._noise = np.stack(draws, axis=1) if self._batch else draws[0]
        raw = self._window(0, self.initial_action)
        self._t = 0
        return normalize_state(raw, self.config.normalization), raw

    def step(self, action: ActionVector) -> tuple[StateVector, bool, RawMetrics]:
        """Advance one window under the given (clamped) allocation request."""
        if self._t is None:
            raise ValidationError("step before reset")
        if self._t == self.episode_len:
            raise ValidationError("episode is complete; call reset")
        if action.n_services != self.config.n_services:
            raise DimensionError(
                f"action covers {action.n_services} services, "
                f"config has {self.config.n_services}")
        if action._block.shape[:-2] not in ((), self._batch):
            raise DimensionError(f"action has episode axis {action._block.shape[:-2]}, "
                                 f"the reset made {self._batch}")
        if not np.isfinite(action.vec).all():
            raise ValidationError("action contains non-finite values")
        raw = self._window(self._t + 1, action)
        self._t += 1
        return (normalize_state(raw, self.config.normalization),
                self._t == self.episode_len, raw)
