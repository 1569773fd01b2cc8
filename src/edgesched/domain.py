"""Cluster, service, state, and action vocabulary.

All types are immutable value objects. RawMetrics, StateVector and
ActionVector keep their per-service vectors as read-only rows of one
float64 block, copied from the inputs and validated in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CPU_MIN",
    "CPU_MAX",
    "MEM_MIN",
    "MEM_MAX",
    "ValidationError",
    "DimensionError",
    "NodeSpec",
    "ServiceSpec",
    "NormalizationConfig",
    "RawMetrics",
    "StateVector",
    "ActionVector",
    "Transition",
    "default_nodes",
    "default_services",
    "normalize_state",
    "action_from_unit",
]

# Per-service allocation box: cores and megabytes.
CPU_MIN, CPU_MAX = 0.1, 2.0
MEM_MIN, MEM_MAX = 64.0, 2048.0
_BOX_LO, _BOX_HI = np.array([[CPU_MIN], [MEM_MIN]]), np.array([[CPU_MAX], [MEM_MAX]])


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class DimensionError(ValidationError):
    """Raised when a vector has the wrong length for its context."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _stack_rows(obj, nonneg: bool = False) -> np.ndarray | None:
    """The dataclass fields as rows of a new finite (nonneg: and >= 0) block, else None."""
    try:
        block = np.array([getattr(obj, name) for name in obj.__dataclass_fields__],
                         dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if block.ndim != 2 or not np.isfinite(block).all() or (nonneg and (block < 0).any()):
        return None
    return block


def _explain_rows(obj, nonneg: bool = False) -> None:
    """Raise for the first field, in field order, that failed _stack_rows."""
    n = None
    for name in obj.__dataclass_fields__:
        arr = _as_float_array(getattr(obj, name), name)
        if nonneg and np.any(arr < 0):
            raise ValidationError(f"{name} contains negative values")
        if n is None:
            n = arr.size
        elif arr.size != n:
            raise DimensionError(f"{name} has length {arr.size}, expected {n}")


def _freeze_rows(obj, block: np.ndarray) -> None:
    """Make block read-only and each dataclass field a row view of it."""
    block.setflags(write=False)
    object.__setattr__(obj, "_block", block)
    for name, row in zip(obj.__dataclass_fields__, block):
        object.__setattr__(obj, name, row)


@dataclass(frozen=True)
class NodeSpec:
    """A cluster host. Edge nodes are small but close; cloud nodes the reverse."""

    node_id: int
    tier: str  # "edge" | "cloud"
    cpu_capacity: float
    mem_capacity: float
    base_network_latency: float  # ms

    def __post_init__(self):
        if self.tier not in ("edge", "cloud"):
            raise ValidationError(f"unknown node tier {self.tier!r}")
        if self.cpu_capacity <= 0 or self.mem_capacity <= 0:
            raise ValidationError(f"node {self.node_id}: capacities must be positive")


# Defaults per tier: (cpu cores, mem MB, network ms).
_TIER_DEFAULTS = {"edge": (2.0, 4096.0, 5.0), "cloud": (8.0, 16384.0, 40.0)}


def make_node(node_id: int, tier: str, cpu_capacity: float | None = None,
              mem_capacity: float | None = None,
              base_network_latency: float | None = None) -> NodeSpec:
    """NodeSpec with tier defaults filled in where not overridden."""
    if tier not in _TIER_DEFAULTS:
        raise ValidationError(f"unknown node tier {tier!r}")
    cpu, mem, net = _TIER_DEFAULTS[tier]
    return NodeSpec(
        node_id=node_id,
        tier=tier,
        cpu_capacity=cpu if cpu_capacity is None else cpu_capacity,
        mem_capacity=mem if mem_capacity is None else mem_capacity,
        base_network_latency=net if base_network_latency is None else base_network_latency,
    )


@dataclass(frozen=True)
class ServiceSpec:
    """One containerized microservice and its (simulated) demand profile.

    cpu_cost_per_request is core-seconds of work per request; memory demand
    is mem_floor + mem_per_qps * qps megabytes.
    """

    service_id: int
    name: str
    home_node: int
    cpu_cost_per_request: float
    mem_floor: float
    mem_per_qps: float
    initial_cpu_request: float
    initial_mem_request: float

    def __post_init__(self):
        if not (CPU_MIN <= self.initial_cpu_request <= CPU_MAX):
            raise ValidationError(
                f"service {self.name}: initial_cpu_request {self.initial_cpu_request} "
                f"outside [{CPU_MIN}, {CPU_MAX}]")
        if not (MEM_MIN <= self.initial_mem_request <= MEM_MAX):
            raise ValidationError(
                f"service {self.name}: initial_mem_request {self.initial_mem_request} "
                f"outside [{MEM_MIN}, {MEM_MAX}]")
        if self.cpu_cost_per_request < 0 or self.mem_floor < 0 or self.mem_per_qps < 0:
            raise ValidationError(f"service {self.name}: demand parameters must be >= 0")


def default_nodes() -> list[NodeSpec]:
    """Default 8-node cluster: 4 edge hosts and 4 cloud hosts."""
    return [make_node(i, "edge") for i in range(4)] + \
           [make_node(i, "cloud") for i in range(4, 8)]


# Default storefront roster: (name, cpu core-s/req, mem floor MB, mem MB per qps,
# initial cpu request, initial mem request). Demand parameters are simulator
# inputs, sized so the heavy services sit on edge nodes (round-robin order)
# and a full 2-core grant still clears the latency objective at the 300 req/s
# aggregate; initial requests are deliberately lean so a static allocator
# runs hot once load picks up.
_DEFAULT_ROSTER = [
    ("frontend",     0.042, 256.0, 10.0, 0.60, 448.0),
    ("orders",       0.040, 256.0,  8.0, 0.55, 384.0),
    ("cart",         0.036, 192.0,  8.0, 0.50, 320.0),
    ("user",         0.030, 192.0,  6.0, 0.42, 320.0),
    ("catalogue",    0.024, 256.0,  6.0, 0.35, 384.0),
    ("shipping",     0.022, 128.0,  4.0, 0.32, 256.0),
    ("payment",      0.018, 128.0,  4.0, 0.28, 256.0),
    ("queue-master", 0.014, 128.0,  3.0, 0.22, 192.0),
]


def default_services(nodes: list[NodeSpec] | None = None) -> list[ServiceSpec]:
    """Default 8-service roster, placed round-robin across the node list."""
    nodes = default_nodes() if nodes is None else nodes
    services = []
    for i, (name, cost, floor, per_qps, cpu0, mem0) in enumerate(_DEFAULT_ROSTER):
        services.append(ServiceSpec(
            service_id=i,
            name=name,
            home_node=nodes[i % len(nodes)].node_id,
            cpu_cost_per_request=cost,
            mem_floor=floor,
            mem_per_qps=per_qps,
            initial_cpu_request=cpu0,
            initial_mem_request=mem0,
        ))
    return services


@dataclass(frozen=True)
class NormalizationConfig:
    """Divisors mapping raw metrics into [0, 1] state components.

    l_max defaults to twice the 150 ms latency objective so the violation
    boundary sits at mid-scale; q_max sits above the heaviest stock scenario.
    Utilizations are normalized against current allocation, not node capacity.
    """

    l_max: float = 300.0
    q_max: float = 400.0

    def __post_init__(self):
        if self.l_max <= 0 or self.q_max <= 0:
            raise ValidationError("normalization divisors must be positive")


@dataclass(frozen=True, eq=False)
class RawMetrics:
    """Per-service raw observations for one decision window."""

    cpu_used: np.ndarray    # cores
    cpu_alloc: np.ndarray   # cores
    mem_used: np.ndarray    # MB
    mem_alloc: np.ndarray   # MB
    latency_ms: np.ndarray
    qps: np.ndarray

    def __post_init__(self):
        block = _stack_rows(self, nonneg=True)
        if block is None:
            _explain_rows(self, nonneg=True)
        if (block[1:4:2] <= 0).any():  # the cpu_alloc and mem_alloc rows
            raise ValidationError("allocations must be strictly positive")
        _freeze_rows(self, block)

    @property
    def n_services(self) -> int:
        return self.cpu_used.size


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized observation: four blocks of N values, each in [0, 1]."""

    cpu_util: np.ndarray
    mem_util: np.ndarray
    latency_norm: np.ndarray
    qps_norm: np.ndarray

    def __post_init__(self):
        block = _stack_rows(self)
        if block is None:
            _explain_rows(self)
        _freeze_rows(self, np.clip(block, 0.0, 1.0, out=block))

    @property
    def n_services(self) -> int:
        return self.cpu_util.size

    @property
    def vec(self) -> np.ndarray:
        """Flat 4N vector in block order [cpu, mem, latency, qps]: a read-only view."""
        return self._block.reshape(-1)


@dataclass(frozen=True, eq=False)
class ActionVector:
    """Per-service allocation decision, always clamped into the box."""

    cpu_alloc: np.ndarray  # cores in [CPU_MIN, CPU_MAX]
    mem_alloc: np.ndarray  # MB in [MEM_MIN, MEM_MAX]

    def __post_init__(self):
        block = _stack_rows(self)
        if block is None:
            cpu = _as_float_array(self.cpu_alloc, "cpu_alloc")
            mem = _as_float_array(self.mem_alloc, "mem_alloc")
            # both are finite 1-D vectors, so only their lengths can differ
            raise DimensionError(
                f"cpu_alloc has length {cpu.size} but mem_alloc has length {mem.size}")
        _freeze_rows(self, np.clip(block, _BOX_LO, _BOX_HI, out=block))

    @property
    def n_services(self) -> int:
        return self.cpu_alloc.size

    @property
    def vec(self) -> np.ndarray:
        """Flat 2N vector in block order [cpu, mem]: a read-only view."""
        return self._block.reshape(-1)


@dataclass(frozen=True, eq=False)
class Transition:
    """One validated (s, a, r, s', done) tuple.

    The step loop does not build these: ReplayBuffer.add takes the five
    values as arrays.
    """

    state: StateVector
    action: ActionVector
    reward: float
    next_state: StateVector
    done: bool

    def __post_init__(self):
        if self.state.n_services != self.next_state.n_services:
            raise DimensionError("state and next_state dimensions differ")
        if not np.isfinite(self.reward):
            raise ValidationError("reward must be finite")


def normalize_state(raw: RawMetrics, norm: NormalizationConfig) -> StateVector:
    """Map raw per-service metrics into the clamped [0, 1] state blocks."""
    return StateVector(
        cpu_util=np.clip(raw.cpu_used / raw.cpu_alloc, 0.0, 1.0),
        mem_util=np.clip(raw.mem_used / raw.mem_alloc, 0.0, 1.0),
        latency_norm=np.clip(raw.latency_ms / norm.l_max, 0.0, 1.0),
        qps_norm=np.clip(raw.qps / norm.q_max, 0.0, 1.0),
    )


def action_from_unit(u) -> ActionVector:
    """Affine map from a 2N unit-box vector in [-1, 1] to box allocations.

    Values numerically outside [-1, 1] are clamped first, mirroring a
    tanh-bounded policy head.
    """
    u = _as_float_array(u, "unit action")
    if u.size % 2 != 0 or u.size == 0:
        raise DimensionError(f"unit action length must be even and positive, got {u.size}")
    n = u.size // 2
    u = np.clip(u, -1.0, 1.0)
    half = (u + 1.0) / 2.0
    return ActionVector(
        cpu_alloc=CPU_MIN + half[:n] * (CPU_MAX - CPU_MIN),
        mem_alloc=MEM_MIN + half[n:] * (MEM_MAX - MEM_MIN),
    )
