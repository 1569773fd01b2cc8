"""Cluster, service, state, and action vocabulary.

All types are immutable value objects. RawMetrics, StateVector and
ActionVector hold one read-only float64 block whose rows are the fields
(states clipped to [0, 1], actions to the allocation box). Their public
constructors stack and check the given fields; the step path, which
computes each block whole from checked values, hands it over with _adopt
instead, so the block is built once and not copied again. There the
block may carry a leading episode axis, (E, fields, N), and each field is
then an (E, N) view.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "CPU_MIN",
    "CPU_MAX",
    "MEM_MIN",
    "MEM_MAX",
    "ValidationError",
    "DimensionError",
    "require_finite",
    "check_fields",
    "csv_rows",
    "write_atomic",
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
_BOX_SPAN = _BOX_HI - _BOX_LO


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class DimensionError(ValidationError):
    """Raised when a vector has the wrong length for its context."""


def require_finite(owner: str, **values: float) -> None:
    """Raise ValidationError naming the first of values that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{owner}: {name} must be finite, got {value!r}")


# Scalar field annotations, as strings: the config modules postpone annotations.
_FIELD_KINDS = {"float": float, "int": int, "str": str, "bool": bool}
_EXPECTED = {float: "a finite number", int: "an integer", str: "a string", bool: "a boolean"}


def check_fields(obj, owner: str, error: type[ValidationError] = ValidationError) -> None:
    """Raise `error`, naming "<owner>.<field>", if a scalar field breaks its annotation.

    An int, str or bool field takes exactly its type, so a bool is no int. A
    float field takes a finite int or float and stores it as a float, so a
    config hashes alike however its numbers were spelled.
    """
    for f in fields(obj):
        kind, value = _FIELD_KINDS.get(f.type), getattr(obj, f.name)
        if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool) \
                and abs(value) <= sys.float_info.max:  # not NaN, inf or an int past float range
            object.__setattr__(obj, f.name, float(value))
        elif kind is float or (kind is not None and type(value) is not kind):
            raise error(f"{owner}.{f.name}: expected {_EXPECTED[kind]}, got {value!r}")


def csv_rows(path: str | Path, error: type[ValidationError]):
    """Yield (line number, cells) for each record of a UTF-8 CSV file.

    A path the OS cannot name or read, text that is not UTF-8 and a cell
    the csv module refuses (one over its field size limit) raise `error`,
    naming the path and, for the cell, the line.
    """
    try:
        data = Path(path).read_bytes()
    except ValueError as exc:  # an embedded null byte
        raise error(f"{str(path)!r}: {exc}") from exc
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for cells in reader:
            yield reader.line_num, cells
    except csv.Error as exc:
        raise error(f"{path}:{reader.line_num}: {exc}") from exc


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace `path` by way of a temporary file, so no crash leaves it torn."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _freeze_rows(obj) -> None:
    """Stack the dataclass fields into one new float64 block and make it obj's rows."""
    names = obj.__dataclass_fields__
    try:
        block = np.array([getattr(obj, name) for name in names], dtype=np.float64)
    except ValueError:  # ragged rows or non-numeric values
        block = None
    if block is None or block.ndim != 2:
        raise DimensionError(
            f"{type(obj).__name__} fields must be numeric 1-D vectors of one length")
    _own_rows(obj, block)


def _own_rows(obj, block: np.ndarray) -> None:
    """Clip block in place to obj's range, if its class has one, and make
    each field a read-only view of it along axis -2."""
    if obj._range is not None:
        block.clip(*obj._range, out=block)
    block.setflags(write=False)
    # the dataclass is frozen, so the fields go straight into the instance dict
    vars(obj).update(zip(obj.__dataclass_fields__, block.swapaxes(0, -2)), _block=block)


def _adopt(cls, block: np.ndarray):
    """A cls whose fields are the rows of block, without copying or checking it.

    block must be a fresh C-ordered float64 array of shape (fields, N) or
    (E, fields, N), which no one else writes to; it is clipped like a
    constructed one.
    """
    obj = object.__new__(cls)
    _own_rows(obj, block)
    return obj


@dataclass(frozen=True)
class NodeSpec:
    """A cluster host. Edge nodes are small but close; cloud nodes the reverse."""

    node_id: int
    tier: str  # "edge" | "cloud"
    cpu_capacity: float
    mem_capacity: float
    base_network_latency: float  # ms

    def __post_init__(self):
        check_fields(self, f"node {self.node_id}")
        if self.tier not in ("edge", "cloud"):
            raise ValidationError(f"unknown node tier {self.tier!r}")
        if self.cpu_capacity <= 0 or self.mem_capacity <= 0 or self.base_network_latency < 0:
            raise ValidationError(
                f"node {self.node_id}: capacities must be positive and latency >= 0")


# Defaults per tier: (cpu cores, mem MB, network ms).
_TIER_DEFAULTS = {"edge": (2.0, 4096.0, 5.0), "cloud": (8.0, 16384.0, 40.0)}


def make_node(node_id: int, tier: str, cpu_capacity: float | None = None,
              mem_capacity: float | None = None,
              base_network_latency: float | None = None) -> NodeSpec:
    """NodeSpec with tier defaults filled in where not overridden."""
    if not (isinstance(tier, str) and tier in _TIER_DEFAULTS):  # a list would not hash
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

    name: str
    home_node: int
    cpu_cost_per_request: float
    mem_floor: float
    mem_per_qps: float
    initial_cpu_request: float
    initial_mem_request: float

    def __post_init__(self):
        check_fields(self, f"service {self.name}")
        for name, lo, hi in (("initial_cpu_request", CPU_MIN, CPU_MAX),
                             ("initial_mem_request", MEM_MIN, MEM_MAX)):
            if not (lo <= getattr(self, name) <= hi):
                raise ValidationError(
                    f"service {self.name}: {name} {getattr(self, name)} outside [{lo}, {hi}]")
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
        check_fields(self, "sim")  # the JSON section that holds the divisors
        if self.l_max <= 0 or self.q_max <= 0:
            raise ValidationError("normalization divisors must be positive")


class _Rows:
    """Shared behaviour of the row-block value objects: each dataclass field
    is one row of a read-only float64 block, clipped to _range if set."""

    _range = None

    def __post_init__(self):
        _freeze_rows(self)

    @property
    def n_services(self) -> int:
        return self._block.shape[-1]

    @property
    def vec(self) -> np.ndarray:
        """The block flattened in field order, per episode row: a read-only view."""
        return self._block.reshape(*self._block.shape[:-2], -1)


@dataclass(frozen=True, eq=False)
class RawMetrics(_Rows):
    """Per-service raw observations for one decision window."""

    cpu_used: np.ndarray    # cores
    cpu_alloc: np.ndarray   # cores
    mem_used: np.ndarray    # MB
    mem_alloc: np.ndarray   # MB
    latency_ms: np.ndarray
    qps: np.ndarray


# Rows of a RawMetrics block, in field order; used and alloc each run cpu, mem.
RAW_USED, RAW_ALLOC, RAW_LATENCY, RAW_QPS = slice(0, 4, 2), slice(1, 4, 2), 4, 5


@dataclass(frozen=True, eq=False)
class StateVector(_Rows):
    """Normalized observation: four [0, 1] blocks of N values; vec is [cpu, mem, latency, qps]."""

    cpu_util: np.ndarray
    mem_util: np.ndarray
    latency_norm: np.ndarray
    qps_norm: np.ndarray

    _range = (0.0, 1.0)


@dataclass(frozen=True, eq=False)
class ActionVector(_Rows):
    """Per-service allocation decision, always clamped into the box; vec is [cpu, mem]."""

    cpu_alloc: np.ndarray  # cores in [CPU_MIN, CPU_MAX]
    mem_alloc: np.ndarray  # MB in [MEM_MIN, MEM_MAX]

    _range = (_BOX_LO, _BOX_HI)


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
    rows = raw._block
    block = np.empty((*rows.shape[:-2], 4, rows.shape[-1]))
    # used / alloc for cpu and mem
    np.divide(rows[..., RAW_USED, :], rows[..., RAW_ALLOC, :], out=block[..., :2, :])
    np.divide(rows[..., RAW_LATENCY, :], norm.l_max, out=block[..., 2, :])
    np.divide(rows[..., RAW_QPS, :], norm.q_max, out=block[..., 3, :])
    return _adopt(StateVector, block)


def action_from_unit(u) -> ActionVector:
    """Affine map from a 2N unit-box vector in [-1, 1], or an (E, 2N) batch
    of them, to box allocations.

    Values numerically outside [-1, 1] are clamped first, mirroring a
    tanh-bounded policy head.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim not in (1, 2) or u.shape[-1] % 2 != 0 or u.size == 0:
        raise DimensionError(f"unit action must be a 1-D vector of even positive length, "
                             f"or a batch of them, got shape {u.shape}")
    block = u.clip(-1.0, 1.0).reshape(*u.shape[:-1], 2, -1)
    block += 1.0
    block /= 2.0
    block *= _BOX_SPAN
    block += _BOX_LO
    return _adopt(ActionVector, block)
