"""Per-step request rates driving the simulator.

A WorkloadSource yields the per-service QPS vector for each 30-second
decision window, either from a synthetic generator (constant, sinusoidal,
burst) or from an ingested trace file. Trace files are plain CSV with a
`step,service,qps` header; a converter from richer cluster traces boils
down to emitting that schema.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import ValidationError, require_finite

__all__ = [
    "TraceRecord",
    "WorkloadSource",
    "constant_source",
    "sinusoidal_source",
    "burst_source",
    "trace_source",
    "load_trace",
    "write_trace",
    "qps_at",
    "uniform_weights",
    "front_heavy_weights",
]

TRACE_HEADER = ["step", "service", "qps"]


class TraceParseError(ValidationError):
    """Raised for malformed trace files; carries the offending line number."""


@dataclass(frozen=True)
class TraceRecord:
    step_index: int
    service_id: int
    qps: float


def uniform_weights(n_services: int) -> np.ndarray:
    return np.full(n_services, 1.0 / n_services)


def front_heavy_weights(n_services: int) -> np.ndarray:
    """Skewed split mimicking a front-end-heavy storefront traffic profile.

    The first service takes ~30% of aggregate load, decaying geometrically
    across the rest.
    """
    raw = 0.7 ** np.arange(n_services)
    return raw / raw.sum()


def _check_weights(weights: np.ndarray, n_services: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.size != n_services:
        raise ValidationError(f"weight vector length {w.size} != n_services {n_services}")
    if not np.isfinite(w).all():
        raise ValidationError("per-service weights must be finite")
    if np.any(w < 0):
        raise ValidationError("per-service weights must be non-negative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError(f"per-service weights must sum to 1, got {w.sum()!r}")
    return w.copy()


@dataclass(frozen=True, eq=False)
class WorkloadSource:
    """One request-rate generator; read-only after construction.

    kind-specific parameters live in `params`; use the factory functions
    below rather than constructing directly.
    """

    kind: str  # constant | sinusoidal | burst | trace
    n_services: int
    weights: np.ndarray
    params: dict = field(default_factory=dict)
    trace: tuple[TraceRecord, ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoidal", "burst", "trace"):
            raise ValidationError(f"unknown workload kind {self.kind!r}")
        object.__setattr__(self, "weights", _check_weights(self.weights, self.n_services))


def constant_source(rate: float, n_services: int, weights=None) -> WorkloadSource:
    require_finite("constant source", rate=rate)
    if rate < 0:
        raise ValidationError("constant rate must be >= 0")
    w = uniform_weights(n_services) if weights is None else weights
    return WorkloadSource("constant", n_services, w, {"rate": float(rate)})


def sinusoidal_source(mean: float, amplitude: float, period_steps: int,
                      n_services: int, weights=None) -> WorkloadSource:
    require_finite("sinusoidal source", mean=mean, amplitude=amplitude)
    if period_steps < 1:
        raise ValidationError("period_steps must be >= 1")
    w = uniform_weights(n_services) if weights is None else weights
    return WorkloadSource("sinusoidal", n_services, w, {
        "mean": float(mean), "amplitude": float(amplitude), "period_steps": int(period_steps)})


def burst_source(base_rate: float, burst_rate: float, burst_start: int,
                 burst_len: int, n_services: int, weights=None) -> WorkloadSource:
    require_finite("burst source", base_rate=base_rate, burst_rate=burst_rate)
    if base_rate < 0 or burst_rate < 0:
        raise ValidationError("rates must be >= 0")
    if burst_start < 0 or burst_len < 0:
        raise ValidationError("burst window must be >= 0")
    w = uniform_weights(n_services) if weights is None else weights
    return WorkloadSource("burst", n_services, w, {
        "base_rate": float(base_rate), "burst_rate": float(burst_rate),
        "burst_start": int(burst_start), "burst_len": int(burst_len)})


def trace_source(path: str | Path, n_services: int) -> WorkloadSource:
    records = load_trace(path, n_services)
    # Pre-index step -> qps vector; missing services stay at 0.
    vectors: dict[int, np.ndarray] = {}
    for rec in records:
        vec = vectors.setdefault(rec.step_index, np.zeros(n_services))
        vec[rec.service_id] = rec.qps
    return WorkloadSource("trace", n_services, uniform_weights(n_services),
                          {"path": str(path), "vectors": vectors},
                          trace=tuple(records))


def load_trace(path: str | Path, n_services: int) -> list[TraceRecord]:
    """Parse a trace CSV into records sorted by (step_index, service_id).

    Services missing at a step implicitly carry qps = 0. Duplicate
    (step, service) pairs and malformed rows are rejected with the line
    number; an empty file is a valid empty trace.
    """
    records: list[TraceRecord] = []
    seen: dict[tuple[int, int], int] = {}
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from exc
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and [c.strip().lower() for c in row] == TRACE_HEADER:
                continue
            if len(row) != 3:
                raise TraceParseError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                step = int(row[0])
                service = int(row[1])
                qps = float(row[2])
            except ValueError as exc:
                raise TraceParseError(f"{path}:{lineno}: {exc}") from exc
            if step < 0:
                raise TraceParseError(f"{path}:{lineno}: step_index must be >= 0")
            if not (0 <= service < n_services):
                raise TraceParseError(
                    f"{path}:{lineno}: service_id {service} outside [0, {n_services})")
            if not math.isfinite(qps) or qps < 0:
                raise TraceParseError(f"{path}:{lineno}: qps must be finite and >= 0")
            key = (step, service)
            if key in seen:
                raise TraceParseError(
                    f"{path}:{lineno}: duplicate entry for step {step}, service {service} "
                    f"(first seen at line {seen[key]})")
            seen[key] = lineno
            records.append(TraceRecord(step, service, qps))
    records.sort(key=lambda r: (r.step_index, r.service_id))
    return records


def write_trace(records: list[TraceRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in records:
            writer.writerow([rec.step_index, rec.service_id, repr(float(rec.qps))])


def _aggregate_rate(source: WorkloadSource, step: int) -> float:
    p = source.params
    if source.kind == "constant":
        return p["rate"]
    if source.kind == "sinusoidal":
        return p["mean"] + p["amplitude"] * math.sin(2.0 * math.pi * step / p["period_steps"])
    if source.kind == "burst":
        in_burst = p["burst_start"] <= step < p["burst_start"] + p["burst_len"]
        return p["burst_rate"] if in_burst else p["base_rate"]
    raise ValidationError(f"no aggregate rate for kind {source.kind!r}")


def qps_at(source: WorkloadSource, step: int) -> np.ndarray:
    """Per-service request rates at a step; a pure function of (source, step).

    Trace sources hold their last step's values past the end, so
    fixed-length episodes never fail on short traces.
    """
    if step < 0:
        raise ValidationError("step must be >= 0")
    if source.kind == "trace":
        if not source.trace:
            return np.zeros(source.n_services)
        lookup = min(step, source.trace[-1].step_index)
        vec = source.params["vectors"].get(lookup)
        if vec is None:  # step absent from trace: every service at 0
            return np.zeros(source.n_services)
        return np.clip(vec.copy(), 0.0, None)
    rate = _aggregate_rate(source, step)
    return np.clip(rate * source.weights, 0.0, None)
