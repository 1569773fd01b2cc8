"""Per-step request rates driving the simulator.

A workload is one read-only float64 matrix of shape (rows, n_services):
row t holds the per-service QPS of 30-second decision window t. Each
builder (constant, sinusoidal, burst, or an ingested trace) fills it once
for a given number of rows, steps_per_episode + 1 for a run, and the simulator
reads one row per step through qps_at. Trace files are plain CSV with a
`step,service,qps` header; a converter from richer cluster traces boils
down to emitting that schema.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .domain import ValidationError, csv_rows, require_finite

__all__ = [
    "TraceRecord",
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
    return w


def _frozen(matrix: np.ndarray) -> np.ndarray:
    """The rate matrix clipped at 0, as a new read-only array."""
    if len(matrix) < 1:
        raise ValidationError("a workload needs at least one row")
    matrix = np.clip(matrix, 0.0, None)
    matrix.flags.writeable = False
    return matrix


def _rate_rows(rates: list[float], n_services: int, weights) -> np.ndarray:
    """Row t is the aggregate rates[t] split across services by the weights."""
    w = uniform_weights(n_services) if weights is None else weights
    return _frozen(np.array(rates)[:, None] * _check_weights(w, n_services))


def constant_source(rate: float, n_services: int, rows: int, weights=None) -> np.ndarray:
    require_finite("constant source", rate=rate)
    if rate < 0:
        raise ValidationError("constant rate must be >= 0")
    return _rate_rows([float(rate)] * rows, n_services, weights)


def sinusoidal_source(mean: float, amplitude: float, period_steps: int,
                      n_services: int, rows: int, weights=None) -> np.ndarray:
    require_finite("sinusoidal source", mean=mean, amplitude=amplitude)
    if period_steps < 1:
        raise ValidationError("period_steps must be >= 1")
    mean, amplitude, period_steps = float(mean), float(amplitude), int(period_steps)
    return _rate_rows([mean + amplitude * math.sin(2.0 * math.pi * step / period_steps)
                       for step in range(rows)], n_services, weights)


def burst_source(base_rate: float, burst_rate: float, burst_start: int,
                 burst_len: int, n_services: int, rows: int, weights=None) -> np.ndarray:
    require_finite("burst source", base_rate=base_rate, burst_rate=burst_rate)
    if base_rate < 0 or burst_rate < 0:
        raise ValidationError("rates must be >= 0")
    if burst_start < 0 or burst_len < 0:
        raise ValidationError("burst window must be >= 0")
    base_rate, burst_rate = float(base_rate), float(burst_rate)
    return _rate_rows([burst_rate if burst_start <= step < burst_start + burst_len else base_rate
                       for step in range(rows)], n_services, weights)


def trace_source(path: str | Path, n_services: int, rows: int) -> np.ndarray:
    """The trace as a read-only (rows, n_services) matrix.

    A step absent from the trace reads 0 for every service, and rows past
    the trace's last step hold that step's values, so fixed-length
    episodes never fail on short traces. Records at or beyond `rows` are
    never read.
    """
    records = load_trace(path, n_services)
    matrix = np.zeros((rows, n_services))
    for rec in records:
        if rec.step_index < rows:
            matrix[rec.step_index, rec.service_id] = rec.qps
    if records and records[-1].step_index < rows - 1:
        matrix[records[-1].step_index + 1:] = matrix[records[-1].step_index]
    return _frozen(matrix)


def load_trace(path: str | Path, n_services: int) -> list[TraceRecord]:
    """Parse a trace CSV into records sorted by (step_index, service_id).

    Services missing at a step implicitly carry qps = 0. Duplicate
    (step, service) pairs and malformed rows are rejected with the line
    number; an empty file is a valid empty trace.
    """
    records: list[TraceRecord] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, row in csv_rows(path, TraceParseError):
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


def qps_at(rates: np.ndarray, step: int) -> np.ndarray:
    """Per-service request rates at a step: row `step` of the rate matrix."""
    if not 0 <= step < len(rates):
        raise ValidationError(f"step {step} outside the workload's rows [0, {len(rates)})")
    return rates[step]
