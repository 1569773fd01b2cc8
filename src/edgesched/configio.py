"""Experiment configuration: strict JSON loading, defaults, canonical hashing.

One JSON document fully describes a run. Unknown keys anywhere in the
document are errors, not warnings; a typo in a hyperparameter name must
fail loudly instead of silently training with defaults.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .agents import AGENT_KINDS, DqnHyper, Td3Hyper
from .domain import (
    NodeSpec,
    NormalizationConfig,
    ServiceSpec,
    ValidationError,
    make_node,
)
from .rewards import RewardWeights
from .simulator import LatencyModel, SimConfig
from .workload import constant_source, front_heavy_weights, trace_source, uniform_weights

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "build_workload",
    "config_hash",
    "SCENARIO_PRESETS",
    "TRACE_PREFIX",
    "MAX_STEPS_PER_EPISODE",
]


class ConfigError(ValidationError):
    """Malformed or contradictory experiment configuration."""


# Preset scenarios bind the constant generator at two aggregate rates;
# anything else must be "trace:<csv path>".
SCENARIO_PRESETS = {"normal_100": 100.0, "high_300": 300.0}
TRACE_PREFIX = "trace:"

WEIGHT_SCHEMES = ("uniform", "front_heavy")

# build_workload allocates one rate-matrix row per window, so T is capped
# where that matrix would stop being small.
MAX_STEPS_PER_EPISODE = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a training or evaluation run needs, fully resolved."""

    algorithm: str = "td3"
    episodes: int = 50
    steps_per_episode: int = 20
    scenario: str = "normal_100"
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    output_dir: str = "runs/out"
    workload_weights: str = "uniform"
    basek_mode: str = "static"
    sim: SimConfig = field(default_factory=SimConfig)
    reward: RewardWeights = field(default_factory=RewardWeights)
    td3: Td3Hyper = field(default_factory=Td3Hyper)
    dqn: DqnHyper = field(default_factory=DqnHyper)

    def __post_init__(self):
        if self.algorithm not in AGENT_KINDS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; expected one of {AGENT_KINDS}")
        if self.episodes < 1 or self.steps_per_episode < 1:
            raise ConfigError("episodes and steps_per_episode must be >= 1")
        if self.steps_per_episode > MAX_STEPS_PER_EPISODE:
            raise ConfigError(f"steps_per_episode must be <= {MAX_STEPS_PER_EPISODE}, "
                              f"got {self.steps_per_episode}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if any(not isinstance(s, int) or s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative integers")
        if self.workload_weights not in WEIGHT_SCHEMES:
            raise ConfigError(
                f"unknown workload_weights {self.workload_weights!r}; "
                f"expected one of {WEIGHT_SCHEMES}")
        if self.scenario not in SCENARIO_PRESETS and not self.scenario.startswith(TRACE_PREFIX):
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of "
                f"{sorted(SCENARIO_PRESETS)} or '{TRACE_PREFIX}<path>'")
        if self.basek_mode not in ("static", "threshold"):
            raise ConfigError(f"unknown basek_mode {self.basek_mode!r}")


def build_workload(config: ExperimentConfig) -> np.ndarray:
    """Resolve the scenario string into the run's rate matrix, one row per window."""
    n, rows = config.sim.n_services, config.steps_per_episode + 1
    if config.scenario.startswith(TRACE_PREFIX):
        return trace_source(config.scenario[len(TRACE_PREFIX):], n, rows)
    rate = SCENARIO_PRESETS[config.scenario]
    weights = (uniform_weights(n) if config.workload_weights == "uniform"
               else front_heavy_weights(n))
    return constant_source(rate, n, rows, weights)


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the canonical JSON form of every resolved field."""
    payload = asdict(config)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# strict JSON reading
# Each section is read from the dataclasses it fills. Their modules postpone
# annotations, so a scalar field's type is one of these strings.
_KINDS = {"float": float, "int": int, "str": str, "bool": bool}


def _reject_unknown(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {unknown}")


def _expect(doc: dict, key: str, kinds, section: str):
    value = doc[key]
    if kinds is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, inf or an int beyond float range
            raise ConfigError(f"{section}.{key}: expected a finite number, got {value!r}")
        return float(value)
    if kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kinds):
        raise ConfigError(f"{section}.{key}: unexpected type for {value!r}")
    return value


def _read(doc: dict, section: str, *classes, nested: tuple[str, ...] = ()) -> list[dict]:
    """Per class, the values `doc` gives for its scalar fields, type-checked.

    Keys in `nested` are left to the caller. Any other key that names no
    scalar field is an error. Omitted fields keep their dataclass defaults.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected an object")
    kinds = [{f.name: _KINDS[f.type] for f in fields(cls) if f.type in _KINDS}
             for cls in classes]
    _reject_unknown(section, doc, set(nested).union(*kinds))
    return [{key: _expect(doc, key, kind, section) for key, kind in spec.items() if key in doc}
            for spec in kinds]


def _node_from(entry: dict, where: str, index: int) -> NodeSpec:
    (values,) = _read(entry, where, NodeSpec)
    if "tier" not in values:
        raise ConfigError(f"{where}: missing 'tier'")
    values.setdefault("node_id", index)
    return make_node(**values)


def _service_from(entry: dict, where: str, index: int) -> ServiceSpec:
    (values,) = _read(entry, where, ServiceSpec)
    missing = sorted(f.name for f in fields(ServiceSpec) if f.name not in values)
    if missing:
        raise ConfigError(f"{where}: missing key(s) {missing}")
    return ServiceSpec(**values)


def _sim_from(doc: dict) -> SimConfig:
    """SimConfig, with the latency-model and normalization fields beside its own.

    Normalization keys override the divisors SimConfig derives from l_target.
    """
    values, latency, norm = _read(doc, "sim", SimConfig, LatencyModel, NormalizationConfig,
                                  nested=("nodes", "services"))
    for key, entry_from in (("nodes", _node_from), ("services", _service_from)):
        if key not in doc:
            continue
        if not isinstance(doc[key], list):
            raise ConfigError(f"sim.{key}: expected a list")
        values[key] = [entry_from(entry, f"sim.{key}[{i}]", i)
                       for i, entry in enumerate(doc[key])]
    sim = SimConfig(latency=LatencyModel(**latency), **values)
    return replace(sim, normalization=replace(sim.normalization, **norm))


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate one experiment JSON document.

    Relative trace paths in the scenario resolve against the config file's
    directory so configs stay relocatable.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, not UTF-8, or an integer over 4300 digits
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    sections = {"sim": SimConfig, "reward": RewardWeights, "td3": Td3Hyper, "dqn": DqnHyper}
    (values,) = _read(doc, "config", ExperimentConfig, nested=("seeds", *sections))

    if "seeds" in doc:
        seeds = doc["seeds"]
        if not isinstance(seeds, list) or not all(
                isinstance(s, int) and not isinstance(s, bool) for s in seeds):
            raise ConfigError("config.seeds: expected a list of integers")
        values["seeds"] = tuple(seeds)

    scenario = values.get("scenario", "")
    if scenario.startswith(TRACE_PREFIX):  # an absolute trace path survives the join
        values["scenario"] = TRACE_PREFIX + str(path.parent / scenario[len(TRACE_PREFIX):])

    try:
        for key, cls in sections.items():
            if key not in doc:
                continue
            if not isinstance(doc[key], dict):
                raise ConfigError(f"config.{key}: expected an object")
            values[key] = (_sim_from(doc[key]) if cls is SimConfig
                           else cls(**_read(doc[key], key, cls)[0]))
        return ExperimentConfig(**values)
    except ValidationError as exc:  # a value a spec or hyperparameter class rejects, too
        raise ConfigError(str(exc)) from exc
