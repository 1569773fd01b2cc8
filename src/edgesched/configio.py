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
from .workload import (
    WorkloadSource,
    constant_source,
    front_heavy_weights,
    trace_source,
    uniform_weights,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "build_workload",
    "config_hash",
    "SCENARIO_PRESETS",
    "TRACE_PREFIX",
]


class ConfigError(ValidationError):
    """Malformed or contradictory experiment configuration."""


# Preset scenarios bind the constant generator at two aggregate rates;
# anything else must be "trace:<csv path>".
SCENARIO_PRESETS = {"normal_100": 100.0, "high_300": 300.0}
TRACE_PREFIX = "trace:"

WEIGHT_SCHEMES = ("uniform", "front_heavy")


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
        # the simulator's episode length always follows T
        if self.sim.episode_len != self.steps_per_episode:
            object.__setattr__(self, "sim",
                               replace(self.sim, episode_len=self.steps_per_episode))


def build_workload(config: ExperimentConfig) -> WorkloadSource:
    """Resolve the scenario string into a concrete request-rate source."""
    n = config.sim.n_services
    if config.scenario.startswith(TRACE_PREFIX):
        return trace_source(config.scenario[len(TRACE_PREFIX):], n)
    rate = SCENARIO_PRESETS[config.scenario]
    weights = (uniform_weights(n) if config.workload_weights == "uniform"
               else front_heavy_weights(n))
    return constant_source(rate, n, weights)


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 over the canonical JSON form of every resolved field."""
    payload = asdict(config)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# strict JSON reading


def _reject_unknown(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {unknown}")


def _expect(doc: dict, key: str, kinds, section: str, default):
    if key not in doc:
        return default
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


def _hyper_from(doc: dict, section: str, cls):
    """Fill any dataclass of int/float fields from a JSON object."""
    spec = {f.name: f.type for f in fields(cls)}
    _reject_unknown(section, doc, set(spec))
    kwargs = {}
    for name in spec:
        if name not in doc:
            continue
        current = getattr(cls(), name)
        kind = float if isinstance(current, float) else int if isinstance(current, int) else str
        if isinstance(current, bool):
            kind = (bool,)
        kwargs[name] = _expect(doc, name, kind, section, None)
    return cls(**kwargs)


def _nodes_from(items: list, section: str) -> list[NodeSpec]:
    nodes = []
    for i, entry in enumerate(items):
        if not isinstance(entry, dict):
            raise ConfigError(f"{section}[{i}]: expected an object")
        where = f"{section}[{i}]"
        _reject_unknown(where, entry,
                        {"node_id", "tier", "cpu_capacity", "mem_capacity",
                         "base_network_latency"})
        if "tier" not in entry:
            raise ConfigError(f"{where}: missing 'tier'")
        nodes.append(make_node(
            node_id=_expect(entry, "node_id", int, where, i),
            tier=_expect(entry, "tier", str, where, None),
            cpu_capacity=_expect(entry, "cpu_capacity", float, where, None),
            mem_capacity=_expect(entry, "mem_capacity", float, where, None),
            base_network_latency=_expect(entry, "base_network_latency", float, where, None),
        ))
    return nodes


def _services_from(items: list, section: str) -> list[ServiceSpec]:
    required = {"name", "home_node", "cpu_cost_per_request", "mem_floor",
                "mem_per_qps", "initial_cpu_request", "initial_mem_request"}
    services = []
    for i, entry in enumerate(items):
        if not isinstance(entry, dict):
            raise ConfigError(f"{section}[{i}]: expected an object")
        where = f"{section}[{i}]"
        _reject_unknown(where, entry, required)
        missing = sorted(required - set(entry))
        if missing:
            raise ConfigError(f"{where}: missing key(s) {missing}")
        services.append(ServiceSpec(
            service_id=i,
            name=_expect(entry, "name", str, where, None),
            home_node=_expect(entry, "home_node", int, where, None),
            cpu_cost_per_request=_expect(entry, "cpu_cost_per_request", float, where, None),
            mem_floor=_expect(entry, "mem_floor", float, where, None),
            mem_per_qps=_expect(entry, "mem_per_qps", float, where, None),
            initial_cpu_request=_expect(entry, "initial_cpu_request", float, where, None),
            initial_mem_request=_expect(entry, "initial_mem_request", float, where, None),
        ))
    return services


def _sim_from(doc: dict, steps_per_episode: int) -> SimConfig:
    _reject_unknown("sim", doc, {
        "l_target", "base_service_ms", "saturation_cap_ms", "mem_pressure_multiplier",
        "jitter_sigma", "l_max", "q_max", "nodes", "services"})
    base = SimConfig()
    latency = LatencyModel(
        base_service_ms=_expect(doc, "base_service_ms", float, "sim",
                                base.latency.base_service_ms),
        saturation_cap_ms=_expect(doc, "saturation_cap_ms", float, "sim",
                                  base.latency.saturation_cap_ms),
        mem_pressure_multiplier=_expect(doc, "mem_pressure_multiplier", float, "sim",
                                        base.latency.mem_pressure_multiplier),
        jitter_sigma=_expect(doc, "jitter_sigma", float, "sim",
                             base.latency.jitter_sigma),
    )
    l_target = _expect(doc, "l_target", float, "sim", base.l_target)
    norm = NormalizationConfig(
        l_max=_expect(doc, "l_max", float, "sim", 2.0 * l_target),
        q_max=_expect(doc, "q_max", float, "sim", base.normalization.q_max),
    )
    kwargs = dict(
        l_target=l_target,
        episode_len=steps_per_episode,
        latency=latency,
        normalization=norm,
    )
    if "nodes" in doc:
        if not isinstance(doc["nodes"], list):
            raise ConfigError("sim.nodes: expected a list")
        kwargs["nodes"] = _nodes_from(doc["nodes"], "sim.nodes")
    if "services" in doc:
        if not isinstance(doc["services"], list):
            raise ConfigError("sim.services: expected a list")
        kwargs["services"] = _services_from(doc["services"], "sim.services")
    return SimConfig(**kwargs)


TOP_LEVEL_KEYS = {
    "algorithm", "episodes", "steps_per_episode", "scenario", "seeds",
    "output_dir", "workload_weights", "basek_mode", "sim", "reward",
    "td3", "dqn",
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate one experiment JSON document.

    Relative trace paths in the scenario resolve against the config file's
    directory so configs stay relocatable.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _reject_unknown("config", doc, TOP_LEVEL_KEYS)

    defaults = ExperimentConfig()
    steps = _expect(doc, "steps_per_episode", int, "config", defaults.steps_per_episode)
    seeds = doc.get("seeds", list(defaults.seeds))
    if not isinstance(seeds, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ConfigError("config.seeds: expected a list of integers")

    scenario = _expect(doc, "scenario", str, "config", defaults.scenario)
    if scenario.startswith(TRACE_PREFIX):
        trace_path = Path(scenario[len(TRACE_PREFIX):])
        if not trace_path.is_absolute():
            trace_path = path.parent / trace_path
        scenario = TRACE_PREFIX + str(trace_path)

    for key in ("sim", "reward", "td3", "dqn"):
        if key in doc and not isinstance(doc[key], dict):
            raise ConfigError(f"config.{key}: expected an object")

    return ExperimentConfig(
        algorithm=_expect(doc, "algorithm", str, "config", defaults.algorithm),
        episodes=_expect(doc, "episodes", int, "config", defaults.episodes),
        steps_per_episode=steps,
        scenario=scenario,
        seeds=tuple(seeds),
        output_dir=_expect(doc, "output_dir", str, "config", defaults.output_dir),
        workload_weights=_expect(doc, "workload_weights", str, "config",
                                 defaults.workload_weights),
        basek_mode=_expect(doc, "basek_mode", str, "config", defaults.basek_mode),
        sim=_sim_from(doc.get("sim", {}), steps),
        reward=_hyper_from(doc.get("reward", {}), "reward", RewardWeights),
        td3=_hyper_from(doc.get("td3", {}), "td3", Td3Hyper),
        dqn=_hyper_from(doc.get("dqn", {}), "dqn", DqnHyper),
    )
