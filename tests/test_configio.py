"""Strict config parsing: defaults, rejection of junk, scenario resolution."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from edgesched.configio import (
    MAX_STEPS_PER_EPISODE,
    SCENARIO_PRESETS,
    ConfigError,
    ExperimentConfig,
    build_workload,
    config_hash,
    load_config,
)
from edgesched.agents import DqnHyper, Td3Hyper
from edgesched.domain import (NodeSpec, NormalizationConfig, ServiceSpec, ValidationError,
                              make_node)
from edgesched.rewards import RewardWeights
from edgesched.simulator import ClusterSim, LatencyModel, SimConfig
from edgesched.workload import TraceParseError, TraceRecord, qps_at, write_trace


def write_cfg(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


MINIMAL_TOPOLOGY = {
    "nodes": [{"node_id": 0, "tier": "edge"}],
    "services": [{
        "name": "solo", "home_node": 0, "cpu_cost_per_request": 0.01,
        "mem_floor": 128.0, "mem_per_qps": 2.0,
        "initial_cpu_request": 0.5, "initial_mem_request": 256.0,
    }],
}


class TestDefaultsAndOverrides:
    def test_empty_document_gives_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {}))
        assert cfg.algorithm == "td3"
        assert cfg.episodes == 50
        assert cfg.steps_per_episode == 20
        assert cfg.scenario == "normal_100"
        assert cfg.seeds == (0, 1, 2, 3)
        assert cfg.td3.gamma == 0.99
        assert cfg.reward.alpha == 0.5

    def test_overrides_reach_every_section(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "algorithm": "dqn",
            "episodes": 3,
            "steps_per_episode": 5,
            "scenario": "high_300",
            "seeds": [7],
            "workload_weights": "front_heavy",
            "sim": {"l_target": 100.0, "jitter_sigma": 0.0},
            "reward": {"alpha": 0.25},
            "td3": {"hidden": 32, "policy_freq": 3},
            "dqn": {"levels": 5},
        }))
        assert cfg.algorithm == "dqn"
        assert (cfg.episodes, cfg.steps_per_episode) == (3, 5)
        assert cfg.seeds == (7,)
        assert cfg.sim.l_target == 100.0
        assert cfg.sim.latency.jitter_sigma == 0.0
        assert cfg.reward.alpha == 0.25
        assert cfg.td3.hidden == 32 and cfg.td3.policy_freq == 3
        assert cfg.dqn.levels == 5

    def test_episode_len_follows_steps(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {
            "steps_per_episode": 7, "sim": {"l_target": 200.0}}))
        assert ClusterSim(cfg.sim, build_workload(cfg)).episode_len == 7
        # and directly constructed configs too
        direct = ExperimentConfig(steps_per_episode=9)
        assert ClusterSim(direct.sim, build_workload(direct)).episode_len == 9

    def test_latency_norm_defaults_to_twice_target(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"sim": {"l_target": 80.0}}))
        assert cfg.sim.normalization.l_max == pytest.approx(160.0)

    def test_latency_norm_rule_same_in_code_and_json(self, tmp_path):
        loaded = load_config(write_cfg(tmp_path, {"sim": {"l_target": 100.0}}))
        built = ExperimentConfig(sim=SimConfig(l_target=100.0))
        assert loaded.sim.normalization.l_max == built.sim.normalization.l_max == 200.0
        assert config_hash(loaded) == config_hash(built)
        # a custom topology hashes alike too: no field is set by the loader alone
        loaded = load_config(write_cfg(tmp_path, {"sim": dict(MINIMAL_TOPOLOGY)}))
        built = ExperimentConfig(sim=SimConfig(
            nodes=[make_node(**MINIMAL_TOPOLOGY["nodes"][0])],
            services=[ServiceSpec(**MINIMAL_TOPOLOGY["services"][0])]))
        assert config_hash(loaded) == config_hash(built)

    def test_custom_topology(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"sim": dict(MINIMAL_TOPOLOGY)}))
        assert cfg.sim.n_services == 1
        assert cfg.sim.services[0].name == "solo"
        assert cfg.sim.nodes[0].cpu_capacity == 2.0  # edge-tier default


class TestRejection:
    @pytest.mark.parametrize("doc,needle", [
        ({"episodez": 3}, "episodez"),
        ({"sim": {"l_tgt": 5.0}}, "l_tgt"),
        ({"reward": {"alpha": 0.5, "delta": 0.1}}, "delta"),
        ({"td3": {"learning_rate": 0.001}}, "learning_rate"),
        ({"dqn": {"eps": 0.1}}, "eps"),
        ({"sim": {"seed": 3}}, "seed"),
    ])
    def test_unknown_keys_fail_loudly(self, tmp_path, doc, needle):
        with pytest.raises(ConfigError, match=needle):
            load_config(write_cfg(tmp_path, doc))

    def test_steps_per_episode_capped_at_named_limit(self, tmp_path):
        capped = ExperimentConfig(steps_per_episode=MAX_STEPS_PER_EPISODE)
        assert build_workload(capped).shape == (MAX_STEPS_PER_EPISODE + 1, capped.sim.n_services)
        with pytest.raises(ConfigError, match="steps_per_episode"):
            load_config(write_cfg(tmp_path, {"steps_per_episode": MAX_STEPS_PER_EPISODE + 1}))

    def test_unknown_keys_in_topology_entries(self, tmp_path):
        doc = {"sim": {"nodes": [{"node_id": 0, "tier": "edge", "gpus": 4}]}}
        with pytest.raises(ConfigError, match="gpus"):
            load_config(write_cfg(tmp_path, doc))

    def test_missing_service_fields_named(self, tmp_path):
        svc = dict(MINIMAL_TOPOLOGY["services"][0])
        del svc["mem_floor"]
        doc = {"sim": {"nodes": MINIMAL_TOPOLOGY["nodes"], "services": [svc]}}
        with pytest.raises(ConfigError, match="mem_floor"):
            load_config(write_cfg(tmp_path, doc))

    @pytest.mark.parametrize("doc", [
        {"episodes": True},
        {"episodes": "50"},
        {"episodes": 2.5},
        {"seeds": [0, True]},
        {"seeds": 3},
        {"scenario": 42},
        {"sim": {"l_target": "high"}},
        {"sim": []},
        {"td3": {"gamma": True}},
    ])
    def test_wrong_types_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, doc))

    @pytest.mark.parametrize("doc", [
        {"algorithm": "ppo"},
        {"scenario": "low_50"},
        {"workload_weights": "zipf"},
        {"basek_mode": "pid"},
        {"episodes": 0},
        {"seeds": []},
        {"seeds": [-1]},
    ])
    def test_bad_values_rejected(self, tmp_path, doc):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, doc))

    @pytest.mark.parametrize("doc,where", [
        ({"reward": {"alpha": float("nan")}}, "reward.alpha"),
        ({"td3": {"actor_lr": float("inf")}}, "td3.actor_lr"),
        ({"sim": {"l_target": float("inf")}}, "sim.l_target"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, doc, where):
        # json writes and reads NaN / Infinity, so only the loader can stop them
        path = write_cfg(tmp_path, doc)
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ConfigError, match=rf"{where}: expected a finite number"):
            load_config(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        # a 401-digit literal parses to a Python int that no float can hold
        path = write_cfg(tmp_path, {"sim": {"l_target": 10 ** 400}})
        with pytest.raises(ConfigError, match=r"sim\.l_target: expected a finite number"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_service_on_unknown_node(self, tmp_path):
        svc = dict(MINIMAL_TOPOLOGY["services"][0], home_node=9)
        doc = {"sim": {"nodes": MINIMAL_TOPOLOGY["nodes"], "services": [svc]}}
        with pytest.raises(ValidationError, match="unknown node"):
            load_config(write_cfg(tmp_path, doc))


class TestScenarios:
    @pytest.mark.parametrize("name,rate", sorted(SCENARIO_PRESETS.items()))
    def test_preset_aggregate_rate(self, tmp_path, name, rate):
        cfg = load_config(write_cfg(tmp_path, {"scenario": name}))
        source = build_workload(cfg)
        demand = qps_at(source, 0)
        assert demand.sum() == pytest.approx(rate)
        assert demand.shape == (cfg.sim.n_services,)

    def test_front_heavy_weights_shape_demand(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"workload_weights": "front_heavy"}))
        demand = qps_at(build_workload(cfg), 0)
        w0 = (1 - 0.7) / (1 - 0.7 ** 8)  # geometric split, first share
        assert demand[0] == pytest.approx(w0 * 100.0, rel=1e-9)
        assert np.all(np.diff(demand) < 0)

    def test_trace_path_resolves_against_config_dir(self, tmp_path):
        sub = tmp_path / "cfgs"
        sub.mkdir()
        records = [TraceRecord(step_index=s, service_id=i, qps=float(10 + s + i))
                   for s in range(3) for i in range(8)]
        write_trace(records, sub / "demand.csv")
        cfg = load_config(write_cfg(sub, {"scenario": "trace:demand.csv"}))
        assert cfg.scenario == f"trace:{sub / 'demand.csv'}"
        demand = qps_at(build_workload(cfg), 1)
        np.testing.assert_allclose(demand, [11 + i for i in range(8)])

    def test_absolute_trace_path_untouched(self, tmp_path):
        records = [TraceRecord(step_index=0, service_id=i, qps=5.0) for i in range(8)]
        trace = tmp_path / "abs.csv"
        write_trace(records, trace)
        cfg = load_config(write_cfg(tmp_path, {"scenario": f"trace:{trace}"}))
        assert cfg.scenario == f"trace:{trace}"

    def test_missing_trace_fails_at_build(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"scenario": "trace:nowhere.csv"}))
        with pytest.raises(TraceParseError, match="nowhere.csv: No such file"):
            build_workload(cfg)


class TestHashing:
    def test_hash_is_stable_and_hex(self, tmp_path):
        path = write_cfg(tmp_path, {"episodes": 4})
        h1 = config_hash(load_config(path))
        h2 = config_hash(load_config(path))
        assert h1 == h2
        assert len(h1) == 64 and set(h1) <= set("0123456789abcdef")

    def test_hash_reflects_every_field(self, tmp_path):
        base = config_hash(load_config(write_cfg(tmp_path, {})))
        for doc in ({"episodes": 51}, {"td3": {"tau": 0.01}},
                    {"reward": {"beta": 0.2}}, {"scenario": "high_300"},
                    {"sim": {"jitter_sigma": 0.05}}):
            other = config_hash(load_config(write_cfg(tmp_path, doc, "o.json")))
            assert other != base

    def test_hash_ignores_document_key_order(self, tmp_path):
        a = write_cfg(tmp_path, {"episodes": 9, "algorithm": "ddpg"}, "a.json")
        b = write_cfg(tmp_path, {"algorithm": "ddpg", "episodes": 9}, "b.json")
        assert config_hash(load_config(a)) == config_hash(load_config(b))


# Every key the loader accepts, section by section, each with a valid value
# that is not its default. A key missing here, or one the loader accepts
# beyond these, means the schema changed.
SCHEMA = {
    "config": {
        "algorithm": "ddpg", "episodes": 3, "steps_per_episode": 5,
        "scenario": "high_300", "seeds": [7, 8], "output_dir": "runs/schema",
        "workload_weights": "front_heavy", "basek_mode": "threshold",
        "sim": {}, "reward": {}, "td3": {}, "dqn": {},
    },
    "sim": {
        "l_target": 100.0, "base_service_ms": 25.0, "saturation_cap_ms": 900.0,
        "mem_pressure_multiplier": 3.0, "jitter_sigma": 0.05, "l_max": 250.0,
        "q_max": 500.0, "nodes": [], "services": [],
    },
    "node": {
        "node_id": 5, "tier": "cloud", "cpu_capacity": 6.0, "mem_capacity": 8192.0,
        "base_network_latency": 30.0,
    },
    "service": {
        "name": "api", "home_node": 5, "cpu_cost_per_request": 0.02, "mem_floor": 100.0,
        "mem_per_qps": 1.5, "initial_cpu_request": 0.7, "initial_mem_request": 300.0,
    },
    "reward": {
        "alpha": 0.4, "beta": 0.2, "lam": 0.3, "mu": 0.05,
        "normalize_latency_excess": False,
    },
    "td3": {
        "gamma": 0.95, "tau": 0.01, "policy_freq": 3, "smoothing_sigma": 0.1,
        "smoothing_clip": 0.4, "sigma_init": 0.2, "tau_decay": 500.0, "batch_size": 32,
        "warmup_transitions": 100, "hidden": 64, "actor_lr": 1e-3, "critic_lr": 2e-3,
        "buffer_capacity": 5000,
    },
    "dqn": {
        "gamma": 0.9, "levels": 5, "epsilon_start": 0.9, "epsilon_end": 0.1,
        "epsilon_decay_steps": 300, "target_sync_every": 50, "batch_size": 16,
        "warmup_transitions": 50, "hidden": 32, "lr": 1e-3, "buffer_capacity": 2000,
    },
}


def schema_document():
    """One document that sets every key of SCHEMA, nested where it belongs."""
    doc = dict(SCHEMA["config"])
    for section in ("sim", "reward", "td3", "dqn"):
        doc[section] = dict(SCHEMA[section])
    doc["sim"]["nodes"] = [dict(SCHEMA["node"])]
    doc["sim"]["services"] = [dict(SCHEMA["service"])]
    return doc


def section_of(doc, section):
    """The JSON object of `doc` that holds the keys of `section`."""
    if section in ("node", "service"):
        return doc["sim"][section + "s"][0]
    return doc if section == "config" else doc[section]


def field_of(cfg, section, key):
    owners = {"config": [cfg], "node": [cfg.sim.nodes[0]], "service": [cfg.sim.services[0]],
              "sim": [cfg.sim, cfg.sim.latency, cfg.sim.normalization],
              "reward": [cfg.reward], "td3": [cfg.td3], "dqn": [cfg.dqn]}[section]
    return getattr(next(o for o in owners if hasattr(o, key)), key)


SCALAR_KEYS = [(section, key) for section, keys in SCHEMA.items()
               for key, value in keys.items() if not isinstance(value, (dict, list))]


class TestSchema:
    def test_every_key_reaches_its_field(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, schema_document()))
        default = load_config(write_cfg(tmp_path, {}, "default.json"))
        assert field_of(cfg, "config", "seeds") == (7, 8)
        for section, key in SCALAR_KEYS:
            value = SCHEMA[section][key]
            assert field_of(cfg, section, key) == value, (section, key)
            assert field_of(default, section, key) != value, (section, key)

    @pytest.mark.parametrize("section,key", [(s, k) for s in SCHEMA for k in SCHEMA[s]])
    def test_key_with_one_letter_changed_is_rejected(self, tmp_path, section, key):
        typo = key[:-1] + ("x" if key[-1] != "x" else "y")
        doc = schema_document()
        section_of(doc, section)[typo] = SCHEMA[section][key]
        with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{typo}'\]"):
            load_config(write_cfg(tmp_path, doc))

    @pytest.mark.parametrize("section", sorted(SCHEMA))
    def test_other_field_names_are_rejected(self, tmp_path, section):
        # among them the objects sim reads flat (latency, normalization), and
        # episode_len and service_id, which are derived: the episode length from
        # the rate matrix's rows, a service's id from its list position
        classes = (ExperimentConfig, SimConfig, LatencyModel, NormalizationConfig, NodeSpec,
                   ServiceSpec, RewardWeights, Td3Hyper, DqnHyper)
        names = ({f.name for cls in classes for f in fields(cls)}
                 | {"episode_len", "service_id"}) - set(SCHEMA[section])
        for name in sorted(names):
            doc = schema_document()
            section_of(doc, section)[name] = 1
            with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{name}'\]"):
                load_config(write_cfg(tmp_path, doc))

    def test_example_config_names_every_scalar_key(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "example.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        load_config(path)
        missing = [(section, key) for section, key in SCALAR_KEYS
                   if section not in ("node", "service") and key not in section_of(doc, section)]
        assert missing == []


@pytest.mark.parametrize("section", ["td3", "dqn"])
@pytest.mark.parametrize("capacity", [32, 64])
def test_buffer_no_larger_than_batch_rejected(tmp_path, section, capacity):
    # learn() waits for more than a batch, so such a buffer would never learn
    doc = {section: {"batch_size": 64, "buffer_capacity": capacity}}
    with pytest.raises(ConfigError, match="buffer_capacity"):
        load_config(write_cfg(tmp_path, doc))
