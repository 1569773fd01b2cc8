"""Strict config parsing: defaults, rejection of junk, scenario resolution."""

import json
from dataclasses import fields, replace
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
from edgesched.domain import NodeSpec, ServiceSpec, ValidationError, default_services
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
        assert cfg.sim.l_max == pytest.approx(160.0)

    def test_latency_norm_rule_same_in_code_and_json(self, tmp_path):
        loaded = load_config(write_cfg(tmp_path, {"sim": {"l_target": 100.0}}))
        built = ExperimentConfig(sim=SimConfig(l_target=100.0))
        assert loaded.sim.l_max == built.sim.l_max == 200.0
        assert config_hash(loaded) == config_hash(built)
        # a custom topology hashes alike too: no field is set by the loader alone
        loaded = load_config(write_cfg(tmp_path, {"sim": dict(MINIMAL_TOPOLOGY)}))
        built = ExperimentConfig(sim=SimConfig(
            nodes=[NodeSpec(**MINIMAL_TOPOLOGY["nodes"][0])],
            services=[ServiceSpec(**MINIMAL_TOPOLOGY["services"][0])]))
        assert config_hash(loaded) == config_hash(built)

    @pytest.mark.parametrize("sim,l_max", [
        ({"l_target": 100.0, "q_max": 500.0}, 200.0),
        ({"l_target": 100.0, "l_max": 250.0}, 250.0),
    ], ids=["q_max-beside-l_target", "explicit-l_max"])
    def test_divisors_resolve_alike_in_code_and_json(self, tmp_path, sim, l_max):
        # a q_max given beside l_target once left l_max at 300 when built in Python
        loaded = load_config(write_cfg(tmp_path, {"sim": sim}))
        built = ExperimentConfig(sim=SimConfig(**sim))
        assert loaded.sim.l_max == built.sim.l_max == l_max
        assert loaded.sim.q_max == built.sim.q_max == sim.get("q_max", 400.0)
        assert config_hash(loaded) == config_hash(built)

    def test_null_reads_as_omitted(self, tmp_path):
        # l_max and a node's capacities and latency take their derived defaults
        node = MINIMAL_TOPOLOGY["nodes"][0]
        omitted = dict(MINIMAL_TOPOLOGY, l_target=80.0)
        nulled = dict(omitted, l_max=None, nodes=[dict(
            node, cpu_capacity=None, mem_capacity=None, base_network_latency=None)])
        a = load_config(write_cfg(tmp_path, {"sim": omitted}, "omitted.json"))
        b = load_config(write_cfg(tmp_path, {"sim": nulled}, "nulled.json"))
        assert b == a and config_hash(b) == config_hash(a)
        assert (b.sim.l_max, b.sim.nodes[0].cpu_capacity) == (160.0, 2.0)

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

    @pytest.mark.parametrize("tier,shown", [
        ("fog", "node 0: unknown node tier 'fog'"),
        (["edge"], r"node 0\.tier: expected a string"),
    ], ids=["unknown", "list"])
    def test_bad_node_tier_rejected(self, tmp_path, tier, shown):
        # a list must not reach the tier lookup, where it would raise TypeError
        with pytest.raises(ValidationError, match=shown):
            NodeSpec(0, tier)
        with pytest.raises(ConfigError, match=shown):
            load_config(write_cfg(tmp_path, {"sim": {"nodes": [{"tier": tier}]}}))

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

    @pytest.mark.parametrize("kw", [
        {"episodes": True},
        {"steps_per_episode": True},
        {"seeds": (True,)},
        {"seeds": (0, False)},
    ])
    def test_bools_rejected_where_integers_go(self, kw):
        # True == 1, so only a type check stops it: it would train into manifest_seedTrue.json
        with pytest.raises(ConfigError, match="expected an integer|seeds must be .* integers"):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("cls,kw", [
        (Td3Hyper, {"hidden": True, "batch_size": True, "policy_freq": True}),
        (Td3Hyper, {"policy_freq": True}),
        (Td3Hyper, {"warmup_transitions": False}),
        (Td3Hyper, {"hidden": 64.0}),
        (DqnHyper, {"target_sync_every": True}),
        (DqnHyper, {"epsilon_decay_steps": True}),
        (DqnHyper, {"buffer_capacity": True}),
    ])
    def test_learner_integer_fields_reject_non_integers(self, cls, kw):
        # the JSON loader rejects these too, but a learner built from Python
        # would only fail later, inside the network code
        section = {Td3Hyper: "td3", DqnHyper: "dqn"}[cls]
        with pytest.raises(ValidationError, match=rf"{section}\.\w+: expected an integer"):
            cls(**kw)

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

    # A change to what a shipped config resolves to, or to the hashed form,
    # shows here: manifests store these hashes, so such a change makes earlier
    # runs of the same document read as another experiment.
    @pytest.mark.parametrize("name,digest", [
        ("example.json", "afed08dc69836daa116b77b69286c626a9b3c40194f5287ca0c7f1a79daf693d"),
        ("smoke.json", "8edc11080af6ce460d5ea7c6421cfaed4a37d30103d5c1ef674606e86428012b"),
        (None, "5e5655d625d8ab4ed5f8c64f53fc2a80998d4f0d9b1577f14cef5875f5326c94"),
    ], ids=["example", "smoke", "defaults"])
    def test_shipped_config_hashes_are_pinned(self, name, digest):
        configs = Path(__file__).resolve().parents[1] / "configs"
        config = ExperimentConfig() if name is None else load_config(configs / name)
        assert config_hash(config) == digest


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
              "sim": [cfg.sim, cfg.sim.latency],
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
        # among them the object sim reads flat (latency); normalization, which
        # once held l_max and q_max; and episode_len and service_id, which are
        # derived: the episode length from the rate matrix's rows, a service's
        # id from its list position
        classes = (ExperimentConfig, SimConfig, LatencyModel, NodeSpec, ServiceSpec,
                   RewardWeights, Td3Hyper, DqnHyper)
        names = ({f.name for cls in classes for f in fields(cls)}
                 | {"normalization", "episode_len", "service_id"}) - set(SCHEMA[section])
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


# A valid instance of every config dataclass, and how its errors name it: by
# the JSON section its fields sit in, or a node or service by its id or name.
CONFIG_CLASSES = {
    NodeSpec: (lambda: NodeSpec(0, "edge"), "node .*"),
    ServiceSpec: (lambda: default_services()[0], "service .*"),
    LatencyModel: (LatencyModel, "sim"),
    SimConfig: (SimConfig, "sim"),
    RewardWeights: (RewardWeights, "reward"),
    Td3Hyper: (Td3Hyper, "td3"),
    DqnHyper: (DqnHyper, "dqn"),
    ExperimentConfig: (ExperimentConfig, "config"),
}
# Per scalar annotation, values of the wrong type or outside a float's finite range.
BAD_VALUES = {
    "int": [True, False, "3", 2.0],
    "float": [True, "0.5", float("nan"), float("inf"), float("-inf"), 10 ** 400],
    "bool": [1, 0, "yes"],
    "str": [3, True, None],
}
BAD_VALUES["float | None"] = BAD_VALUES["float"]  # None is filled by the owner, not refused
SCALAR_FIELDS = [(cls, f.name, f.type) for cls in CONFIG_CLASSES for f in fields(cls)
                 if f.type in BAD_VALUES]


class TestFieldTypes:
    """Each config dataclass checks its own scalar fields when it is built,
    however it was built: from JSON, in Python, or by dataclasses.replace."""

    def test_every_class_has_scalar_fields(self):
        assert {cls for cls, _, _ in SCALAR_FIELDS} == set(CONFIG_CLASSES)

    @pytest.mark.parametrize("cls,name,kind", SCALAR_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name, _ in SCALAR_FIELDS])
    def test_wrong_type_or_non_finite_value_rejected(self, cls, name, kind):
        make, section = CONFIG_CLASSES[cls]
        valid = make()
        for bad in BAD_VALUES[kind]:
            with pytest.raises(ValidationError, match=rf"^{section}\.{name}: expected "):
                replace(valid, **{name: bad})

    @pytest.mark.parametrize("cls,name", [(cls, name) for cls, name, kind in SCALAR_FIELDS
                                          if kind in ("float", "float | None")
                                          and getattr(CONFIG_CLASSES[cls][0](), name) % 1 == 0])
    def test_float_spelled_as_int_is_stored_as_float(self, cls, name):
        valid = CONFIG_CLASSES[cls][0]()
        spelled = replace(valid, **{name: int(getattr(valid, name))})
        assert type(getattr(spelled, name)) is float
        assert spelled == valid

    @pytest.mark.parametrize("cls,name", [(cls, name) for cls, name, kind in SCALAR_FIELDS
                                          if kind == "float | None"])
    def test_none_is_filled_with_the_derived_default(self, cls, name):
        # the defaults: l_max twice l_target, a node's capacities from its tier
        valid = CONFIG_CLASSES[cls][0]()
        filled = replace(valid, **{name: None})
        assert type(getattr(filled, name)) is float
        assert filled == valid

    def test_numpy_float64_is_stored_as_float(self):
        weights = RewardWeights(alpha=np.float64(0.25))
        assert type(weights.alpha) is float and weights.alpha == 0.25

    @pytest.mark.parametrize("bad", [np.int64(5), np.float32(0.5)])
    def test_other_numpy_scalars_rejected(self, bad):
        with pytest.raises(ValidationError):
            RewardWeights(alpha=bad)
        with pytest.raises(ValidationError):
            Td3Hyper(batch_size=bad)

    @pytest.mark.parametrize("python,doc", [
        (ExperimentConfig(sim=SimConfig(l_target=150)), {"sim": {"l_target": 150}}),
        (ExperimentConfig(td3=Td3Hyper(tau_decay=500)), {"td3": {"tau_decay": 500}}),
        (ExperimentConfig(reward=RewardWeights(alpha=1)), {"reward": {"alpha": 1}}),
    ], ids=["sim", "td3", "reward"])
    def test_python_built_config_hashes_like_its_json_twin(self, tmp_path, python, doc):
        assert config_hash(python) == config_hash(load_config(write_cfg(tmp_path, doc)))

    def test_int_spelled_default_hashes_like_the_default(self):
        assert (config_hash(ExperimentConfig(sim=SimConfig(l_target=150)))
                == config_hash(ExperimentConfig()))


@pytest.mark.parametrize("make", [
    lambda: Td3Hyper(actor_lr=-0.001), lambda: Td3Hyper(critic_lr=-0.001),
    lambda: Td3Hyper(actor_lr=0.0), lambda: DqnHyper(lr=0), lambda: DqnHyper(lr=-1e-4),
], ids=["td3-actor-negative", "td3-critic-negative", "td3-actor-zero", "dqn-zero",
        "dqn-negative"])
def test_learning_rates_must_be_positive(make):
    # a negative rate is gradient ascent; a zero one trains updates that change nothing
    with pytest.raises(ValidationError, match=r"(actor_lr|critic_lr|\.lr) must be positive"):
        make()
