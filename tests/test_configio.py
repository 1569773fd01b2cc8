"""Strict config parsing: defaults, rejection of junk, scenario resolution."""

import json

import numpy as np
import pytest

from edgesched.configio import (
    SCENARIO_PRESETS,
    ConfigError,
    ExperimentConfig,
    build_workload,
    config_hash,
    load_config,
)
from edgesched.domain import ValidationError
from edgesched.workload import TraceRecord, qps_at, write_trace


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
        assert cfg.sim.episode_len == 7
        # and directly constructed configs resync too
        direct = ExperimentConfig(steps_per_episode=9)
        assert direct.sim.episode_len == 9

    def test_latency_norm_defaults_to_twice_target(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"sim": {"l_target": 80.0}}))
        assert cfg.sim.normalization.l_max == pytest.approx(160.0)

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
        with pytest.raises(FileNotFoundError):
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
