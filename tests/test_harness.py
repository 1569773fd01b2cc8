"""Run orchestration: artifacts, reproducibility, evaluation, comparison."""

import json

import numpy as np
import pytest

from edgesched import harness
from edgesched.agents import DqnHyper, Td3Agent, Td3Hyper
from edgesched.configio import ExperimentConfig, config_hash
from edgesched.domain import ValidationError
from edgesched.harness import (
    METRICS_HEADER,
    EpisodeRow,
    compare_runs,
    export_csv,
    load_metrics,
    load_run,
    run_evaluation,
    run_training,
    train_one_seed,
)


def tiny_config(**kw):
    """Desk-sized campaign: default topology, minimal network and budget."""
    base = dict(
        episodes=2,
        steps_per_episode=4,
        seeds=(0,),
        td3=Td3Hyper(hidden=8, batch_size=4, warmup_transitions=4,
                     buffer_capacity=256),
        dqn=DqnHyper(hidden=8, batch_size=4, warmup_transitions=4,
                     buffer_capacity=256),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def strip_wall_time(path):
    """CSV text with the wall_time_s column removed from every line."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestMetricsCsv:
    def test_header_is_pinned(self):
        assert METRICS_HEADER == ["episode", "seed", "mean_latency_ms",
                                  "resource_efficiency", "slo_violation_rate",
                                  "total_reward", "wall_time_s"]

    def test_round_trip_is_exact(self, tmp_path):
        rows = [EpisodeRow(0, 3, 123.456789012345, 0.71234, 0.25,
                           -1.3333333333333333, 0.017),
                EpisodeRow(1, 3, 99.0, 0.5, 0.0, 0.1, 0.02)]
        path = tmp_path / "m.csv"
        export_csv(rows, path)
        back = load_metrics(path)
        assert back == rows

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("episode,seed,latency\n0,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            load_metrics(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(METRICS_HEADER) + "\n0,0,1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed"):
            load_metrics(path)


    def test_non_numeric_cell_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(METRICS_HEADER) + "\n0,0,1,1,0,1,1\n1,0,fast,1,0,1,1\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=r"bad\.csv:3: malformed row"):
            load_metrics(path)


class TestTraining:
    def test_artifact_trio_per_seed(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path / "run"))
        out = run_training(cfg)
        for name in ("metrics_seed0.csv", "params_seed0.bin", "manifest_seed0.json"):
            assert (out / name).exists(), name

    def test_metrics_rows_cover_all_episodes(self, tmp_path):
        cfg = tiny_config(episodes=3)
        rows = train_one_seed(cfg, 5, tmp_path)
        assert [r.episode for r in rows] == [0, 1, 2]
        assert all(r.seed == 5 for r in rows)
        back = load_metrics(tmp_path / "metrics_seed5.csv")
        assert back == rows

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_config()
        train_one_seed(cfg, 0, tmp_path)
        doc = json.loads((tmp_path / "manifest_seed0.json").read_text())
        assert doc["status"] == "complete"
        assert doc["algorithm"] == "td3"
        assert doc["scenario"] == "normal_100"
        assert doc["seed"] == 0
        assert doc["config_hash"] == config_hash(cfg)
        assert doc["counters"]["env_steps"] == cfg.episodes * cfg.steps_per_episode
        assert doc["counters"]["critic_updates"] > 0
        assert "numpy" in doc["versions"]

    def test_rows_are_finite_and_sane(self, tmp_path):
        rows = train_one_seed(tiny_config(), 1, tmp_path)
        for r in rows:
            assert np.isfinite([r.mean_latency_ms, r.resource_efficiency,
                                r.slo_violation_rate, r.total_reward]).all()
            assert 0.0 <= r.slo_violation_rate <= 1.0
            assert 0.0 <= r.resource_efficiency <= 1.0
            assert r.mean_latency_ms > 0
            assert r.wall_time_s >= 0

    def test_identical_seed_reproduces_bytes(self, tmp_path):
        cfg = tiny_config()
        train_one_seed(cfg, 7, tmp_path / "a")
        train_one_seed(cfg, 7, tmp_path / "b")
        # all columns except wall-clock must match byte for byte
        assert (strip_wall_time(tmp_path / "a" / "metrics_seed7.csv")
                == strip_wall_time(tmp_path / "b" / "metrics_seed7.csv"))
        assert ((tmp_path / "a" / "params_seed7.bin").read_bytes()
                == (tmp_path / "b" / "params_seed7.bin").read_bytes())

    def test_different_seeds_differ(self, tmp_path):
        cfg = tiny_config()
        r0 = train_one_seed(cfg, 0, tmp_path / "s0")
        r1 = train_one_seed(cfg, 1, tmp_path / "s1")
        assert any(a.mean_latency_ms != b.mean_latency_ms for a, b in zip(r0, r1))

    def test_basek_writes_no_params(self, tmp_path):
        cfg = tiny_config(algorithm="basek")
        train_one_seed(cfg, 0, tmp_path)
        assert (tmp_path / "metrics_seed0.csv").exists()
        assert (tmp_path / "manifest_seed0.json").exists()
        assert not (tmp_path / "params_seed0.bin").exists()

    def test_aborted_run_leaves_exact_manifest(self, tmp_path, monkeypatch):
        # learn() call 7 is the third step of episode 1: 6 finished steps,
        # 2 applied critic updates (batch 4 skips calls 1-4), 1 actor update
        learn = Td3Agent.learn
        calls = []

        def failing_learn(agent, buffer, rng):
            calls.append(1)
            if len(calls) == 7:
                raise ValidationError("injected")
            return learn(agent, buffer, rng)

        monkeypatch.setattr(Td3Agent, "learn", failing_learn)
        with pytest.raises(ValidationError, match="injected"):
            train_one_seed(tiny_config(episodes=3), 0, tmp_path)
        doc = json.loads((tmp_path / "manifest_seed0.json").read_text())
        assert doc["status"] == "aborted"
        assert doc["error"] == "ValidationError: injected"
        counters = doc["counters"]
        assert (counters["env_steps"], counters["critic_updates"],
                counters["actor_updates"]) == (6, 2, 1)
        lines = (tmp_path / "metrics_seed0.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert not (tmp_path / "params_seed0.bin").exists()

    def test_failed_params_write_replaces_complete_manifest(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        manifest = tmp_path / "manifest_seed0.json"
        train_one_seed(cfg, 0, tmp_path)
        assert json.loads(manifest.read_text())["status"] == "complete"

        def full_disk(net, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness, "save_mlp", full_disk)
        with pytest.raises(OSError, match="No space left"):
            train_one_seed(cfg, 0, tmp_path)
        doc = json.loads(manifest.read_text())
        assert doc["status"] == "aborted"
        assert doc["error"] == "OSError: [Errno 28] No space left on device"
        assert doc["counters"]["env_steps"] == cfg.episodes * cfg.steps_per_episode

    @pytest.mark.parametrize("algo", ["ddpg", "dqn"])
    def test_other_learners_complete(self, tmp_path, algo):
        cfg = tiny_config(algorithm=algo)
        rows = train_one_seed(cfg, 0, tmp_path)
        assert len(rows) == cfg.episodes
        assert (tmp_path / "params_seed0.bin").exists()


class TestEvaluation:
    def test_greedy_rollouts_shape(self, tmp_path):
        cfg = tiny_config(seeds=(0, 1))
        out = run_training(tiny_config(output_dir=str(tmp_path / "run")))
        rows = run_evaluation(cfg, out / "params_seed0.bin", episodes=3)
        assert len(rows) == 3 * 2
        assert sorted({r.seed for r in rows}) == [0, 1]

    def test_eval_is_deterministic(self, tmp_path):
        out = run_training(tiny_config(output_dir=str(tmp_path / "run")))
        cfg = tiny_config()
        a = run_evaluation(cfg, out / "params_seed0.bin", episodes=2)
        b = run_evaluation(cfg, out / "params_seed0.bin", episodes=2)
        for x, y in zip(a, b):
            assert (x.mean_latency_ms, x.resource_efficiency,
                    x.slo_violation_rate, x.total_reward) == \
                   (y.mean_latency_ms, y.resource_efficiency,
                    y.slo_violation_rate, y.total_reward)

    def test_learner_requires_params(self):
        with pytest.raises(ValidationError, match="parameter file"):
            run_evaluation(tiny_config(), None, episodes=1)

    def test_basek_needs_no_params(self):
        rows = run_evaluation(tiny_config(algorithm="basek"), None, episodes=1)
        assert len(rows) == 1

    def test_bad_episode_count(self):
        with pytest.raises(ValidationError):
            run_evaluation(tiny_config(algorithm="basek"), None, episodes=0)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    td3_dir = root / "td3_run"
    basek_dir = root / "basek_run"
    run_training(tiny_config(output_dir=str(td3_dir), seeds=(0, 1)))
    run_training(tiny_config(algorithm="basek", output_dir=str(basek_dir),
                             seeds=(0, 1)))
    return td3_dir, basek_dir


def copy_run(run_dir, dest):
    dest.mkdir()
    for f in run_dir.iterdir():
        (dest / f.name).write_bytes(f.read_bytes())
    return dest


class TestComparison:
    def test_load_run_summary(self, two_runs):
        td3_dir, _ = two_runs
        summary = load_run(td3_dir)
        assert summary.algorithm == "td3"
        assert summary.scenario == "normal_100"
        assert summary.seeds == (0, 1)
        assert {len(v) for v in summary.by_seed.values()} == {2}
        assert "td3" in summary.label

    def test_load_run_requires_manifests(self, tmp_path):
        with pytest.raises(ValidationError, match="manifest"):
            load_run(tmp_path)

    def test_load_run_rejects_aborted(self, tmp_path, two_runs):
        clone = copy_run(two_runs[0], tmp_path / "clone")
        doc = json.loads((clone / "manifest_seed0.json").read_text())
        doc["status"] = "aborted"
        (clone / "manifest_seed0.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="not complete"):
            load_run(clone)

    @pytest.mark.parametrize("key", ["algorithm", "scenario", "seed"])
    def test_load_run_rejects_manifest_without_key(self, tmp_path, two_runs, key):
        clone = copy_run(two_runs[0], tmp_path / "clone")
        doc = json.loads((clone / "manifest_seed0.json").read_text())
        del doc[key]
        (clone / "manifest_seed0.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError,
                           match=rf"manifest_seed0\.json: manifest lacks \['{key}'\]"):
            load_run(clone)

    def test_compare_needs_two_runs(self, two_runs):
        with pytest.raises(ValidationError, match="two run directories"):
            compare_runs([two_runs[0]])

    def test_compare_refuses_mixed_scenarios(self, tmp_path, two_runs):
        other = tmp_path / "high"
        run_training(tiny_config(scenario="high_300", output_dir=str(other)))
        with pytest.raises(ValidationError, match="different scenarios"):
            compare_runs([two_runs[0], other])

    def test_report_table(self, two_runs):
        report = compare_runs(list(two_runs), last_k=1)
        text = report.table_text()
        assert "scenario: normal_100" in text
        assert "mean_latency_ms" in text and "slo_violation_rate" in text
        assert "td3" in text and "basek" in text
        assert "last-1" in text

    def test_curve_rows_layout(self, two_runs):
        report = compare_runs(list(two_runs))
        rows = report.curve_rows()
        assert rows[0] == ["run", "algorithm", "metric", "episode", "mean"]
        # 2 runs x 4 metrics x 2 episodes, plus the header
        assert len(rows) == 1 + 2 * 4 * 2
        assert {r[1] for r in rows[1:]} == {"td3", "basek"}
        for row in rows[1:]:
            float(row[4])

    def test_write_curves_round_trip(self, two_runs, tmp_path):
        report = compare_runs(list(two_runs))
        path = tmp_path / "curves.csv"
        report.write_curves(path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "run,algorithm,metric,episode,mean"
        assert len(lines) == len(report.curve_rows())
