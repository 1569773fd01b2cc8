"""End-to-end command-line checks. The subcommands run in-process via main();
the entry-point checks start the checkout under test in a subprocess."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgesched
from edgesched.cli import main
from edgesched.harness import METRICS_HEADER
from edgesched.nets import load_mlp, save_mlp
from edgesched.workload import load_trace

SMOKE = {
    "episodes": 2,
    "steps_per_episode": 4,
    "seeds": [0],
    "td3": {"hidden": 8, "batch_size": 4, "warmup_transitions": 4},
    "dqn": {"hidden": 8, "batch_size": 4, "warmup_transitions": 4},
}

# The src directory of the package this suite imported, so that subprocesses
# run the same checkout whatever directory pytest was started from.
SRC_DIR = Path(edgesched.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def smoke_cfg(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(SMOKE), encoding="utf-8")
    return path


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_train_writes_artifacts(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(
            ["train", "--config", smoke_cfg, "--algo", "td3", "--out", out], capsys)
        assert code == 0, stderr
        assert "trained td3" in stdout
        for name in ("metrics_seed0.csv", "params_seed0.bin", "manifest_seed0.json"):
            assert (out / name).exists()

    def test_seed_flag_narrows_campaign(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(["train", "--config", smoke_cfg, "--algo", "basek",
                              "--seed", 5, "--out", out], capsys)
        assert code == 0
        assert (out / "metrics_seed5.csv").exists()
        assert not (out / "metrics_seed0.csv").exists()

    def test_seed_listed_twice_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "twice.json"
        cfg.write_text(json.dumps(dict(SMOKE, seeds=[0, 0])), encoding="utf-8")
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(["train", "--config", cfg, "--algo", "td3",
                                        "--out", out], capsys)
        assert code == 2 and stdout == ""
        assert stderr == f"error: {out.resolve()}: seed 0 is listed twice for this directory\n"
        assert not out.exists()

    def test_algo_flag_is_validated_by_argparse(self, smoke_cfg, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(smoke_cfg), "--algo", "a2c"])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"episodez": 1}), encoding="utf-8")
        code, _, stderr = run_cli(["train", "--config", bad, "--algo", "td3"], capsys)
        assert code == 2
        assert stderr.startswith("error: ")
        assert "episodez" in stderr

    def test_non_finite_config_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"reward": {"alpha": NaN}}', encoding="utf-8")
        out = tmp_path / "run"
        code, _, stderr = run_cli(
            ["train", "--config", bad, "--algo", "basek", "--out", out], capsys)
        assert code == 2
        assert stderr.startswith("error: ")
        assert "reward.alpha" in stderr
        assert not out.exists()

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "big.json"
        bad.write_text('{"sim": {"l_target": 1' + "0" * 400 + "}}", encoding="utf-8")
        code, _, stderr = run_cli(
            ["train", "--config", bad, "--algo", "basek", "--out", tmp_path / "run"], capsys)
        assert code == 2
        assert stderr.startswith("error: sim.l_target: expected a finite number")
        assert stderr.count("\n") == 1

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff{")
        code, _, stderr = run_cli(
            ["train", "--config", bad, "--algo", "basek", "--out", tmp_path / "run"], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: invalid JSON")
        assert stderr.count("\n") == 1

    def test_integer_over_digit_limit_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "long.json"
        bad.write_text('{"episodes": ' + "7" * 5000 + "}", encoding="utf-8")
        code, _, stderr = run_cli(
            ["train", "--config", bad, "--algo", "basek", "--out", tmp_path / "run"], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: invalid JSON (Exceeds the limit (4300 digits)")
        assert stderr.count("\n") == 1

    def test_non_utf8_trace_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "demand.csv"
        trace.write_bytes(b"step_index,service_id,qps\n0,0,\xff\n")
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(dict(SMOKE, scenario="trace:demand.csv")), encoding="utf-8")
        code, _, stderr = run_cli(
            ["train", "--config", cfg, "--algo", "basek", "--out", tmp_path / "run"], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {trace}: not UTF-8 text at byte 30")
        assert stderr.count("\n") == 1

    def test_null_byte_in_trace_path_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(dict(SMOKE, scenario="trace:a\u0000b")), encoding="utf-8")
        code, _, stderr = run_cli(
            ["train", "--config", cfg, "--algo", "basek", "--out", tmp_path / "run"], capsys)
        path = str(tmp_path / "a\0b")
        assert code == 2
        assert stderr == f"error: {path!r}: embedded null byte\n"

    @pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                              ("directory", "Is a directory")],
                             ids=["missing", "directory"])
    def test_unreadable_trace_exits_2(self, tmp_path, capsys, kind, reason):
        trace = tmp_path / "demand.csv"
        if kind == "directory":
            trace.mkdir()
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(dict(SMOKE, scenario="trace:demand.csv")), encoding="utf-8")
        code, _, stderr = run_cli(
            ["train", "--config", cfg, "--algo", "basek", "--out", tmp_path / "run"], capsys)
        assert code == 2
        assert stderr == f"error: {trace}: {reason}\n"

    def test_oversized_trace_cell_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "demand.csv"
        trace.write_text("step,service,qps\n0,0," + "1" * 131073 + "\n", encoding="utf-8")
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(dict(SMOKE, scenario="trace:demand.csv")), encoding="utf-8")
        code, _, stderr = run_cli(
            ["train", "--config", cfg, "--algo", "basek", "--out", tmp_path / "run"], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {trace}:2: field larger than field limit")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("steps", [10**9, 10**30])
    def test_steps_per_episode_over_limit_exits_2(self, tmp_path, capsys, steps):
        # 10**30 used to overflow in build_workload; 10**9 asked for 10**9 rate rows
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps(dict(SMOKE, steps_per_episode=steps)), encoding="utf-8")
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(
            ["train", "--config", cfg, "--algo", "basek", "--out", out], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: steps_per_episode must be <= ")
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["train", "--config", tmp_path / "none.json", "--algo", "td3"], capsys)
        assert code == 2
        assert stderr.startswith("error: ")


class TestEval:
    def test_eval_prints_metrics_csv(self, smoke_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(["train", "--config", smoke_cfg, "--algo", "td3", "--out", out], capsys)
        code, stdout, stderr = run_cli(
            ["eval", "--config", smoke_cfg, "--params", out / "params_seed0.bin",
             "--episodes", 3], capsys)
        assert code == 0, stderr
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == METRICS_HEADER
        assert len(rows) == 1 + 3  # one configured seed x 3 episodes
        for row in rows[1:]:
            assert np.isfinite([float(v) for v in row[2:]]).all()

    def test_eval_baseline_without_params(self, tmp_path, capsys):
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(dict(SMOKE, algorithm="basek")), encoding="utf-8")
        code, stdout, _ = run_cli(["eval", "--config", cfg, "--episodes", 1], capsys)
        assert code == 0
        assert stdout.splitlines()[0] == ",".join(METRICS_HEADER)

    def test_seed_flag_narrows_evaluation(self, tmp_path, capsys):
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(dict(SMOKE, algorithm="basek", seeds=[0, 1])),
                       encoding="utf-8")
        code, stdout, stderr = run_cli(
            ["eval", "--config", cfg, "--episodes", 2, "--seed", 3], capsys)
        assert code == 0, stderr
        rows = list(csv.reader(io.StringIO(stdout)))
        assert [(row[0], row[1]) for row in rows[1:]] == [("0", "3"), ("1", "3")]

    def test_eval_learner_without_params_exits_2(self, smoke_cfg, capsys):
        code, _, stderr = run_cli(
            ["eval", "--config", smoke_cfg, "--episodes", 1], capsys)
        assert code == 2
        assert "parameter file" in stderr

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps(dict(SMOKE, algorithm="basek")), encoding="utf-8")
        code, stdout, stderr = run_cli(
            ["eval", "--config", cfg, "--episodes", 1, "--seed", -1], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr == "error: seeds must be non-negative integers\n"

    @pytest.mark.parametrize("steps", [10**9, 10**30])
    def test_steps_per_episode_over_limit_exits_2(self, tmp_path, capsys, steps):
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps(dict(SMOKE, algorithm="basek", steps_per_episode=steps)),
                       encoding="utf-8")
        code, stdout, stderr = run_cli(["eval", "--config", cfg, "--episodes", 1], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: steps_per_episode must be <= ")
        assert stderr.count("\n") == 1

    def test_missing_params_file_exits_2(self, smoke_cfg, tmp_path, capsys):
        params = tmp_path / "absent.bin"
        code, stdout, stderr = run_cli(
            ["eval", "--config", smoke_cfg, "--params", params, "--episodes", 1], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {params}: No such file or directory\n"

    def test_eval_non_finite_params_exits_2(self, tmp_path, capsys):
        # argmax over NaN Q-values would quietly pick level 0 every step
        cfg = tmp_path / "dqn.json"
        cfg.write_text(json.dumps(dict(SMOKE, algorithm="dqn")), encoding="utf-8")
        out = tmp_path / "run"
        run_cli(["train", "--config", cfg, "--algo", "dqn", "--out", out], capsys)
        params = out / "params_seed0.bin"
        net = load_mlp(params)
        net.flat[...] = np.nan
        save_mlp(net, params)
        code, stdout, stderr = run_cli(
            ["eval", "--config", cfg, "--params", params, "--episodes", 1], capsys)
        assert code == 2
        assert stdout == ""
        assert "non-finite parameter values" in stderr


class TestCompare:
    def test_compare_two_runs(self, smoke_cfg, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["train", "--config", smoke_cfg, "--algo", "td3", "--out", a], capsys)
        run_cli(["train", "--config", smoke_cfg, "--algo", "basek", "--out", b], capsys)
        curves = tmp_path / "curves.csv"
        code, stdout, stderr = run_cli(
            ["compare", "--runs", a, b, "--out", curves], capsys)
        assert code == 0, stderr
        assert "scenario: normal_100" in stdout
        assert "td3" in stdout and "basek" in stdout
        assert "mean_latency_ms" in stdout
        lines = curves.read_text().strip().splitlines()
        assert lines[0] == "run,algorithm,metric,episode,mean"
        assert len(lines) > 1

    def _two_basek_runs(self, smoke_cfg, tmp_path, capsys):
        runs = tmp_path / "a", tmp_path / "b"
        for run in runs:
            run_cli(["train", "--config", smoke_cfg, "--algo", "basek", "--out", run], capsys)
        return runs

    def test_non_numeric_metrics_cell_exits_2(self, smoke_cfg, tmp_path, capsys):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        metrics = a / "metrics_seed0.csv"
        lines = metrics.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace(",", ",x", 1)
        metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {metrics}:3: malformed row")
        assert stderr.count("\n") == 1

    def test_manifest_without_algorithm_exits_2(self, smoke_cfg, tmp_path, capsys):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        manifest = b / "manifest_seed0.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        del doc["algorithm"]
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        code, _, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stderr == f"error: {manifest}: manifest lacks ['algorithm']\n"

    @pytest.mark.parametrize("data,why", [(b"{", "is not valid JSON"),
                                          (b"[]", "is not a JSON object"),
                                          (b"\xff{", "is not valid JSON")],
                             ids=["truncated", "list", "not-utf8"])
    def test_unreadable_manifest_exits_2(self, smoke_cfg, tmp_path, capsys, data, why):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        manifest = b / "manifest_seed0.json"
        manifest.write_bytes(data)
        code, _, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {manifest}: manifest {why}")
        assert stderr.count("\n") == 1

    def test_non_finite_metrics_cell_exits_2(self, smoke_cfg, tmp_path, capsys):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        metrics = a / "metrics_seed0.csv"
        lines = metrics.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[METRICS_HEADER.index("mean_latency_ms")] = "nan"
        lines[2] = ",".join(cells)
        metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {metrics}:3: non-finite value")
        assert stderr.count("\n") == 1

    def test_oversized_metrics_cell_exits_2(self, smoke_cfg, tmp_path, capsys):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        metrics = a / "metrics_seed0.csv"
        lines = metrics.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[METRICS_HEADER.index("mean_latency_ms")] = "1" * 131073
        lines[2] = ",".join(cells)
        metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {metrics}:3: field larger than field limit")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("name,key,value,shown", [
        ("manifest_seed1.json", "seed", "1", "seed must be an integer, got '1'"),
        ("manifest_seed0.json", "scenario", ["normal_100"],
         "algorithm and scenario must be strings"),
        ("manifest_seed0.json", "seed", [0], "seed must be an integer, got [0]"),
        ("manifest_seed0.json", "seed", 7, "seed 7 differs from its file name"),
    ], ids=["string-seed-beside-int", "list-scenario", "list-seed", "seed-not-file-seed"])
    def test_mistyped_manifest_field_exits_2(self, smoke_cfg, tmp_path, capsys,
                                             name, key, value, shown):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        doc = json.loads((b / "manifest_seed0.json").read_text(encoding="utf-8"))
        doc[key] = value
        manifest = b / name
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copy(b / "metrics_seed0.csv", b / "metrics_seed1.csv")
        code, _, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stderr == f"error: {manifest}: manifest {shown}\n"

    @pytest.mark.parametrize("edit,shown", [
        (lambda lines: lines[:1], "0 episode rows, manifest says 2"),
        (lambda lines: lines[:2], "1 episode rows, manifest says 2"),
        (lambda lines: [*lines[:2], lines[2].replace("1,0,", "1,3,", 1)],
         "row 1 is episode 1 of seed 3, expected episode 1 of seed 0"),
    ], ids=["header-only", "dropped-row", "wrong-seed"])
    def test_metrics_unlike_manifest_exits_2(self, smoke_cfg, tmp_path, capsys, edit, shown):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        metrics = a / "metrics_seed0.csv"
        lines = edit(metrics.read_text(encoding="utf-8").splitlines())
        metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {metrics}: {shown}\n"

    def test_non_utf8_metrics_exits_2(self, smoke_cfg, tmp_path, capsys):
        a, b = self._two_basek_runs(smoke_cfg, tmp_path, capsys)
        metrics = a / "metrics_seed0.csv"
        metrics.write_bytes(metrics.read_bytes() + b"\xff\n")
        code, stdout, stderr = run_cli(["compare", "--runs", a, b], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {metrics}: not UTF-8 text")
        assert stderr.count("\n") == 1

    def test_compare_single_run_exits_2(self, smoke_cfg, tmp_path, capsys):
        a = tmp_path / "a"
        run_cli(["train", "--config", smoke_cfg, "--algo", "basek", "--out", a], capsys)
        code, _, stderr = run_cli(["compare", "--runs", a], capsys)
        assert code == 2
        assert stderr.startswith("error: ")


class TestGenTrace:
    def test_constant_trace(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, stdout, _ = run_cli(
            ["gen-trace", "--kind", "constant", "--out", out, "--steps", 6,
             "--services", 4, "--rate", 80.0], capsys)
        assert code == 0
        assert "wrote" in stdout
        assert out.read_text().splitlines()[0] == "step,service,qps"
        records = load_trace(out, 4)
        assert len(records) == 6 * 4
        step0 = [r.qps for r in records if r.step_index == 0]
        assert sum(step0) == pytest.approx(80.0)

    def test_sinusoidal_trace_oscillates(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(
            ["gen-trace", "--kind", "sinusoidal", "--out", out, "--steps", 20,
             "--services", 2, "--rate", 100.0, "--period", 20], capsys)
        assert code == 0
        records = load_trace(out, 2)
        agg = {}
        for r in records:
            agg[r.step_index] = agg.get(r.step_index, 0.0) + r.qps
        assert max(agg.values()) > 100.0 > min(agg.values())

    def test_burst_trace_spikes(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code, _, _ = run_cli(
            ["gen-trace", "--kind", "burst", "--out", out, "--steps", 10,
             "--services", 2, "--rate", 50.0, "--burst-rate", 200.0,
             "--burst-start", 4, "--burst-len", 2], capsys)
        assert code == 0
        records = load_trace(out, 2)
        agg = {}
        for r in records:
            agg[r.step_index] = agg.get(r.step_index, 0.0) + r.qps
        assert agg[4] == pytest.approx(200.0)
        assert agg[5] == pytest.approx(200.0)
        assert agg[0] == pytest.approx(50.0)
        assert agg[9] == pytest.approx(50.0)

    def test_zero_steps_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["gen-trace", "--kind", "constant", "--out", tmp_path / "x.csv",
             "--steps", 0], capsys)
        assert code == 2
        assert stderr.startswith("error: ")

    def test_zero_services_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(
            ["gen-trace", "--kind", "constant", "--out", out, "--steps", 4,
             "--services", 0], capsys)
        assert code == 2
        assert stderr == "error: --services must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags,field", [
        (["--kind", "constant", "--rate", "nan"], "rate"),
        (["--kind", "burst", "--burst-rate", "inf"], "burst_rate"),
        (["--kind", "sinusoidal", "--amplitude", "nan"], "amplitude"),
    ], ids=["constant-rate-nan", "burst-rate-inf", "sinusoidal-amplitude-nan"])
    def test_non_finite_rate_exits_2(self, tmp_path, capsys, flags, field):
        out = tmp_path / "x.csv"
        code, _, stderr = run_cli(["gen-trace", "--out", out, "--steps", 4, *flags], capsys)
        assert code == 2
        assert stderr.startswith("error: ") and f"{field} must be finite" in stderr
        assert stderr.count("\n") == 1
        assert not out.exists()

    def test_generated_trace_feeds_training(self, tmp_path, capsys):
        trace = tmp_path / "demand.csv"
        run_cli(["gen-trace", "--kind", "constant", "--out", trace,
                 "--steps", 4, "--services", 8, "--rate", 100.0], capsys)
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(dict(SMOKE, scenario="trace:demand.csv")),
                       encoding="utf-8")
        out = tmp_path / "run"
        code, _, stderr = run_cli(
            ["train", "--config", cfg, "--algo", "basek", "--out", out], capsys)
        assert code == 0, stderr
        assert (out / "metrics_seed0.csv").exists()


def checkout_env(bin_dir=None):
    """os.environ with SRC_DIR first on PYTHONPATH and bin_dir, if given,
    first on PATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(
            p for p in (str(bin_dir), env.get("PATH")) if p)
    return env


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "edgesched", "--help"],
                              capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0
        for cmd in ("train", "eval", "compare", "gen-trace"):
            assert cmd in proc.stdout

    def test_console_script(self, tmp_path):
        # Build the launcher that `pip install` would put on PATH from the
        # [project.scripts] entry, so the entry is checked without an install.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["edgesched"]
        module, func = target.split(":")
        launcher = tmp_path / "edgesched"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n", encoding="utf-8")
        launcher.chmod(0o755)
        proc = subprocess.run(["edgesched", "--help"], capture_output=True,
                              text=True, env=checkout_env(bin_dir=tmp_path))
        assert proc.returncode == 0
        assert "train" in proc.stdout

    @pytest.mark.skipif(shutil.which("edgesched") is None,
                        reason="no installed edgesched on PATH "
                               "(pip install -e . puts one there)")
    def test_installed_console_script(self):
        proc = subprocess.run([shutil.which("edgesched"), "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "train" in proc.stdout
