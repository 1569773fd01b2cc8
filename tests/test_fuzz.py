"""Fuzzed inputs: each loader returns a value or raises its ValidationError.

Every test starts from a valid file and breaks it: byte flips, truncation,
NUL bytes, an oversized cell, or one JSON value swapped for a value of
another type. The loaders run in-process; `compare` and `eval` run through
`cli.main` and must exit 0, or 2 with one `error:` line, and a `compare`
that exits 0 must print no `nan`. Hypothesis runs derandomized with a fixed
example budget, so every run checks the same inputs.
"""

import contextlib
import io
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesched.cli import main as cli_main
from edgesched.configio import ConfigError, load_config
from edgesched.domain import ValidationError
from edgesched.harness import load_metrics, load_run, run_training
from edgesched.nets import ParamLoadError, load_mlp
from edgesched.workload import TraceParseError, load_trace

ROOT = Path(__file__).resolve().parent.parent
FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)
CELL_LIMIT = 131_072  # the csv module's default field size limit
# one value of each JSON type, plus the out-of-range numbers JSON can spell
SWAPS = ["text", "", 7, -1, 0, 2.5, 10**400, float("inf"), float("nan"),
         True, None, [], [1], {}, {"k": 1}]


@st.composite
def mutation(draw, data: bytes) -> bytes:
    """data with one byte flipped, cut short, given a NUL byte or an oversized cell."""
    kind = draw(st.sampled_from(["flip", "truncate", "nul", "oversize"]))
    pos = draw(st.integers(0, len(data)))
    if kind == "flip":
        pos = min(pos, len(data) - 1)
        return data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    if kind == "nul":
        return data[:pos] + b"\x00" + data[pos:]
    return data[:pos] + b"7" * (CELL_LIMIT + 1) + data[pos:]


def key_paths(doc: dict, prefix=()):
    """The path to every key of doc, nested objects included."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*prefix, key))


def swapped(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def loads_or_rejects(load, error: type[ValidationError]):
    """The loader's value, or None when it raised its own error."""
    try:
        return load()
    except error:
        return None


def cli_exit(argv: list[str]) -> int:
    """cli.main's exit code, after checking it keeps the exit-2 contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 0 and argv[0] == "compare":  # a table it printed holds numbers
        assert "nan" not in out.getvalue(), out.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
    return code


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid config, trace and TD3 + baseline runs, plus a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    config = load_config(ROOT / "configs" / "smoke.json")
    for algo in ("td3", "basek"):
        run_training(replace(config, algorithm=algo, output_dir=str(root / algo)))
    trace = root / "trace.csv"
    trace.write_text("step_index,service_id,qps\n0,0,10.0\n0,1,2.5\n1,0,12.0\n",
                     encoding="utf-8")
    (root / "mutant").mkdir()
    return root


def mutant(valid: Path, name: str, data: bytes) -> Path:
    path = valid / "mutant" / name
    path.write_bytes(data)
    return path


def mutant_run(valid: Path, name: str, data: bytes) -> Path:
    """A copy of the TD3 run with file `name` replaced by data."""
    run = valid / "mutant" / "run"
    shutil.rmtree(run, ignore_errors=True)
    shutil.copytree(valid / "td3", run)
    (run / name).write_bytes(data)
    return run


SMOKE = (ROOT / "configs" / "smoke.json").read_bytes()
EXAMPLE = json.loads((ROOT / "configs" / "example.json").read_text(encoding="utf-8"))


class TestConfig:
    @FUZZ
    @given(data=mutation(SMOKE))
    def test_mutated_bytes(self, valid, data):
        loads_or_rejects(lambda: load_config(mutant(valid, "config.json", data)), ConfigError)

    @pytest.mark.parametrize("path", list(key_paths(EXAMPLE)), ids=".".join)
    def test_every_key_takes_every_json_type(self, tmp_path, path):
        for value in SWAPS:
            target = tmp_path / "config.json"
            target.write_text(json.dumps(swapped(EXAMPLE, path, value)), encoding="utf-8")
            loads_or_rejects(lambda: load_config(target), ConfigError)

    @FUZZ
    @given(data=mutation(SMOKE))
    def test_eval_with_mutated_config(self, valid, data):
        cli_exit(["eval", "--config", str(mutant(valid, "config.json", data)),
                  "--params", str(valid / "td3" / "params_seed0.bin"), "--episodes", "1"])


class TestTrace:
    @FUZZ
    @given(data=st.data())
    def test_mutated_bytes(self, valid, data):
        original = (valid / "trace.csv").read_bytes()
        path = mutant(valid, "trace.csv", data.draw(mutation(original)))
        loads_or_rejects(lambda: load_trace(path, 2), TraceParseError)


class TestRunFiles:
    @FUZZ
    @given(data=st.data())
    def test_mutated_metrics(self, valid, data):
        original = (valid / "td3" / "metrics_seed0.csv").read_bytes()
        path = mutant(valid, "metrics.csv", data.draw(mutation(original)))
        loads_or_rejects(lambda: load_metrics(path), ValidationError)

    @FUZZ
    @given(data=st.data())
    def test_mutated_params(self, valid, data):
        original = (valid / "td3" / "params_seed0.bin").read_bytes()
        path = mutant(valid, "params.bin", data.draw(mutation(original)))
        loads_or_rejects(lambda: load_mlp(path, expect_sizes=[32, 8, 8, 16]), ParamLoadError)
        cli_exit(["eval", "--config", str(ROOT / "configs" / "smoke.json"),
                  "--params", str(path), "--episodes", "1"])

    @FUZZ
    @given(data=st.data())
    def test_compare_with_mutated_run_file(self, valid, data):
        name = data.draw(st.sampled_from(["manifest_seed0.json", "metrics_seed0.csv"]))
        run = mutant_run(valid, name, data.draw(mutation((valid / "td3" / name).read_bytes())))
        loads_or_rejects(lambda: load_run(run), ValidationError)
        cli_exit(["compare", "--runs", str(run), str(valid / "basek")])

    def test_compare_with_header_only_metrics(self, valid):
        header = (valid / "td3" / "metrics_seed0.csv").read_bytes().splitlines(keepends=True)[0]
        cli_exit(["compare", "--runs", str(mutant_run(valid, "metrics_seed0.csv", header)),
                  str(valid / "basek")])

    def test_every_manifest_key_takes_every_json_type(self, valid):
        doc = json.loads((valid / "td3" / "manifest_seed0.json").read_text(encoding="utf-8"))
        for path in key_paths(doc):
            for value in SWAPS:
                run = mutant_run(valid, "manifest_seed0.json",
                                 json.dumps(swapped(doc, path, value)).encode("utf-8"))
                loads_or_rejects(lambda: load_run(run), ValidationError)
                cli_exit(["compare", "--runs", str(run), str(valid / "basek")])
