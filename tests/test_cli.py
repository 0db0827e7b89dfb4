from __future__ import annotations

import contextlib
import copy
import csv
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synbench.cli as cli
from synbench.analysis import BOOTSTRAP_RESAMPLES, RATES, QubitBenchmark, RateEstimate, aggregate_device
from synbench.circuits import ENCODINGS
from synbench.cli import ConfigError, RunConfig, main, run_benchmark
from synbench.device import CalibrationError, enumerate_lines, load_calibration, plan_device, select_line
from synbench.noise import NoiseOptions
from conftest import falcon_bytes
from helpers import line_calibration_doc, pipeline_pairs

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def cal_path(tmp_path):
    path = tmp_path / "falcon27.json"
    path.write_bytes(falcon_bytes())
    return path


@contextlib.contextmanager
def expected_warnings(*patterns):
    """Record the warnings the block emits, every UserWarning included, and
    fail unless each one's message matches one of `patterns`."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always", UserWarning)
        yield record
    unexpected = [str(w.message) for w in record if not any(re.search(p, str(w.message)) for p in patterns)]
    assert not unexpected, unexpected


def write_config(tmp_path, cal_path, **overrides):
    doc = {
        "calibration": str(cal_path),
        "shots": 1200,
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "encodings": ["bit_flip"],
        "logical_values": [1],
    }
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_config_defaults():
    config = RunConfig.from_dict({"calibration": "cal.json"})
    assert config.shots == 20_000
    assert config.dd_scope == "code_only"
    assert config.extra_delay_fraction == 0.125
    assert config.encodings == ("bit_flip", "phase_flip")


VALID_CONFIG = {
    "calibration": "cal.json",
    "shots": 1200,
    "seed": 3,
    "encodings": ["bit_flip"],
    "logical_values": [1],
    "dd_scope": "none",
    "output_dir": "out",
}
# arbitrary JSON, plus the values and lists of values a config accepts
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
ACCEPTED = st.sampled_from(["bit_flip", "phase_flip", "none", "all_qubits", 0, 1, 2, 0.0, 1.0, 2.0, 1e5])


def _as_field(value):
    """What a field holds for a JSON value: lists become tuples and integral
    floats become ints."""
    if isinstance(value, list):
        return tuple(map(_as_field, value))
    return int(value) if isinstance(value, float) and value.is_integer() else value


@settings(max_examples=300, deadline=None)
@given(
    key=st.sampled_from(sorted(VALID_CONFIG)),
    value=JSON_VALUES | ACCEPTED | st.lists(ACCEPTED, max_size=3),
)
@example(key="shots", value=10**20)
@example(key="shots", value=2**63 - 1)
def test_config_field_is_the_given_value_or_an_error(key, value):
    try:
        config = RunConfig.from_dict(dict(VALID_CONFIG, **{key: value}))
    except ConfigError:
        return
    # repr tells True from 1, 1.0 from 1 and a list from a tuple
    assert repr(getattr(config, key)) == repr(_as_field(value))
    # an accepted shot count is one the sampler's multinomial can draw
    if key == "shots":
        assert np.random.default_rng(0).multinomial(config.shots, [1.0])[0] == config.shots


def test_readme_run_config_is_the_defaults():
    # the README's config example names every field at its default value
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("A run config is one JSON file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    doc = json.loads(block)
    assert set(doc) == {f.name for f in fields(RunConfig)}
    assert set(doc["noise"]) == {f.name for f in fields(NoiseOptions)}
    assert RunConfig.from_dict(doc) == RunConfig(calibration=doc["calibration"])


def test_readme_commands_parse():
    # every command in the README's Command line block is one the parser takes
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words for words in commands if words[:1] == ["synbench"] or words[:3] == ["python", "-m", "synbench"]]
    assert len(commands) == 6
    for words in commands:
        argv = words[words.index("synbench") + 1 :]
        assert cli.build_parser().parse_args(argv).command == argv[0]


def test_readme_rate_table_is_rates():
    # the README's rate-key table lists each key with its encoding and the
    # logical values it averages, as analysis.RATES does
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| ([\d, ]+)", readme, flags=re.MULTILINE)
    assert len(rows) == len(RATES)
    assert {key: (encoding, tuple(int(v) for v in lvs.split(","))) for key, encoding, lvs in rows} == RATES


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"calibration": "c.json", "shotz": 5})


def test_config_requires_calibration():
    with pytest.raises(ConfigError, match="calibration"):
        RunConfig.from_dict({})


def test_config_validates_values():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"calibration": "c", "shots": 0})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"calibration": "c", "extra_delay_fraction": -0.5})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"calibration": "c", "encodings": ["qudit"]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"calibration": "c", "extra_delay_fraction": "0.5"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"calibration": "c", "noise": {"disable": ["gravity"]}})


def test_library_lists_give_the_json_config():
    # a list or a tuple, a noise object or NoiseOptions: each field is
    # normalised where it is checked, whatever its source
    doc = {"calibration": "c.json", "encodings": ["phase_flip"], "logical_values": [1, 0], "noise": {"disable": ["cx"]}}
    config = RunConfig(
        calibration="c.json", encodings=["phase_flip"], logical_values=[1, 0], noise={"disable": ["cx"]}
    )
    assert config == RunConfig.from_dict(doc)
    assert (config.encodings, config.logical_values) == (("phase_flip",), (1, 0))
    assert config.noise == NoiseOptions(disable=frozenset({"cx"}))
    default = RunConfig(calibration="c.json")
    noise = NoiseOptions(disable=("cx",))
    assert replace(default, encodings=["phase_flip"], logical_values=(1, 0), noise=noise) == config


def test_config_relative_calibration_resolves_against_config_dir(tmp_path, cal_path):
    doc = {"calibration": cal_path.name}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = RunConfig.from_file(path)
    assert config.calibration == str(cal_path)


def test_plan_command(cal_path, capsys):
    assert main(["plan", "--cal", str(cal_path)]) == 0
    out = capsys.readouterr().out
    assert "q7   1-4-7-10-12" in out
    assert out.count(" -") == 6  # the six leaves have no line


def test_plan_command_missing_file_is_config_error(tmp_path, capsys):
    assert main(["plan", "--cal", str(tmp_path / "nope.json")]) == 1


def test_run_command_writes_artifacts(tmp_path, cal_path, capsys):
    config = write_config(tmp_path, cal_path)
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    for name in ("report.json", "report.csv", "rates.svg", "calibration.svg"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["schema"] == "synbench-report@1"
    benchmarked = [entry["qubit"] for entry in report["qubits"]]
    assert len(benchmarked) == 21
    assert not set(benchmarked) & {0, 6, 9, 17, 20, 26}


def test_reported_lines_agree_with_selection(tmp_path, cal_path):
    config = RunConfig.from_file(write_config(tmp_path, cal_path, shots=1200))
    report, _ = run_benchmark(config)
    cal = load_calibration(cal_path)
    for result in report.results:
        chosen = select_line(cal, enumerate_lines(cal, result.qubit))
        assert result.line == chosen.qubits


def test_no_generator_seed_is_used_twice(tmp_path, cal_path, monkeypatch):
    # each circuit seeds one generator, from its own (seed, qubit, encoding
    # index, logical value), and draws its shots and then its bootstrap
    # resamples from it
    seeded, drawn = [], []
    default_rng = np.random.default_rng

    def recording(seed=None):
        rng = default_rng(seed)
        if rng is seed:  # a Generator is drawn from in place
            drawn.append(rng)
        else:
            seeded.append((seed, rng))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    config = write_config(tmp_path, cal_path, encodings=list(ENCODINGS), logical_values=[0, 1], shots=1000)
    report, _ = run_benchmark(RunConfig.from_file(config))
    circuits = [(3, r.qubit, enc_idx, lv) for r in report.results for enc_idx in (0, 1) for lv in (0, 1)]
    assert [seed for seed, _ in seeded] == circuits
    assert [id(rng) for rng in drawn] == [id(rng) for _, rng in seeded for _draw in ("shots", "resamples")]


def test_tracer_metrics_fit_the_benchmark(tmp_path, cal_path, monkeypatch):
    # bench/tracing.py wraps pipeline functions by name and counts their
    # arguments and results; a renamed function or a changed return shape
    # breaks `bench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    tracing = importlib.import_module("tracing")
    per_layer = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}
    config = RunConfig.from_file(write_config(tmp_path, cal_path, shots=1000))
    tracer = tracing.Tracer()
    with tracer.installed():  # the wrappers replace module attributes
        start = time.perf_counter()
        report, _ = cli.run_benchmark(config)
        seconds = time.perf_counter() - start
    metrics = tracing.layer_metrics(tracer.spans, workers=1)
    assert set(metrics) <= per_layer and all(math.isfinite(v) for v in metrics.values())
    circuits = len(report.results)  # one encoding, one logical value
    assert metrics["simulator.shots"] == circuits * config.shots
    assert metrics["analysis.resamples"] == circuits * BOOTSTRAP_RESAMPLES
    # every traced function is still called, so no layer reads 0 of 0
    assert {s.name for s in tracer.spans} >= {name for _, _, name in tracing.TRACED}
    # coverage: the spans nest, so their self times add up to the call's wall
    # time and no blocking step goes unattributed
    assert abs(tracing.unattributed_seconds(tracer.spans)) <= 1e-3 * seconds


def test_two_detector_means_past_one_half_fall_back(tmp_path):
    # every cx lasting 1e300 ns saturates the auxiliaries: q1's logical-0
    # phase-flip circuit draws detector means of about 0.505 and 0.508, both
    # past 1/2, so it falls back, and no resample of it enters p_phase's SE
    doc = json.loads(falcon_bytes())
    for gate in doc["cx_gates"]:
        gate["duration_ns"] = 1e300
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always", UserWarning)
        report, _ = run_benchmark(RunConfig(calibration=str(cal), shots=2000, output_dir=str(tmp_path / "out")))
    messages = [str(w.message) for w in record]
    assert any(m.startswith("qubit 1 phase_flip logical 0: ") and m.endswith("recording 0.5") for m in messages)
    (q1,) = [result for result in report.results if result.qubit == 1]
    assert q1.rates["p_phase"].stderr <= 0.5


def test_run_seed_changes_report(tmp_path, cal_path):
    config = write_config(tmp_path, cal_path)
    assert main(["run", "--config", str(config)]) == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert main(["run", "--config", str(config), "--seed", "99"]) == 0
    assert (tmp_path / "out" / "report.json").read_bytes() != first


def test_run_with_single_shot_warns_but_succeeds(tmp_path, cal_path):
    config = write_config(tmp_path, cal_path, shots=1)
    with expected_warnings("only 1 shots", "recording 0.5") as record:
        report, _ = run_benchmark(RunConfig.from_file(config))
    assert len(report.results) == 21
    # every warning, the fallbacks' and the low-shot one, names the code
    # that called run_benchmark
    assert any("only 1 shots" in str(w.message) for w in record)
    assert any("recording 0.5" in str(w.message) for w in record)
    assert {w.filename for w in record} == {__file__}


def test_run_without_benchmarkable_qubits_is_runtime_error(tmp_path, capsys):
    doc = {
        "qubits": [
            {"id": 0, "t1_ns": 1e5, "t2_ns": 8e4, "readout_ns": 700.0},
            {"id": 1, "t1_ns": 1e5, "t2_ns": 8e4, "readout_ns": 700.0},
        ],
        "cx_gates": [{"qubits": [0, 1], "error": 0.01, "duration_ns": 300.0}],
    }
    cal = tmp_path / "tiny.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    config = write_config(tmp_path, cal)
    assert main(["run", "--config", str(config)]) == 2


def test_run_with_missing_config_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "none.json")]) == 1
    assert main(["run"]) == 1


@pytest.mark.parametrize(
    "argv", ["", "frobnicate", "run --shots", "render --report r.json --mode foo", "run --cal X --bogus 1"]
)
def test_usage_error_is_config_error(capsys, argv):
    # argparse would print a usage line and exit 2, the runtime-error code
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as done:
        main([flag])
    assert done.value.code == 0 and capsys.readouterr().out


@pytest.mark.parametrize("disable", ["cx", None, [["cx"]]], ids=["bare-name", "null", "nested-list"])
def test_malformed_disable_is_one_config_error_naming_it(tmp_path, cal_path, capsys, disable):
    config = write_config(tmp_path, cal_path, noise={"disable": disable})
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad noise options: disable must be") and err.count("\n") == 1, err


def test_run_with_both_config_and_cal_is_config_error(tmp_path, cal_path, capsys, monkeypatch):
    # the config names its own calibration, so a --cal beside it, even one
    # that does not exist, is refused before any qubit task runs
    ran = []
    monkeypatch.setattr(cli, "benchmark_qubit", lambda *args: ran.append(args))
    config = write_config(tmp_path, cal_path)
    for cal in (cal_path, tmp_path / "nope.json"):
        assert main(["run", "--config", str(config), "--cal", str(cal)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "--cal" in err and err.count("\n") == 1, err
    assert not ran and not (tmp_path / "out").exists()


def test_calibration_with_some_positions_is_config_error(tmp_path, cal_path, capsys):
    # positions are all or none: one qubit with a position and the rest
    # without would leave the device map without coordinates for qubit 1,
    # so the calibration is refused before the run starts
    doc = json.loads(falcon_bytes())
    for entry in doc["qubits"]:
        if entry["id"] != 0:
            entry.pop("position")
    cal = tmp_path / "partial.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CalibrationError, match="^qubit 1 has no position"):
        load_calibration(cal)
    assert main(["run", "--cal", str(cal), "--shots", "50", "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: qubit 1 has no position") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_run_with_directory_config_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and err.count("\n") == 1


def test_run_with_output_dir_under_a_file_is_config_error(tmp_path, cal_path, capsys, monkeypatch):
    # refused before any qubit task runs
    ran = []
    monkeypatch.setattr(cli, "benchmark_qubit", lambda *args: ran.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert main(["run", "--cal", str(cal_path), "--output", str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory") and err.count("\n") == 1
    assert not ran


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[1, 2]",
        pytest.param('{"metadata": 5}', id="metadata-number"),
        pytest.param(
            '{"metadata": {"calibration": 5}, "qubits": [{"qubit": 2}]}', id="calibration-number"
        ),
        pytest.param('{"metadata": {"calibration": "CAL"}, "qubits": [5]}', id="entry-number"),
        pytest.param(
            '{"metadata": {"calibration": "CAL"}, "qubits": [{"qubit": 2, "rates": {"p_01": 0.05}}]}',
            id="rate-number",
        ),
        pytest.param('{"metadata": {"calibration": "CAL"}, "qubits": [{"qubit": 27}]}', id="qubit-off-device"),
    ],
)
def test_render_malformed_report_is_config_error(tmp_path, cal_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text.replace("CAL", str(cal_path)), encoding="utf-8")
    assert main(["render", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: report") and err.count("\n") == 1


@pytest.mark.parametrize("missing", ["error", "duration_ns"])
def test_cx_gate_without_required_field_is_calibration_error(tmp_path, capsys, missing):
    doc = json.loads(falcon_bytes())
    del doc["cx_gates"][0][missing]
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plan", "--cal", str(cal)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad cx_gates entry") and err.count("\n") == 1


QUBIT_ENTRY_BREAKS = {
    "one-element-position": lambda doc: doc["qubits"][3].update(position=[1]),
    "string-t1": lambda doc: doc["qubits"][3].update(t1_ns="abc"),
    "entry-not-object": lambda doc: doc["qubits"].__setitem__(3, 5),
    "string-id": lambda doc: doc["qubits"][0].update(id="0"),
    "numeric-string-t1": lambda doc: doc["qubits"][3].update(t1_ns="100000"),
    "infinite-readout": lambda doc: doc["qubits"][3].update(readout_ns=math.inf),
    "infinite-x": lambda doc: doc["qubits"][3].update(x_ns=math.inf),
    "infinite-t1-t2": lambda doc: doc["qubits"][3].update(t1_ns=math.inf, t2_ns=math.inf),
    "float-overflowing-t2": lambda doc: doc["qubits"][3].update(t2_ns=10**400),
    "bool-p0": lambda doc: doc["qubits"][3].update(p0=True),
    "null-readout-error": lambda doc: doc["qubits"][3].update(readout_error=None),
    "nan-position": lambda doc: doc["qubits"][3].update(position=[math.nan, 1.0]),
    "missing-t1": lambda doc: doc["qubits"][3].pop("t1_ns"),
    "t2-star-above-t2": lambda doc: doc["qubits"][3].update(t2_star_ns=2 * doc["qubits"][3]["t2_ns"]),
    "p0-above-one": lambda doc: doc["qubits"][3].update(p0=1.5),
}


@pytest.mark.parametrize("name", sorted(QUBIT_ENTRY_BREAKS))
def test_malformed_qubit_entry_is_calibration_error(tmp_path, capsys, name):
    doc = json.loads(falcon_bytes())
    QUBIT_ENTRY_BREAKS[name](doc)
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plan", "--cal", str(cal)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "qubit" in err and err.count("\n") == 1


def json_paths(doc, prefix=()):
    """The key path of every value below the root of a JSON document,
    containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# JSON scalars outside the ordinary range of any field: huge, tiny, infinite
# and NaN floats, integers beyond the float range, bools, strings and null
JSON_SCALARS = st.one_of(
    st.floats().filter(lambda x: not 1e-6 <= abs(x) <= 1e6),
    st.sampled_from([10**400, -(10**400), "100000", True, False, None]),
    st.text(max_size=6),
)


def exit_and_stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_scalar_in_a_calibration_exits_0_or_1(fuzz_dir, data):
    doc = line_calibration_doc()
    path = data.draw(st.sampled_from(sorted(json_paths(doc), key=repr)), label="path")
    cal = fuzz_dir / "cal.json"
    cal.write_text(json.dumps(replaced(doc, path, data.draw(JSON_SCALARS, label="value"))), encoding="utf-8")
    with expected_warnings("only 50 shots", r"exceeds 2\*t1", "recording 0.5"):
        code, err = exit_and_stderr(["run", "--cal", str(cal), "--shots", "50", "--output", str(fuzz_dir / "out")])
    assert code == 0 or (code == 1 and err.startswith("config error: ") and err.count("\n") == 1), err


def line_report_paths() -> list[tuple]:
    """The key paths of `line_report`'s document: a report of the line's
    centre qubit, measuring every RATES key under the default config."""
    estimate = RateEstimate(0.0, 0.0, 1)
    rates, guides = dict.fromkeys(RATES, estimate), dict.fromkeys(RATES, 0.0)
    result = QubitBenchmark(2, (0, 1, 2, 3, 4), rates, guides, dict.fromkeys(ENCODINGS, 0))
    report = aggregate_device([result], {**RunConfig("line.json").describe(), "device": "line5"})
    return sorted(json_paths(json.loads(json.dumps(report.to_dict()))), key=repr)


LINE_REPORT_PATHS = line_report_paths()


@pytest.fixture(scope="module")
def line_report(fuzz_dir) -> dict:
    cal = fuzz_dir / "line.json"
    cal.write_text(json.dumps(line_calibration_doc()), encoding="utf-8")
    with expected_warnings("only 50 shots"):
        assert exit_and_stderr(["run", "--cal", str(cal), "--shots", "50", "--output", str(fuzz_dir / "base")])[0] == 0
    doc = json.loads((fuzz_dir / "base" / "report.json").read_text(encoding="utf-8"))
    assert sorted(json_paths(doc), key=repr) == LINE_REPORT_PATHS
    return doc


def far_apart_calibration(path: Path, half_span: float, name: str = "line5") -> Path:
    """The five-qubit line calibration, its end qubits `half_span` either
    side of the origin, written to `path`."""
    doc = line_calibration_doc()
    doc["name"] = name
    doc["qubits"][0]["position"], doc["qubits"][4]["position"] = [-half_span, 0.0], [half_span, 0.0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("half_span", [5e299, 1e308])
def test_positions_too_far_apart_to_draw_are_config_error(fuzz_dir, line_report, capsys, half_span):
    # finite positions whose span overflows the map's coordinates are refused
    # by run, before it writes any artifact, and by render; a span of 1e300
    # still draws
    cal = far_apart_calibration(fuzz_dir / f"far{half_span:g}.json", half_span)
    out = fuzz_dir / f"far{half_span:g}"
    render = ["render", "--report", str(fuzz_dir / "base" / "report.json"), "--cal", str(cal), "--out", str(out / "map.svg")]
    with expected_warnings("only 50 shots"):
        code = main(["run", "--cal", str(cal), "--shots", "50", "--output", str(out)])
    err = capsys.readouterr().err
    if half_span < 1e300:
        assert code == 0 and main(render) == 0, err
        for name in ("rates.svg", "calibration.svg", "map.svg"):
            assert "inf" not in (out / name).read_text(encoding="utf-8"), name
        return
    assert code == 1 and err == "config error: device line5: qubit positions span too far to draw\n"
    assert not out.exists()
    assert main(render) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: report ") and "device line5: " in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["plan --cal", "render --cal", "render --out", "run --output"])
def test_directory_for_a_file_path_is_config_error(fuzz_dir, line_report, command):
    # a path that cannot be read or written exits 1 on every command; for
    # run, a directory where its report.json would go
    report = str(fuzz_dir / "base" / "report.json")
    (fuzz_dir / "blocked" / "report.json").mkdir(parents=True, exist_ok=True)
    argv = {
        "plan --cal": ["plan", "--cal", str(fuzz_dir)],
        "render --cal": ["render", "--report", report, "--cal", str(fuzz_dir)],
        "render --out": ["render", "--report", report, "--out", str(fuzz_dir)],
        "run --output": ["run", "--cal", str(fuzz_dir / "line.json"), "--shots", "50", "--output", str(fuzz_dir / "blocked")],
    }[command]
    with expected_warnings("only 50 shots"):
        code, err = exit_and_stderr(argv)
    assert code == 1 and err.startswith("config error: cannot ") and err.count("\n") == 1, err


@pytest.mark.parametrize("where", ["report calibration", "config calibration", "config output_dir"])
def test_null_byte_in_a_path_is_config_error(fuzz_dir, line_report, where):
    # the OS refuses such a path with a ValueError, not an OSError
    if where == "report calibration":
        report = fuzz_dir / "nul_report.json"
        report.write_text(json.dumps(replaced(line_report, ("metadata", "calibration"), "\x00")), encoding="utf-8")
        argv = ["render", "--report", str(report), "--out", str(fuzz_dir / "nul.svg")]
    else:
        doc = {"calibration": str(fuzz_dir / "line.json"), "output_dir": str(fuzz_dir / "nul_run"), "shots": 50}
        doc[where.split()[1]] += "\x00"
        config = fuzz_dir / "nul_config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--config", str(config)]
    with expected_warnings("only 50 shots"):
        code, err = exit_and_stderr(argv)
    assert code == 1 and err.startswith("config error: cannot ") and err.count("\n") == 1, err


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(LINE_REPORT_PATHS), value=JSON_SCALARS, mode=st.sampled_from(["rates", "calibration"]))
@example(path=("metadata", "calibration"), value="\n", mode="rates")
def test_any_scalar_in_a_report_renders_or_exits_1(fuzz_dir, line_report, path, value, mode):
    # beside the original, so its relative calibration path still resolves
    report = fuzz_dir / "base" / "fuzzed.json"
    report.write_text(json.dumps(replaced(line_report, path, value)), encoding="utf-8")
    code, err = exit_and_stderr(["render", "--report", str(report), "--mode", mode, "--out", str(fuzz_dir / "map.svg")])
    assert code == 0 or (code == 1 and err.startswith("config error: ") and err.count("\n") == 1), err


def test_config_path_with_a_line_break_is_one_line(tmp_path):
    code, err = exit_and_stderr(["run", "--config", str(tmp_path / "run\n.json")])
    assert code == 1 and err.startswith("config error: cannot read config ") and err.count("\n") == 1, err
    assert str(tmp_path / "run\\n.json") in err


def test_device_name_with_a_line_break_is_one_line(fuzz_dir):
    cal = far_apart_calibration(fuzz_dir / "far_crlf.json", 1e308, name="line\r\n5")
    with expected_warnings("only 50 shots"):
        code, err = exit_and_stderr(["run", "--cal", str(cal), "--shots", "50", "--output", str(fuzz_dir / "far_crlf")])
    assert code == 1 and err == "config error: device line\\r\\n5: qubit positions span too far to draw\n"


def test_an_error_is_one_line_whatever_it_holds(monkeypatch):
    # every character str.splitlines breaks at, found among all code points
    pieces = "".join(map(chr, range(sys.maxunicode + 1))).splitlines(keepends=True)
    breaks = "".join(piece[-1] for piece in pieces[:-1])
    assert len(breaks) == 10
    for error, exit_code in [(ConfigError, 1), (RuntimeError, 2)]:

        def refuse(args):
            raise error(f"a{breaks}\r\nb")

        monkeypatch.setattr(cli, "_cmd_plan", refuse)
        code, err = exit_and_stderr(["plan", "--cal", "cal.json"])
        assert code == exit_code and len(err.splitlines()) == 1 and err.endswith("b\n"), err


def test_refused_run_removes_only_the_directories_it_made(fuzz_dir):
    cal = far_apart_calibration(fuzz_dir / "far_nested.json", 1e308)
    kept = fuzz_dir / "kept"
    (kept / "empty").mkdir(parents=True, exist_ok=True)
    with expected_warnings("only 50 shots"):
        assert main(["run", "--cal", str(cal), "--shots", "50", "--output", str(kept / "made" / "out")]) == 1
    assert sorted(p.name for p in kept.iterdir()) == ["empty"]


@pytest.mark.parametrize(
    "gate",
    [
        {"qubits": [0.5, 1], "error": 0.01, "duration_ns": 300.0},
        {"qubits": [True, 1], "error": 0.01, "duration_ns": 300.0},
        {"qubits": [0, 1], "error": "0.01", "duration_ns": 300.0},
        {"qubits": [0, 1], "error": 0.01, "duration_ns": math.inf},
    ],
    ids=["fractional-qubit", "bool-qubit", "string-error", "infinite-duration"],
)
def test_malformed_cx_entry_is_calibration_error(tmp_path, capsys, gate):
    doc = json.loads(falcon_bytes())
    doc["cx_gates"][0] = gate
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plan", "--cal", str(cal)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad cx_gates entry") and err.count("\n") == 1


# run-config keys of earlier versions, refused rather than ignored
DELETED_KEYS = {"rounds", "extra_delay", "bootstrap_resamples"}


@pytest.mark.parametrize(
    "bad",
    [
        {"noise": {"disabel": ["cx"]}},
        {"noise": {"enable_crosstalk": "false"}},
        {"noise": 5},
        {"extra_delay": 5},
        {"shots": "abc"},
        {"logical_values": ["x"]},
        {"encodings": 3},
        "5",  # the whole config file
        {"shots": 1.9},
        {"shots": True},
        {"seed": -1},
        ("--seed", "-1"),  # command-line override of a valid config
        {"bootstrap_resamples": 0},
        {"extra_delay_fraction": float("nan")},
        {"extra_delay_fraction": float("inf")},
        {"extra_delay_fraction": -0.5},
        {"extra_delay_fraction": 1e306},  # finite, but its delay overflows
        {"extra_delay_fraction": 10**400},  # a JSON integer beyond the float range
        {"extra_delay_fracton": 0.5},
        {"logical_values": [1, 1]},
        {"logical_values": [True]},
        {"noise": {"disable": "cx"}},
        {"noise": {"enable_crosstalk": False}},
        {"rounds": 5},
        ("--shots", "100000000000000000000"),  # beyond the multinomial's int64
        ("--shots", "abc"),  # flags are read as JSON values and checked as file values are
        ("--shots", "1.9"),
        ("--seed", "true"),
    ],
    ids=["noise-typo", "string-bool", "noise-number", "extra-delay-number", "string-shots",
         "string-logical-value", "number-encodings", "not-an-object", "fractional-shots",
         "bool-shots", "negative-seed", "negative-seed-flag", "zero-resamples",
         "nan-fraction", "infinite-fraction", "negative-fraction", "overflowing-fraction", "huge-integer-fraction",
         "extra-delay-typo",
         "repeated-logical-value", "bool-logical-value", "string-disable", "crosstalk-switch",
         "too-many-rounds", "int64-overflowing-shots-flag", "string-shots-flag", "fractional-shots-flag",
         "bool-seed-flag"],
)
def test_run_with_malformed_config_is_config_error(tmp_path, cal_path, capsys, bad):
    if isinstance(bad, str):
        config = tmp_path / "run.json"
        config.write_text(bad, encoding="utf-8")
    else:
        config = write_config(tmp_path, cal_path, **(bad if isinstance(bad, dict) else {}))
    flags = list(bad) if isinstance(bad, tuple) else []
    assert main(["run", "--config", str(config), *flags]) == 1
    err = capsys.readouterr().err
    deleted = isinstance(bad, dict) and set(bad) & DELETED_KEYS
    assert err.startswith("config error: unknown config keys" if deleted else "config error: ")
    assert err.count("\n") == 1


def test_failing_qubit_is_runtime_error_naming_it(tmp_path, cal_path, capsys, monkeypatch):
    # even an error of a config-error type raised inside a qubit's pipeline
    # exits 2, since the config passed its checks before the qubit loop
    def fail(qubit, *args):
        raise ConfigError("broken")

    monkeypatch.setattr(cli, "benchmark_qubit", fail)
    assert main(["run", "--config", str(write_config(tmp_path, cal_path))]) == 2
    assert capsys.readouterr().err == "error: qubit 1: broken\n"


@pytest.mark.parametrize("stage", ["build_repetition_circuit", "compile_program"])
def test_failing_build_or_compile_is_runtime_error_naming_its_qubit(tmp_path, cal_path, capsys, monkeypatch, stage):
    # stage 1 builds and compiles every circuit while the walk reads them; an
    # error there still names the qubit whose circuit failed, here the
    # second qubit's (one circuit per qubit), before any qubit task runs
    original, calls, ran = getattr(cli, stage), [], []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("broken")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, stage, fail_second)
    monkeypatch.setattr(cli, "benchmark_qubit", lambda *args: ran.append(args))
    assert main(["run", "--config", str(write_config(tmp_path, cal_path))]) == 2
    second = sorted(q for q, line in plan_device(load_calibration(cal_path)).items() if line is not None)[1]
    assert capsys.readouterr().err == f"error: qubit {second}: broken\n"
    assert not ran


def test_run_walks_the_device_once(tmp_path, cal_path, monkeypatch):
    # one pair_distribution call reads every program of the run: one per
    # (qubit, encoding), with one row per logical value
    calls = []
    original = cli.pair_distribution

    def counting(programs):
        calls.append(list(programs))
        return original(calls[-1])

    monkeypatch.setattr(cli, "pair_distribution", counting)
    config = RunConfig.from_file(write_config(tmp_path, cal_path, encodings=list(ENCODINGS), logical_values=[0, 1]))
    report, _ = run_benchmark(config)
    assert len(calls) == 1 and len(calls[0]) == 2 * len(report.results) == 2 * 21
    assert [program.rows for program in calls[0]] == [2] * 2 * 21


def test_run_bare_cal_uses_defaults(tmp_path, cal_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--cal", str(cal_path), "--shots", "1000"]) == 0
    report = json.loads((tmp_path / "synbench_out" / "report.json").read_text())
    assert report["metadata"]["shots"] == 1000
    assert report["metadata"]["dd_scope"] == "code_only"
    assert len(report["qubits"]) == 21


def test_shots_flag_with_an_integral_exponent_counts(tmp_path, cal_path, capsys):
    config = write_config(tmp_path, cal_path)
    assert main(["run", "--config", str(config), "--shots", "1e3"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metadata"]["shots"] == 1000


def test_render_command_roundtrip(tmp_path, cal_path, capsys):
    config = write_config(tmp_path, cal_path, shots=1200)
    assert main(["run", "--config", str(config)]) == 0
    report_path = tmp_path / "out" / "report.json"
    out_svg = tmp_path / "map.svg"
    assert (
        main(["render", "--report", str(report_path), "--mode", "calibration", "--out", str(out_svg)])
        == 0
    )
    text = out_svg.read_text()
    assert text.startswith("<svg") and "hatch" in text


def test_report_medians_ordered_across_dd_scopes(tmp_path, cal_path):
    # with cross-talk on, echoing the auxiliaries hurts the phase-flip rates
    medians = {}
    for scope in ("all_qubits", "code_only"):
        config = write_config(
            tmp_path,
            cal_path,
            shots=4_000,
            encodings=["phase_flip"],
            logical_values=[0],
            dd_scope=scope,
            output_dir=str(tmp_path / scope),
        )
        report, _ = run_benchmark(RunConfig.from_file(config))
        medians[scope] = report.medians["p_phase"]
    assert medians["all_qubits"] > medians["code_only"]


def test_report_guides_and_exposure_are_consistent(tmp_path, cal_path):
    from synbench.circuits import build_repetition_circuit, idle_exposure
    from synbench.noise import guide_values

    config = RunConfig.from_file(
        write_config(tmp_path, cal_path, shots=1200, encodings=["phase_flip"], logical_values=[0])
    )
    report, _ = run_benchmark(config)
    cal = load_calibration(cal_path)
    for result in report.results[:5]:
        q = result.qubit
        extra = round(0.125 * cal.qubits[q].t2_ns)
        circuit = build_repetition_circuit(
            result.line, cal, "phase_flip", 0, extra_delay_ns=extra, dd_scope="code_only"
        )
        assert result.exposure_ns["phase_flip"] == idle_exposure(circuit, q)
        expected = guide_values(cal, q, "phase_flip", 0, result.exposure_ns["phase_flip"], dd=True)
        assert result.guides["p_phase"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("lv, direction", [(0, "p_0to1"), (1, "p_1to0")])
def test_single_logical_value_guides_p01_by_its_direction(tmp_path, cal_path, lv, direction):
    # without echo the two directions differ, and a run that measured one
    # of them reports that direction's estimate and guide as p_01
    config = write_config(tmp_path, cal_path, logical_values=[lv], dd_scope="none")
    report, _ = run_benchmark(RunConfig.from_file(config))
    for result in report.results:
        assert result.guides["p_01"] == result.guides[direction]
        assert result.rates["p_01"] == result.rates[direction]


def test_logical_values_share_each_circuits_exposure(falcon):
    # the run reads exposures from the logical-0 circuit alone: the
    # logical-1 circuit idles alike on every qubit once its prelude ends,
    # on every falcon27 pipeline pair at each dd_scope
    from synbench.circuits import idle_exposure

    checked = 0
    for _, _, (zero, one) in pipeline_pairs(falcon):
        assert [idle_exposure(zero, q) for q in zero.line] == [idle_exposure(one, q) for q in one.line]
        checked += 1
    assert checked == 3 * 42


def test_each_direction_reads_its_own_circuit_whatever_the_logical_values(tmp_path, cal_path):
    # a logical value's circuit is one row of its qubit's program, seeded
    # by its value: runs with logical values [0, 1], [1] and [1, 0] read
    # the same p_0to1 and p_1to0 wherever they measure them
    rates = {}
    for lvs in ([0, 1], [1], [1, 0]):
        out = tmp_path / "-".join(map(str, lvs))
        report, _ = run_benchmark(RunConfig.from_file(write_config(tmp_path, cal_path, logical_values=lvs, output_dir=str(out))))
        rates[tuple(lvs)] = {result.qubit: result.rates for result in report.results}
    assert len(rates[0, 1]) == 21
    for q, both in rates[0, 1].items():
        assert "p_0to1" not in rates[1,][q]
        assert rates[1, 0][q]["p_0to1"] == both["p_0to1"]
        assert rates[1, 0][q]["p_1to0"] == rates[1,][q]["p_1to0"] == both["p_1to0"]


@pytest.mark.parametrize("scope", ["none", "all_qubits", "code_only"])
def test_each_guide_is_the_mean_of_its_circuits_guides(tmp_path, cal_path, scope):
    from synbench.circuits import build_repetition_circuit, idle_exposure
    from synbench.noise import guide_values

    config = RunConfig.from_file(
        write_config(tmp_path, cal_path, encodings=list(ENCODINGS), logical_values=[0, 1], dd_scope=scope)
    )
    report, _ = run_benchmark(config)
    cal = load_calibration(cal_path)
    assert len(report.results) == 21
    for result in report.results:
        q = result.qubit
        per_circuit = {}
        for encoding in ENCODINGS:
            extra = cli._extra_delay_ns(config, cal, q, encoding)
            for lv in (0, 1):
                circuit = build_repetition_circuit(result.line, cal, encoding, lv, extra, scope)
                exposure = idle_exposure(circuit, q)
                per_circuit[encoding, lv] = guide_values(cal, q, encoding, lv, exposure, scope != "none")
        assert result.guides == {
            key: sum(per_circuit[encoding, lv] for lv in lvs) / len(lvs) for key, (encoding, lvs) in RATES.items()
        }
        if scope == "none":
            # p_01's guide is the mean of the two directions' guides
            g = result.guides
            assert g["p_01"] == pytest.approx((g["p_0to1"] + g["p_1to0"]) / 2.0, rel=1e-12)


def test_report_bytes_do_not_depend_on_where_the_tree_sits(tmp_path, monkeypatch):
    # one config and calibration in two trees at different depths give one
    # report, which names its calibration relative to itself
    reports = []
    for tree in (tmp_path / "a", tmp_path / "b" / "deeper"):
        tree.mkdir(parents=True)
        (tree / "falcon27.json").write_bytes(falcon_bytes())
        config = {"calibration": "falcon27.json", "shots": 1200, "seed": 3, "encodings": ["bit_flip"]}
        (tree / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(tree / "run.json"), "--output", str(tree / "out")]) == 0
        reports.append((tree / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["metadata"]["calibration"] == os.path.join("..", "falcon27.json")
    # render finds the calibration from any working directory
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    report = os.path.relpath(tmp_path / "a" / "out" / "report.json")
    assert main(["render", "--report", report, "--mode", "calibration", "--out", "map.svg"]) == 0
    assert (elsewhere / "map.svg").read_bytes() == (tmp_path / "a" / "out" / "calibration.svg").read_bytes()


def test_rendered_figure_values_match_report(tmp_path, cal_path):
    import re

    config = write_config(tmp_path, cal_path, shots=1200)
    assert main(["run", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    svg = (tmp_path / "out" / "rates.svg").read_text()
    printed = re.findall(r">([\d.]+)/([\d.-]+)<", svg)
    by_qubit = {entry["qubit"]: entry for entry in report["qubits"]}
    assert len(printed) == len(by_qubit)
    bit_values = sorted(f"{100 * e['rates']['p_01']['estimate']:.1f}" for e in by_qubit.values())
    assert sorted(p[0] for p in printed) == bit_values


def test_calibration_map_shows_the_report_guides(tmp_path, cal_path):
    # the map prints the report's own guides, over each encoding's exposure
    # window, and computes none of its own
    config = write_config(tmp_path, cal_path, encodings=["bit_flip", "phase_flip"], logical_values=[0, 1])
    assert main(["run", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    svg = (tmp_path / "out" / "calibration.svg").read_text()
    guides = [entry["guides"] for entry in report["qubits"]]
    assert re.findall(r">([\d.]+)/([\d.]+)<", svg) == [
        (f"{100 * g['p_01']:.1f}", f"{100 * g['p_phase']:.1f}") for g in guides
    ]


def test_render_calibration_with_non_numeric_guide_is_config_error(tmp_path, cal_path, capsys):
    # each mode checks what it paints: the rates map draws this report, the
    # calibration map refuses its string guide
    report = tmp_path / "report.json"
    entry = {"qubit": 2, "rates": {"p_01": {"estimate": 0.05}}, "guides": {"p_01": "0.05"}}
    report.write_text(json.dumps({"metadata": {"calibration": str(cal_path)}, "qubits": [entry]}), encoding="utf-8")
    assert main(["render", "--report", str(report), "--mode", "rates", "--out", str(tmp_path / "r.svg")]) == 0
    capsys.readouterr()
    assert main(["render", "--report", str(report), "--mode", "calibration", "--out", str(tmp_path / "c.svg")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: report " + str(report) + ": qubit 2: each guide must be a number in [0, 1]\n", err


def test_csv_rows_cover_all_rates(tmp_path, cal_path):
    config = RunConfig.from_file(write_config(tmp_path, cal_path, encodings=["bit_flip", "phase_flip"], logical_values=[0, 1], shots=1200))
    report, paths = run_benchmark(config)
    rows = paths["csv"].read_text().splitlines()
    assert rows[0] == "qubit,encoding,rate_type,estimate,stderr,guide,exposure_ns"
    # p_0to1, p_1to0, p_01, p_phase per benchmarked qubit
    assert len(rows) == 1 + 4 * len(report.results)


def test_csv_reads_back_the_written_fields():
    # the rows are joined by hand, so a csv reader must still get each
    # field back, float reprs at their edges included
    values = {
        "p_0to1": (math.nan, math.inf, -0.0),
        "p_1to0": (5e-324, -math.inf, 0.25),
        "p_phase": (-0.0, 0.0, math.nan),
    }
    rates = {key: RateEstimate(estimate, stderr, 10) for key, (estimate, stderr, _) in values.items()}
    guides = {key: guide for key, (_, _, guide) in values.items()}
    result = QubitBenchmark(12, (11, 12, 13), rates, guides, {"bit_flip": 7, "phase_flip": 1_000_000})
    report = aggregate_device([result])
    rows = list(csv.reader(io.StringIO(cli.report_csv(report), newline="")))
    assert rows[0] == list(cli.RATE_CSV_HEADER)
    exposures = {"bit_flip": "7", "phase_flip": "1000000"}
    assert rows[1:] == [
        ["12", RATES[key][0], key, *map(repr, values[key]), exposures[RATES[key][0]]] for key in sorted(values)
    ]


DOCUMENT_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.text(max_size=6)
)
DOCUMENT_VALUES = st.recursive(
    DOCUMENT_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(doc=st.dictionaries(st.text(max_size=6), DOCUMENT_VALUES, max_size=5))
@example(doc={"é\n\"\\ ": [[], {}, ([{}],)], "": {"a": [-0.0, 5e-324, math.nan, -math.inf]}, "\x00": 10**30})
def test_report_json_is_json_dumps_with_indent(doc):
    # hypothesis refuses the function-scoped tmp_path, so each example makes its own directory
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "report.json"
        cli.report_json(doc, path)
        assert path.read_bytes().decode("utf-8") == json.dumps(doc, sort_keys=True, indent=2) + "\n"


P0_ONLY_RELAXATION = {"disable": ["cx", "readout", "dephasing", "crosstalk"]}


def test_unechoed_p0_estimate_recovers_calibrated_p0(tmp_path, cal_path):
    # with relaxation the only channel, the two flip directions split as p0
    # to 1 - p0, so p_1to0 / (p_1to0 + p_0to1) estimates p0; its delta-method
    # sd comes from the two rates' stderr. A qubit with p0 = 1 reads exactly
    # 1.0 unless its neighbours' upward flips leave p_0to1 a sampling-noise
    # estimate above 0, which its stderr then covers
    config = RunConfig.from_file(
        write_config(
            tmp_path, cal_path, shots=200_000, logical_values=[0, 1], dd_scope="none", noise=P0_ONLY_RELAXATION
        )
    )
    report, _ = run_benchmark(config)
    cal = load_calibration(cal_path)
    for result in report.results:
        p0 = cal.qubits[result.qubit].p0
        down, up = result.rates["p_1to0"], result.rates["p_0to1"]
        total = down.estimate + up.estimate
        sd = math.hypot(up.estimate * down.stderr, down.estimate * up.stderr) / total**2
        assert abs(result.p0_estimate - p0) <= 4 * sd, (result.qubit, result.p0_estimate, p0, sd)


def test_echoed_run_reports_no_p0_estimate(tmp_path, cal_path):
    # echo pulses symmetrize the two directions, so their ratio says nothing
    config = RunConfig.from_file(
        write_config(tmp_path, cal_path, logical_values=[0, 1], dd_scope="code_only", noise=P0_ONLY_RELAXATION)
    )
    report, _ = run_benchmark(config)
    assert report.results and all(result.p0_estimate is None for result in report.results)


CALIBRATION_BREAKS = {
    "no-qubits": lambda doc: doc.update(qubits=[], cx_gates=[]),
    "no-cx-gates-key": lambda doc: doc.pop("cx_gates"),
    "cx-gates-not-a-list": lambda doc: doc.update(cx_gates={}),
    "self-loop-cx": lambda doc: doc["cx_gates"][0].update(qubits=[0, 0]),
    "zero-duration-cx": lambda doc: doc["cx_gates"][0].update(duration_ns=0),
}


@pytest.mark.parametrize("name", sorted(CALIBRATION_BREAKS))
def test_malformed_calibration_is_calibration_error(tmp_path, capsys, name):
    doc = json.loads(falcon_bytes())
    CALIBRATION_BREAKS[name](doc)
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plan", "--cal", str(cal)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("args", [["-c", "import synbench"], ["-m", "synbench", "--version"]])
def test_entry_points_run_without_warnings(args):
    # `python -m synbench` runs the command line; a warning at import, such
    # as runpy's for a module the package root already imported, fails here
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ("synbench 0.1.0\n" if "--version" in args else "")


RUN_FOOTPRINT = """
import json, sys
import numpy.random
import synbench
config = synbench.RunConfig(calibration=sys.argv[1], shots=2_000, output_dir=sys.argv[2])
before = set(sys.modules)
synbench.run_benchmark(config)
heavy = [name for name in ("numpy.ma", "statistics") if name in sys.modules]
print(json.dumps([sorted(set(sys.modules) - before), heavy]))
"""


def test_run_imports_no_module(tmp_path):
    # once numpy.random, which a run needs, and the package are loaded, a
    # run loads nothing more: the device medians need no numpy.ma, and
    # nothing in the package loads statistics
    cal = tmp_path / "line.json"
    cal.write_text(json.dumps(line_calibration_doc()), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    argv = [sys.executable, "-c", RUN_FOOTPRINT, str(cal), str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == [[], []]


def test_cli_prints_each_warning_as_one_line(tmp_path):
    # the command line shows a warning as its message alone, and restores
    # the format on return, so library callers' warnings keep their location
    doc = json.loads(falcon_bytes())
    doc["qubits"][3]["t2_ns"] = 3 * doc["qubits"][3]["t1_ns"]
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    argv = [sys.executable, "-m", "synbench", "plan", "--cal", str(cal)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert re.fullmatch(r"warning: qubit 3: t2 \(\S+\) exceeds 2\*t1 \(\S+\)\n", done.stderr), done.stderr
    formatwarning = warnings.formatwarning
    with expected_warnings(r"exceeds 2\*t1") as record:
        assert exit_and_stderr(["plan", "--cal", str(cal)])[0] == 0
    assert len(record) == 1 and warnings.formatwarning is formatwarning
