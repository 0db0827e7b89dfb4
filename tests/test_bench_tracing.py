"""The benchmark's tracer (bench/tracing.py) wraps synbench functions by
name and counts their arguments and results, so a rename in the package or
a changed return shape fails here and not only under
`bench/run.py --trace 1`."""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from pathlib import Path

import pytest

import synbench.cli
from synbench.analysis import BOOTSTRAP_RESAMPLES, extract_idle_rates
from synbench.circuits import build_repetition_circuit
from synbench.cli import RunConfig
from synbench.device import load_calibration, plan_device
from helpers import line_calibration_doc, load_bench_module

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    return load_bench_module("tracing", monkeypatch)


def test_every_traced_name_exists_in_its_home_module(tracing):
    for _, home, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(home), name, None)), f"{home}.{name}"
    assert set(tracing.COUNTS) <= {name for _, _, name in tracing.TRACED}
    # the resample count of each estimate is read from this argument
    assert "resamples" in inspect.signature(extract_idle_rates).parameters


def test_tracer_installs_and_restores_every_wrapper(tracing):
    original = synbench.cli.benchmark_qubit
    with tracing.Tracer().installed():
        assert synbench.cli.benchmark_qubit is not original
    assert synbench.cli.benchmark_qubit is original


def test_traced_run_gives_every_layer_metric(tracing, tmp_path):
    # a pipeline that stopped calling a traced function would leave its
    # layer empty, which otherwise shows only under `bench/run.py --trace 1`
    cal_path = tmp_path / "line.json"
    cal_path.write_text(json.dumps(line_calibration_doc()), encoding="utf-8")
    config = RunConfig(calibration=str(cal_path), shots=1_000, output_dir=str(tmp_path / "out"))
    with tracing.Tracer().installed() as tracer:  # the wrappers replace module attributes
        start = time.perf_counter()
        synbench.cli.run_benchmark(config)
        seconds = time.perf_counter() - start
    assert {span.name for span in tracer.spans} == {name for _, _, name in tracing.TRACED}
    # coverage: the spans nest, so their self times add up to the call's wall
    # time and no blocking step goes unattributed
    assert abs(tracing.unattributed_seconds(tracer.spans)) <= 1e-3 * seconds
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert all(math.isfinite(v) for v in metrics.values())
    # every metric is the benchmark's, and run.py adds the trace.* and
    # workload.* metrics itself
    names = {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    assert set(metrics) <= names
    assert {n for n in names if not n.startswith(("trace.", "workload."))} <= set(metrics)
    cal = load_calibration(cal_path)
    circuits = [
        build_repetition_circuit(
            line, cal, encoding, lv, synbench.cli._extra_delay_ns(config, cal, q, encoding), config.dd_scope
        )
        for q, line in plan_device(cal).items()
        if line is not None
        for encoding in config.encodings
        for lv in config.logical_values
    ]
    assert len(circuits) == 4  # the centre qubit's two encodings and logical values
    assert metrics["simulator.shots"] == len(circuits) * config.shots
    assert metrics["analysis.resamples"] == len(circuits) * BOOTSTRAP_RESAMPLES
    assert metrics["circuits.instructions"] == sum(len(c.instructions) for c in circuits)
