"""The benchmark's tracer (bench/tracing.py) wraps synbench functions by
name, so a rename in the package fails here and not only under
`bench/run.py --trace 1`."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import synbench.cli
from synbench.analysis import extract_idle_rates

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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
