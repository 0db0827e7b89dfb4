"""Stored digests of built timelines, of exact cells and of runs' reports
and maps.

Every other test compares one walk or estimator with another, or checks a
number to a tolerance, so a change that moves cells or estimates by an ulp
passes them all. The digests below were taken with numpy 2.4.6 on CPython
3.11 and x86-64 Linux. A moved digest there means some cell or reported
number changed by at least one bit: a change that means to keep every
number must find why, and one that means to move them says so and stores
the new digest. Another numpy or platform may round differently and move
them on its own.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from synbench.cli import RunConfig, run_benchmark
from synbench.device import load_calibration
from synbench.noise import NoiseOptions, compile_noise
from synbench.simulator import compile_program, pair_distribution
from conftest import falcon_bytes
from helpers import load_bench_module, pipeline_circuits, with_round_two_tail

FALCON_PIPELINE_TIMELINES = "86d9c669e6790f826b4ab39508ce07329c539b4145d4301cb36fd9b515ae42a3"
# the same circuits with the tail they had before round 2's readout ended
# them: round 2's resets and the closing barrier
FALCON_PIPELINE_TIMELINES_WITH_ROUND_TWO_TAIL = "3233a8bcbebe887900c6f62d1d354f44b7ad384a713a83ed2d882f9317c0cb11"
FALCON_CODE_ONLY_CELLS = "9abc113eb5763fe2d53582cd4b10024f55f24b4496ec2ff643e198756467df56"
FALCON_ALL_QUBITS_WEAK_CROSSTALK_CELLS = "82692a484b46e0a2e52cd11b7b6f792ecd9bbcad6686f28e596b06b85d318b6f"
HEAVY_HEX_NONE_CELLS = "9934102ad22e66d0889281573b8694da999084ba8dbcf9d26071441b9817af41"
FALCON_REPORT_CSV = "b8e046f2ab8a70aa6d11d6710448730acf0498397ee0ab212d4f20cc316e3568"
FALCON_REPORT_JSON = "abaeaa8a6492502654404104bca127759936fa46b9d173d04c904173637f783e"
HEAVY_HEX_REPORT_CSV = "fc823a8b1848852541bcb2b4b6b9c5ec17d4c5935c7378441c3c79d993753e50"
HEAVY_HEX_REPORT_JSON = "359e85f17f1a637c53e74d403e6ac645b182b1ac32168ac631317e794690ae7f"
FALCON_RATES_SVG = "0e0f6f0ca123055375d6340ef3621096118a91622514c746743cf83533e02995"
FALCON_CALIBRATION_SVG = "cf0e1c238b61eb54d04ba036ab3688e9f0594a43c30c95076b4a99381c1daf57"


def timelines_digest(circuits) -> str:
    """The sha256 of every instruction of `circuits`, in order."""
    digest = hashlib.sha256()
    for circuit in circuits:
        digest.update(repr([tuple(i) for i in circuit.instructions]).encode())
    return digest.hexdigest()


def test_falcon_pipeline_timelines_keep_their_bytes(falcon):
    # every instruction of falcon27's pipeline circuits at all three
    # dd_scope values: the cells see only code_only, and a reordering that
    # leaves the walk's result equal moves this digest
    assert timelines_digest(circuit for _, circuit in pipeline_circuits(falcon)) == FALCON_PIPELINE_TIMELINES


def test_round_two_tail_is_the_old_builders_tail(falcon):
    # the tail `with_round_two_tail` re-appends gives back, byte for byte,
    # the timelines the builder made while it still emitted that tail
    tailed = (with_round_two_tail(circuit, falcon, scope) for scope, circuit in pipeline_circuits(falcon))
    assert timelines_digest(tailed) == FALCON_PIPELINE_TIMELINES_WITH_ROUND_TWO_TAIL


def cells_digest(cal, noise, scope: str) -> tuple[int, str]:
    """How many pipeline programs `cal` has at `scope`, and the sha256 of
    their exact cells, walked in one call as the run walks them."""
    programs = [compile_program(c, noise) for s, c in pipeline_circuits(cal) if s == scope]
    return len(programs), hashlib.sha256(np.array(pair_distribution(programs)).tobytes()).hexdigest()


def test_falcon_pipeline_cells_keep_their_bytes(falcon):
    # falcon27's 84 pipeline programs at code_only with default noise
    assert cells_digest(falcon, compile_noise(falcon), "code_only") == (84, FALCON_CODE_ONLY_CELLS)


def test_falcon_weak_crosstalk_cells_keep_their_bytes(falcon):
    # falcon27's 84 pipeline programs at all_qubits with crosstalk eta 0.3
    # and preparation error 0.02, so every decay carries channels of its
    # block and every preparation folds a nonzero flip
    noise = compile_noise(falcon, NoiseOptions(crosstalk_eta=0.3, prep_error=0.02))
    assert cells_digest(falcon, noise, "all_qubits") == (84, FALCON_ALL_QUBITS_WEAK_CROSSTALK_CELLS)


def test_heavy_hex_pipeline_cells_keep_their_bytes(monkeypatch):
    # the benchmark's seeded 129-qubit device at seed 1, its 500 pipeline
    # programs at dd_scope none with default noise, as hh129_lowshot runs
    doc = load_bench_module("workloads", monkeypatch).heavy_hex_calibration(1)
    cal = load_calibration(json.dumps(doc))
    assert cells_digest(cal, compile_noise(cal), "none") == (500, HEAVY_HEX_NONE_CELLS)


def test_falcon_report_csv_keeps_its_bytes(tmp_path):
    # a falcon27 run at 2,000 shots, seed 7. The report records its
    # calibration relative to the output directory, and synbench's version,
    # so a version bump moves both report digests. The CSV and the maps hold
    # no paths, and falcon27's positions keep its maps off the computed
    # layout
    cal_path = tmp_path / "falcon27.json"
    cal_path.write_bytes(falcon_bytes())
    _, paths = run_benchmark(RunConfig(str(cal_path), shots=2_000, seed=7, output_dir=str(tmp_path / "out")))
    assert hashlib.sha256(paths["report"].read_bytes()).hexdigest() == FALCON_REPORT_JSON
    assert hashlib.sha256(paths["csv"].read_bytes()).hexdigest() == FALCON_REPORT_CSV
    assert hashlib.sha256(paths["rates_map"].read_bytes()).hexdigest() == FALCON_RATES_SVG
    assert hashlib.sha256(paths["calibration_map"].read_bytes()).hexdigest() == FALCON_CALIBRATION_SVG


def test_heavy_hex_report_keeps_its_bytes(tmp_path, monkeypatch):
    # the benchmark's seeded 129-qubit device at seed 1, run as
    # hh129_lowshot runs it: 2,000 shots, dd_scope none, seed 1
    cal_path = tmp_path / "hh129.json"
    doc = load_bench_module("workloads", monkeypatch).heavy_hex_calibration(1)
    cal_path.write_text(json.dumps(doc), encoding="utf-8")
    config = RunConfig(str(cal_path), shots=2_000, seed=1, dd_scope="none", output_dir=str(tmp_path / "out"))
    _, paths = run_benchmark(config)
    assert hashlib.sha256(paths["report"].read_bytes()).hexdigest() == HEAVY_HEX_REPORT_JSON
    assert hashlib.sha256(paths["csv"].read_bytes()).hexdigest() == HEAVY_HEX_REPORT_CSV
