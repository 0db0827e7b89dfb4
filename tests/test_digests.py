"""Stored digests of built timelines, of exact cells and of a run's report
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

import numpy as np

from synbench.cli import RunConfig, run_benchmark
from synbench.noise import compile_noise
from synbench.simulator import compile_program, pair_distribution
from conftest import falcon_bytes
from helpers import pipeline_circuits

FALCON_PIPELINE_TIMELINES = "3233a8bcbebe887900c6f62d1d354f44b7ad384a713a83ed2d882f9317c0cb11"
FALCON_CODE_ONLY_CELLS = "9abc113eb5763fe2d53582cd4b10024f55f24b4496ec2ff643e198756467df56"
FALCON_REPORT_CSV = "2a649449e300636ab49ba932d5011bcb9b693cacb1e7678c7386d4d623fe19bd"
FALCON_RATES_SVG = "0e0f6f0ca123055375d6340ef3621096118a91622514c746743cf83533e02995"
FALCON_CALIBRATION_SVG = "cf0e1c238b61eb54d04ba036ab3688e9f0594a43c30c95076b4a99381c1daf57"


def test_falcon_pipeline_timelines_keep_their_bytes(falcon):
    # every instruction of falcon27's pipeline circuits at all three
    # dd_scope values: the cells see only code_only, and a reordering that
    # leaves the walk's result equal moves this digest
    digest = hashlib.sha256()
    for _, circuit in pipeline_circuits(falcon):
        digest.update(repr([tuple(i) for i in circuit.instructions]).encode())
    assert digest.hexdigest() == FALCON_PIPELINE_TIMELINES


def test_falcon_pipeline_cells_keep_their_bytes(falcon):
    # the exact cells of falcon27's 84 pipeline programs at code_only with
    # default noise, walked in one call as the run walks them
    noise = compile_noise(falcon)
    programs = [compile_program(c, noise) for scope, c in pipeline_circuits(falcon) if scope == "code_only"]
    assert len(programs) == 84
    cells = np.array(pair_distribution(programs))
    assert hashlib.sha256(cells.tobytes()).hexdigest() == FALCON_CODE_ONLY_CELLS


def test_falcon_report_csv_keeps_its_bytes(tmp_path):
    # a falcon27 run at 2,000 shots, seed 7; the CSV and the maps hold no
    # paths, and falcon27's positions keep its maps off the computed layout
    cal_path = tmp_path / "falcon27.json"
    cal_path.write_bytes(falcon_bytes())
    _, paths = run_benchmark(RunConfig(str(cal_path), shots=2_000, seed=7, output_dir=str(tmp_path / "out")))
    assert hashlib.sha256(paths["csv"].read_bytes()).hexdigest() == FALCON_REPORT_CSV
    assert hashlib.sha256(paths["rates_map"].read_bytes()).hexdigest() == FALCON_RATES_SVG
    assert hashlib.sha256(paths["calibration_map"].read_bytes()).hexdigest() == FALCON_CALIBRATION_SVG
