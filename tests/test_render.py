from __future__ import annotations

import re

import pytest

from synbench.analysis import QubitBenchmark, RateEstimate, aggregate_device
from synbench.render import render_device_map
from helpers import make_graph_cal


def _report(values: dict[int, tuple[float, float | None]]):
    results = []
    for q, (bit, phase) in values.items():
        rates = {"p_01": RateEstimate(bit, 0.001, 1000)}
        if phase is not None:
            rates["p_phase"] = RateEstimate(phase, 0.001, 1000)
        results.append(
            QubitBenchmark(qubit=q, line=(0, 1, 2, 3, 4), rates=rates, guides={}, exposure_ns={})
        )
    return aggregate_device(results, {"dd_scope": "code_only"})


@pytest.fixture(scope="module")
def cal():
    return make_graph_cal(5, [(0, 1), (1, 2), (2, 3), (3, 4)], cx_errors={(1, 2): 0.021, (2, 3): 0.02})


def test_single_value_report_gets_full_red(cal):
    svg = render_device_map(_report({2: (0.05, None)}), cal, "rates")
    assert 'fill="rgb(255,0,0)"' in svg
    assert ">5.0/-<" in svg
    # the four unbenchmarked qubits are hatched
    assert svg.count('fill="url(#hatch)"') == 4


def test_max_normalization_per_channel(cal):
    svg = render_device_map(_report({1: (0.02, 0.01), 2: (0.04, 0.04)}), cal, "rates")
    assert 'fill="rgb(255,0,255)"' in svg  # qubit 2 is the max in both channels
    assert 'fill="rgb(128,0,64)"' in svg  # qubit 1: half red, quarter blue
    assert ">2.0/1.0<" in svg and ">4.0/4.0<" in svg


def test_all_zero_estimates_render_black(cal):
    svg = render_device_map(_report({1: (0.0, 0.0), 2: (0.0, 0.0)}), cal, "rates")
    assert svg.count('fill="rgb(0,0,0)"') == 2
    assert ">0.0/0.0<" in svg


def test_calibration_mode_link_colors(cal):
    svg = render_device_map(_report({2: (0.05, 0.01)}), cal, "calibration")
    assert 'stroke="#888888"' in svg  # the 2.1% edge is over the 2% ceiling
    assert 'stroke="rgb(0,255,0)"' in svg  # the 2.0% edge at full green


def test_values_round_trip_at_one_decimal(cal):
    report = _report({1: (0.01234, 0.0567), 2: (0.02345, 0.0432)})
    svg = render_device_map(report, cal, "rates")
    printed = dict(
        zip(
            (1, 2),
            re.findall(r">([\d.]+)/([\d.]+)<", svg),
        )
    )
    for entry in report.to_dict()["qubits"]:
        bit, phase = printed[entry["qubit"]]
        assert bit == f"{100 * entry['rates']['p_01']['estimate']:.1f}"
        assert phase == f"{100 * entry['rates']['p_phase']['estimate']:.1f}"


def test_render_is_deterministic(cal):
    report = _report({1: (0.02, 0.01), 2: (0.04, 0.04)})
    assert render_device_map(report, cal, "rates") == render_device_map(report, cal, "rates")


def test_render_without_positions_uses_seeded_layout():
    cal = make_graph_cal(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert cal.positions is None
    report = _report({2: (0.05, 0.01)})
    a = render_device_map(report, cal, "rates")
    b = render_device_map(report, cal, "rates")
    assert a == b
    assert a.count("<circle") == 6


def test_render_rejects_empty_report(cal):
    with pytest.raises(ValueError):
        render_device_map({"qubits": []}, cal, "rates")
    with pytest.raises(ValueError):
        render_device_map(_report({2: (0.05, None)}), cal, "sideways")
