from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from synbench.device import CalibrationError, QubitCalibration, enumerate_lines, load_calibration, plan_device, select_line
from conftest import FALCON_LEAVES, falcon_bytes
from helpers import load_bench_module, make_graph_cal, make_line_cal, random_graph_edges
from oracles import brute_force_lines


def test_falcon_fixture_shape(falcon):
    assert falcon.qubit_count == 27
    assert len(falcon.edges) == 28
    assert sorted(q for q in range(27) if len(falcon.adjacency[q]) == 1) == list(FALCON_LEAVES)


def test_qubit7_has_a_unique_line(falcon):
    lines = enumerate_lines(falcon, 7)
    assert [ln.qubits for ln in lines] == [(1, 4, 7, 10, 12)]


def test_qubit22_has_four_lines(falcon):
    lines = enumerate_lines(falcon, 22)
    assert {ln.qubits for ln in lines} == {
        (16, 19, 22, 25, 24),
        (16, 19, 22, 25, 26),
        (20, 19, 22, 25, 24),
        (20, 19, 22, 25, 26),
    }


def test_leaf_qubits_have_no_lines(falcon):
    for leaf in FALCON_LEAVES:
        assert enumerate_lines(falcon, leaf) == []


def test_enumerate_rejects_unknown_center(falcon):
    with pytest.raises(ValueError):
        enumerate_lines(falcon, 27)


def test_load_rejects_out_of_range_probability():
    doc = json.loads(falcon_bytes())
    doc["cx_gates"][0]["error"] = 1.2
    with pytest.raises(CalibrationError):
        load_calibration(json.dumps(doc))


def test_load_rejects_negative_duration():
    doc = json.loads(falcon_bytes())
    doc["qubits"][3]["t1_ns"] = -5.0
    with pytest.raises(CalibrationError):
        load_calibration(json.dumps(doc))


def test_load_rejects_dangling_edge():
    doc = json.loads(falcon_bytes())
    doc["cx_gates"][0]["qubits"] = [0, 99]
    with pytest.raises(CalibrationError):
        load_calibration(json.dumps(doc))


def test_load_rejects_duplicate_edge():
    doc = json.loads(falcon_bytes())
    doc["cx_gates"].append(dict(doc["cx_gates"][0]))
    with pytest.raises(CalibrationError):
        load_calibration(json.dumps(doc))


@pytest.mark.parametrize("name", [["x"], 5, None])
def test_load_rejects_non_string_name(name):
    doc = json.loads(falcon_bytes())
    doc["name"] = name
    with pytest.raises(CalibrationError, match="name must be a string"):
        load_calibration(json.dumps(doc))


def test_load_rejects_non_json(tmp_path):
    with pytest.raises(CalibrationError):
        load_calibration(b"not json {")
    # a str is JSON text, also when a file of that name exists
    path = tmp_path / "falcon27.json"
    path.write_bytes(falcon_bytes())
    with pytest.raises(CalibrationError, match="not valid JSON"):
        load_calibration(str(path))


def test_load_rejects_a_source_of_another_type():
    with pytest.raises(CalibrationError, match="cannot read calibration from int"):
        load_calibration(5)


@pytest.mark.parametrize(
    "cx_error,cx_duration_ns,match",
    [
        ({(0, 1): 0.01}, {}, "same edges"),
        ({(1, 0): 0.01}, {(1, 0): 20.0}, "canonical order"),
    ],
    ids=["edge-without-duration", "reversed-edge"],
)
def test_direct_construction_checks_the_edges(cx_error, cx_duration_ns, match):
    # load_calibration never builds these; a library caller can
    with pytest.raises(CalibrationError, match=match):
        replace(make_line_cal(2), cx_error=cx_error, cx_duration_ns=cx_duration_ns)


@pytest.mark.parametrize("value", ["a", None, True])
def test_direct_qubit_construction_refuses_a_non_number(value):
    # load_calibration checks each value first; a library caller may pass anything
    required = {"t1_ns": 1.0, "t2_ns": 1.0, "readout_ns": 1.0}
    for name in [f.name for f in fields(QubitCalibration) if not (f.name == "t2_star_ns" and value is None)]:
        with pytest.raises(CalibrationError, match=f"^{name} must be a"):
            QubitCalibration(**{**required, name: value})


def test_missing_t2_star_defaults_to_half_t2():
    doc = json.loads(falcon_bytes())
    entry = doc["qubits"][0]
    entry.pop("t2_star_ns", None)
    cal = load_calibration(json.dumps(doc))
    assert cal.qubits[0].t2_star_ns == pytest.approx(0.5 * entry["t2_ns"])


def test_missing_p0_and_readout_error_defaults():
    doc = json.loads(falcon_bytes())
    doc["qubits"][1].pop("p0", None)
    doc["qubits"][1].pop("readout_error", None)
    cal = load_calibration(json.dumps(doc))
    assert cal.qubits[1].p0 == 1.0
    assert cal.qubits[1].readout_error == 0.01


def test_t2_above_2t1_warns_but_loads():
    doc = json.loads(falcon_bytes())
    doc["qubits"][2]["t2_ns"] = 2.5 * doc["qubits"][2]["t1_ns"]
    doc["qubits"][2]["t2_star_ns"] = doc["qubits"][2]["t1_ns"]
    with pytest.warns(UserWarning, match="exceeds 2\\*t1") as record:
        cal = load_calibration(json.dumps(doc))
    # the warning names the code that loaded the calibration
    assert [w.filename for w in record] == [__file__]
    assert cal.qubit_count == 27


def test_select_prefers_smaller_center_error():
    # 7-vertex path lets qubit 3 sit at the center of several lines
    cal = make_graph_cal(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        cx_errors={(2, 3): 0.02, (3, 4): 0.01},
    )
    lines = enumerate_lines(cal, 3)
    assert len(lines) == 1
    assert select_line(cal, lines).qubits == (1, 2, 3, 4, 5)


def test_select_two_key_rule():
    # star of paths around center 0: both candidates share max center error,
    # second key decides
    edges = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
    cal = make_graph_cal(
        7,
        edges,
        cx_errors={
            (0, 1): 0.02, (0, 2): 0.02, (0, 3): 0.02,
            (1, 4): 0.03, (2, 5): 0.02, (3, 6): 0.02,
        },
    )
    chosen = select_line(cal, enumerate_lines(cal, 0))
    assert chosen.max_cx_center == pytest.approx(0.02)
    # the (1,4) edge carries 0.03, so any line through qubit 1 loses
    assert 1 not in chosen.qubits
    assert chosen.max_cx_all == pytest.approx(0.02)


def test_select_discards_lines_with_cx_over_half():
    cal = make_graph_cal(5, [(0, 1), (1, 2), (2, 3), (3, 4)], cx_errors={(1, 2): 0.6})
    assert select_line(cal, enumerate_lines(cal, 2)) is None


def test_select_keeps_error_exactly_at_half():
    cal = make_graph_cal(5, [(0, 1), (1, 2), (2, 3), (3, 4)], cx_errors={(1, 2): 0.5})
    assert select_line(cal, enumerate_lines(cal, 2)) is not None


def test_select_direct_comparison_on_center_key():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
    cal = make_graph_cal(
        7, edges, cx_errors={(2, 3): 0.02, (2, 5): 0.01, (1, 2): 0.005}
    )
    chosen = select_line(cal, enumerate_lines(cal, 2))
    assert 5 in chosen.qubits and 3 not in chosen.qubits


def test_select_is_permutation_invariant():
    cal = make_graph_cal(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (1, 6)],
    )
    lines = enumerate_lines(cal, 2)
    assert len(lines) > 1
    baseline = select_line(cal, lines)
    assert select_line(cal, list(reversed(lines))) == baseline
    rotated = lines[1:] + lines[:1]
    assert select_line(cal, rotated) == baseline


def test_select_rejects_mixed_centers(falcon):
    with pytest.raises(ValueError, match="mixed"):
        select_line(falcon, enumerate_lines(falcon, 7) + enumerate_lines(falcon, 22))


def test_select_of_nothing_is_none(falcon):
    assert select_line(falcon, []) is None


def test_plan_uniform_falcon(falcon):
    uniform = make_graph_cal(27, falcon.edges)
    plan = plan_device(uniform)
    benchmarkable = {q for q, line in plan.items() if line is not None}
    assert benchmarkable == set(range(27)) - set(FALCON_LEAVES)
    assert plan[7].qubits == (1, 4, 7, 10, 12)


def test_plan_path_graph_has_single_center():
    cal = make_line_cal(5)
    plan = plan_device(cal)
    assert plan[2].qubits == (0, 1, 2, 3, 4)
    assert all(plan[q] is None for q in (0, 1, 3, 4))


def test_plan_empty_graph_is_all_none():
    cal = make_graph_cal(6, [])
    assert all(line is None for line in plan_device(cal).values())


def test_plan_matches_select_of_enumerate(falcon):
    plan = plan_device(falcon)
    for q in range(falcon.qubit_count):
        assert plan[q] == select_line(falcon, enumerate_lines(falcon, q))


def test_enumeration_matches_brute_force_on_seeded_graphs():
    for seed in range(30):
        n, edges = random_graph_edges(seed)
        cal = make_graph_cal(n, edges)
        for center in range(n):
            got = {ln.qubits for ln in enumerate_lines(cal, center)}
            assert got == brute_force_lines(edges, n, center), (seed, center)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_enumerated_lines_are_simple_centered_and_edge_valid(seed):
    n, edges = random_graph_edges(seed)
    cal = make_graph_cal(n, edges)
    canon = {tuple(sorted(e)) for e in edges}
    for center in range(n):
        lines = enumerate_lines(cal, center)
        seen = set()
        for ln in lines:
            assert len(set(ln.qubits)) == 5
            assert ln.qubits[2] == center
            assert ln.qubits[0] < ln.qubits[-1]
            assert all(tuple(sorted(p)) in canon for p in zip(ln.qubits, ln.qubits[1:]))
            assert ln.qubits not in seen
            seen.add(ln.qubits)


@pytest.mark.parametrize(
    "n, edges, want",
    [
        (5, [(3, 4), (1, 2), (0, 1), (2, 3)], {k: (k, 0) for k in range(5)}),
        (6, [(k, (k + 1) % 6) for k in range(6)], {0: (0, 0), 1: (1, -0.5), 5: (1, 0.5), 2: (2, -0.5), 4: (2, 0.5), 3: (3, 0)}),
        (3, [], {0: (0, 0), 1: (1, 0), 2: (2, 0)}),
        (5, [(1, 3), (3, 4), (0, 2)], {0: (0, 0), 2: (1, 0), 1: (2, 0), 3: (3, 0), 4: (4, 0)}),
    ],
    ids=["path", "ring", "no_edges", "two_components_by_lowest_qubit"],
)
def test_layout_is_breadth_first_columns(n, edges, want):
    assert make_graph_cal(n, edges).layout == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layout_gives_every_qubit_its_own_point(seed):
    n, edges = random_graph_edges(seed)
    assert len(set(make_graph_cal(n, edges).layout.values())) == n


def test_heavy_hex_edges_each_span_one_column(monkeypatch):
    n, edges = load_bench_module("workloads", monkeypatch).heavy_hex_edges()
    layout = make_graph_cal(n, edges).layout
    assert n == 129 and all(abs(layout[a][0] - layout[b][0]) == 1 for a, b in edges)
