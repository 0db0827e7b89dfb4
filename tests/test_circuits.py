from __future__ import annotations

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from synbench import load_calibration
from synbench.circuits import (
    DD_SCOPES,
    ENCODINGS,
    Circuit,
    CircuitBuildError,
    Instruction,
    _timeline_order,
    build_repetition_circuit,
    idle_exposure,
    logical_prelude,
)
from synbench.device import canonical_edge, plan_device
from helpers import (
    assert_timeline_valid,
    aux_qubits,
    code_qubits,
    line_calibration_doc,
    make_line_cal,
    per_qubit,
    pipeline_circuits,
    pipeline_pairs,
    timeline_text,
    with_final_readout,
)
from oracles import insert_dynamical_decoupling, window_segments

LINE = (0, 1, 2, 3, 4)

# verified by hand against the documented schedule: two staggered cx layers
# per round, simultaneous aux readout, a reset after each of round 1's, the
# circuit ending with round 2's readout, every gap before it materialized
GOLDEN_T2_BITFLIP = """\
         0 prepare_z0 q[0] dur=0
         0 prepare_z0 q[1] dur=0
         0 prepare_z0 q[2] dur=0
         0 prepare_z0 q[3] dur=0
         0 prepare_z0 q[4] dur=0
         0 cx         q[0,1] dur=20
         0 cx         q[2,3] dur=20
         0 delay      q[4] dur=20
        20 delay      q[0] dur=20
        20 cx         q[2,1] dur=20
        20 cx         q[4,3] dur=20
        40 measure    q[1] dur=20
        40 measure    q[3] dur=20
        40 delay      q[0] dur=30
        40 delay      q[2] dur=30
        40 delay      q[4] dur=30
        60 reset      q[1] dur=10
        60 reset      q[3] dur=10
        70 cx         q[0,1] dur=20
        70 cx         q[2,3] dur=20
        70 delay      q[4] dur=20
        90 delay      q[0] dur=20
        90 cx         q[2,1] dur=20
        90 cx         q[4,3] dur=20
       110 measure    q[1] dur=20
       110 measure    q[3] dur=20
"""

# phase flip, logical 1, code-only echo and a 100 ns extra delay between the
# rounds on a line whose x, readout and cx durations all differ: each layer
# ends with its slowest gate, every qubit idles up to that end, and each
# code-qubit window of at least 2*x + 4 ns holds an echo pair; round 2's
# readout ends the circuit
GOLDEN_UNEQUAL_PHASEFLIP_ECHO = """\
         0 prepare_z0 q[0] dur=0
         0 prepare_z0 q[1] dur=0
         0 prepare_z0 q[2] dur=0
         0 prepare_z0 q[3] dur=0
         0 prepare_z0 q[4] dur=0
         0 x          q[0] dur=10
         0 x          q[2] dur=12
         0 delay      q[1] dur=16
         0 delay      q[3] dur=16
         0 x          q[4] dur=16
        10 delay      q[0] dur=6
        12 delay      q[2] dur=4
        16 h          q[0] dur=10
        16 h          q[2] dur=12
        16 delay      q[1] dur=16
        16 delay      q[3] dur=16
        16 h          q[4] dur=16
        26 delay      q[0] dur=6
        28 delay      q[2] dur=4
        32 cx         q[0,1] dur=20
        32 cx         q[2,3] dur=22
        32 delay      q[4] dur=22
        52 delay      q[0] dur=2
        52 delay      q[1] dur=2
        54 delay      q[0] dur=2 echoed
        54 cx         q[2,1] dur=26
        54 cx         q[4,3] dur=30
        56 x          q[0] dur=10
        66 delay      q[0] dur=6 echoed
        72 x          q[0] dur=10
        80 delay      q[1] dur=4
        80 delay      q[2] dur=4
        82 delay      q[0] dur=2 echoed
        84 delay      q[4] dur=3 echoed
        84 delay      q[2] dur=5 echoed
        84 delay      q[0] dur=6 echoed
        84 measure    q[1] dur=24
        84 measure    q[3] dur=36
        87 x          q[4] dur=16
        89 x          q[2] dur=12
        90 x          q[0] dur=10
       100 delay      q[0] dur=12 echoed
       101 delay      q[2] dur=10 echoed
       103 delay      q[4] dur=6 echoed
       108 reset      q[1] dur=14
       109 x          q[4] dur=16
       111 x          q[2] dur=12
       112 x          q[0] dur=10
       120 reset      q[3] dur=8
       122 delay      q[0] dur=6 echoed
       122 delay      q[1] dur=6
       123 delay      q[2] dur=5 echoed
       125 delay      q[4] dur=3 echoed
       128 delay      q[4] dur=17 echoed
       128 delay      q[2] dur=19 echoed
       128 delay      q[0] dur=20 echoed
       128 delay      q[1] dur=100
       128 delay      q[3] dur=100
       145 x          q[4] dur=16
       147 x          q[2] dur=12
       148 x          q[0] dur=10
       158 delay      q[0] dur=40 echoed
       159 delay      q[2] dur=38 echoed
       161 delay      q[4] dur=34 echoed
       195 x          q[4] dur=16
       197 x          q[2] dur=12
       198 x          q[0] dur=10
       208 delay      q[0] dur=20 echoed
       209 delay      q[2] dur=19 echoed
       211 delay      q[4] dur=17 echoed
       228 cx         q[0,1] dur=20
       228 cx         q[2,3] dur=22
       228 delay      q[4] dur=22
       248 delay      q[0] dur=2
       248 delay      q[1] dur=2
       250 delay      q[0] dur=2 echoed
       250 cx         q[2,1] dur=26
       250 cx         q[4,3] dur=30
       252 x          q[0] dur=10
       262 delay      q[0] dur=6 echoed
       268 x          q[0] dur=10
       276 delay      q[1] dur=4
       276 delay      q[2] dur=4
       278 delay      q[0] dur=2 echoed
       280 measure    q[1] dur=24
       280 measure    q[3] dur=36
"""


@pytest.fixture(scope="module")
def cal():
    return make_line_cal()


def build(cal, **kwargs):
    defaults = dict(encoding="bit_flip", logical_value=0)
    defaults.update(kwargs)
    return build_repetition_circuit(LINE, cal, **defaults)


def gate_shape(circuit):
    return [(i.kind, i.qubits) for i in circuit.instructions if i.kind != "delay"]


def test_golden_timeline(cal):
    assert timeline_text(build(cal)) == GOLDEN_T2_BITFLIP


def test_golden_timeline_with_unequal_durations():
    base = make_line_cal()
    durations = zip((10, 14, 12, 8, 16), (30, 24, 40, 36, 28))
    cal = replace(
        base,
        qubits=tuple(replace(base.qubits[0], x_ns=x, readout_ns=ro) for x, ro in durations),
        cx_duration_ns={canonical_edge(q, q + 1): d for q, d in enumerate((20, 26, 22, 30))},
    )
    circuit = build_repetition_circuit(LINE, cal, "phase_flip", 1, extra_delay_ns=100, dd_scope="code_only")
    assert timeline_text(circuit) == GOLDEN_UNEQUAL_PHASEFLIP_ECHO


def test_structure_matches_minimal_experiment(cal):
    circuit = build(cal)
    kinds = [i.kind for i in circuit.instructions]
    assert kinds.count("cx") == 8  # 4 per round
    assert kinds.count("measure") == 4  # 2 auxes x 2 rounds
    # both auxiliaries read out together, once per round
    measures = [i for i in circuit.instructions if i.kind == "measure"]
    assert [i.qubits for i in measures] == [(1,), (3,)] * 2 and measures[0].start == measures[1].start
    for a in aux_qubits(circuit):
        assert sum(1 for i in per_qubit(circuit)[a] if i.kind == "measure") == 2
    for c in code_qubits(circuit):
        assert sum(1 for i in per_qubit(circuit)[c] if i.kind == "measure") == 0


def test_logical_one_adds_x_on_code_qubits(cal):
    zero, one = build(cal), build(cal, logical_value=1)
    shape = gate_shape(one)
    assert shape[:5] == gate_shape(zero)[:5]  # preparations
    assert shape[5:8] == [("x", (q,)) for q in code_qubits(zero)]
    assert shape[8:] == gate_shape(zero)[5:]


def test_logical_one_circuit_is_its_prelude_then_the_logical_zero_circuit(falcon):
    # the logical-1 circuit is the preparations, the logical-1 prelude from
    # t = 0, and the rest of the logical-0 circuit started at the prelude's
    # end: every falcon27 pipeline pair at each dd_scope
    checked = 0
    for _, (none, prelude), (zero, one) in pipeline_pairs(falcon):
        assert none == () and {ins.kind for ins in prelude} == {"x", "delay"}
        end = max(ins.end for ins in prelude)
        preps, rest = zero.instructions[:5], zero.instructions[5:]
        assert {ins.kind for ins in preps} == {"prepare_z0"} and min(ins.start for ins in rest) == 0
        shifted = [ins._replace(start=ins.start + end) for ins in rest]
        assert one.instructions == tuple(sorted([*preps, *prelude, *shifted], key=_timeline_order))
        checked += 1
    assert checked == 3 * 42


@pytest.mark.parametrize("value", [True, False, 1.0, 2], ids=["true", "false", "float-one", "two"])
def test_logical_value_must_be_the_int_0_or_1(cal, value):
    # checked once, in logical_prelude, by the extra delay's rule: a bool or
    # a float is refused even where it equals 0 or 1
    with pytest.raises(CircuitBuildError, match="logical value must be 0 or 1"):
        logical_prelude(LINE, cal, value)
    with pytest.raises(CircuitBuildError, match="logical value must be 0 or 1"):
        build(cal, logical_value=value)


def test_phase_flip_adds_one_hadamard_layer(cal):
    bit, phase = build(cal), build(cal, encoding="phase_flip")
    hs = [("h", (q,)) for q in code_qubits(bit)]
    bit_gates = gate_shape(bit)
    # h right after the five preparations; nothing else changes
    assert gate_shape(phase) == bit_gates[:5] + hs + bit_gates[5:]


@pytest.mark.parametrize("encoding", ["bit_flip", "phase_flip"])
@pytest.mark.parametrize("logical_value", [0, 1])
@pytest.mark.parametrize("dd_scope", ["none", "all_qubits", "code_only"])
@pytest.mark.parametrize("extra", [0, 12_500])
def test_timeline_validity_across_variants(cal, encoding, logical_value, dd_scope, extra):
    circuit = build(
        cal,
        encoding=encoding,
        logical_value=logical_value,
        dd_scope=dd_scope,
        extra_delay_ns=extra,
    )
    assert_timeline_valid(circuit)


def test_dd_preserves_total_duration(cal):
    plain = build(cal, extra_delay_ns=10_000)
    echoed = insert_dynamical_decoupling(plain, cal, "all_qubits")
    assert echoed == build(cal, extra_delay_ns=10_000, dd_scope="all_qubits")
    assert max(i.end for i in echoed.instructions) == max(i.end for i in plain.instructions)
    assert_timeline_valid(echoed)


def test_builder_places_echo_pairs_as_the_reference_pass_does(falcon):
    # echo pairs placed while the idles are filled give the circuit the
    # reference pass makes of the plain build: every falcon27 line, encoding
    # and logical value, without and with the pipeline's extra delay
    lines = {q: line for q, line in plan_device(falcon).items() if line is not None}
    for (q, line), encoding, lv in itertools.product(sorted(lines.items()), ENCODINGS, (0, 1)):
        qc = falcon.qubits[q]
        for extra in (0, round(0.125 * (qc.t1_ns if encoding == "bit_flip" else qc.t2_ns))):
            plain = build_repetition_circuit(line, falcon, encoding, lv, extra_delay_ns=extra)
            for scope in ("all_qubits", "code_only"):
                echoed = build_repetition_circuit(line, falcon, encoding, lv, extra_delay_ns=extra, dd_scope=scope)
                assert echoed == insert_dynamical_decoupling(plain, falcon, scope), (q, encoding, lv, extra, scope)


@settings(max_examples=150, deadline=None)
@given(
    line=st.permutations(range(5)),
    x_ns=st.lists(st.sampled_from((20.0, 35.0, 36.0)), min_size=5, max_size=5),
    readout_ns=st.lists(st.sampled_from((300.0, 341.0, 346.0)), min_size=5, max_size=5),
    cx_ns=st.lists(st.sampled_from((300.0, 344.0, 374.0, 376.0)), min_size=4, max_size=4),
    encoding=st.sampled_from(ENCODINGS),
    logical_value=st.sampled_from((0, 1)),
    dd_scope=st.sampled_from(DD_SCOPES),
    extra=st.sampled_from((43, 44, 73, 74, 75, 76)) | st.integers(0, 2_000),
)
def test_random_lines_with_tied_durations(line, x_ns, readout_ns, cx_ns, encoding, logical_value, dd_scope, extra):
    # durations drawn from small sets tie starts and lengths, which the fixed
    # devices rarely do, and qubit ids out of line order tie-break the sort
    # differently from positions; cx differences and extra delays land on
    # the echo threshold 2*x + 4 (44, 74 and 76 ns) and next to it
    doc = line_calibration_doc()
    for q, x, ro in zip(doc["qubits"], x_ns, readout_ns):
        q.update(x_ns=x, readout_ns=ro)
    doc["cx_gates"] = [
        {"qubits": [a, b], "error": 0.01, "duration_ns": d} for (a, b), d in zip(zip(line, line[1:]), cx_ns)
    ]
    cal = load_calibration(json.dumps(doc))
    circuit = build_repetition_circuit(line, cal, encoding, logical_value, extra, dd_scope)
    assert_timeline_valid(circuit)
    if dd_scope != "none":
        plain = build_repetition_circuit(line, cal, encoding, logical_value, extra)
        assert circuit == insert_dynamical_decoupling(plain, cal, dd_scope)
    for q in line:
        assert idle_exposure(circuit, q) == sum(d for kind, d in window_segments(circuit, q) if kind == "delay")


def test_dd_split_arithmetic(cal):
    # 1000 ns with 35 ns pulses: 930 to split, remainder to the middle
    cal35 = make_line_cal(x_ns=35.0)
    circuit = build(cal35, extra_delay_ns=1_000, dd_scope="code_only")
    center_extra = [
        i for i in per_qubit(circuit)[2] if i.kind == "delay" and i.echoed and i.duration in (232, 466)
    ]
    assert sorted(i.duration for i in center_extra[:3]) == [232, 232, 466]
    assert sum(i.duration for i in center_extra[:3]) + 2 * 35 == 1_000


def test_dd_code_only_leaves_aux_delays_unechoed(cal):
    circuit = build(cal, extra_delay_ns=1_000, dd_scope="code_only")
    for a in aux_qubits(circuit):
        assert all(not i.echoed for i in per_qubit(circuit)[a] if i.kind == "delay")
        assert all(i.kind != "x" for i in per_qubit(circuit)[a])
    assert any(i.echoed for i in per_qubit(circuit)[2] if i.kind == "delay")


def test_dd_all_qubits_echoes_aux_delays(cal):
    circuit = build(cal, extra_delay_ns=1_000, dd_scope="all_qubits")
    for a in aux_qubits(circuit):
        assert any(i.echoed for i in per_qubit(circuit)[a] if i.kind == "delay")


def test_short_delay_passes_through_unchanged():
    cal35 = make_line_cal(x_ns=35.0, readout_ns=30.0, cx_ns=20.0)
    # code-qubit measurement window is 30 + 35 = 65 < 2*35 + 4: too short for
    # the echo pair
    circuit = build_repetition_circuit(LINE, cal35, "bit_flip", 0, dd_scope="all_qubits")
    window = [
        i
        for i in per_qubit(circuit)[2]
        if i.kind == "delay" and i.duration == 65
    ]
    assert window and all(not i.echoed for i in window)


def test_idle_exposure_is_measurement_window(cal):
    circuit = build(cal)
    # readout 20 ns + reset 10 ns, cross-checked by the independent walker
    assert idle_exposure(circuit, 2) == 30
    walker = sum(d for kind, d in window_segments(circuit, 2) if kind == "delay")
    assert walker == 30


def test_idle_exposure_extra_delay_is_additive(cal):
    base = idle_exposure(build(cal), 2)
    extra = idle_exposure(build(cal, extra_delay_ns=12_500), 2)
    assert extra == base + 12_500


def test_idle_exposure_of_aux_is_zero_while_measuring(cal):
    circuit = build(cal)
    assert idle_exposure(circuit, 1) == 0
    assert idle_exposure(circuit, 3) == 0


def test_idle_exposure_counts_delays_not_echo_pulses(cal):
    circuit = build(cal, extra_delay_ns=10_000, dd_scope="code_only")
    x_dur = max(1, round(cal.qubits[2].x_ns))
    # two echoed windows in round 1 (measurement window + extra delay), each
    # giving up 2 x pulses of delay time
    assert idle_exposure(circuit, 2) == 30 + 10_000 - 4 * x_dur


def test_idle_exposure_matches_walker_on_pipeline_circuits(falcon):
    # every falcon27 pipeline circuit at each dd_scope, for its centre qubit
    for _, circuit in pipeline_circuits(falcon):
        centre = circuit.line[2]
        walker = sum(d for kind, d in window_segments(circuit, centre) if kind == "delay")
        assert idle_exposure(circuit, centre) == walker > 0


def test_final_readout_keeps_builder_order(cal):
    # the appended readout sorts as the builder sorts and starts no earlier
    # than round 2's readout, so a stable sort by start, as compile_program
    # makes, keeps the builder's instructions first and in their order
    for encoding in ENCODINGS:
        circuit = build(cal, encoding=encoding, extra_delay_ns=100)
        read = with_final_readout(circuit, cal)
        n = len(circuit.instructions)
        assert read.instructions[:n] == circuit.instructions
        added = read.instructions[n:]
        assert list(added) == sorted(added, key=_timeline_order)
        assert list(read.instructions) == sorted(read.instructions, key=lambda i: i.start)
        assert [i.kind for i in added].count("measure") == 3


def test_idle_exposure_unknown_qubit(cal):
    with pytest.raises(KeyError):
        idle_exposure(build(cal), 9)


def test_idle_exposure_without_measurement_is_value_error():
    # a bare StopIteration here would surface as "generator raised
    # StopIteration" inside the run's program generator
    circuit = Circuit(LINE, (Instruction("prepare_z0", (2,), 0, 0), Instruction("delay", (2,), 0, 100)))
    with pytest.raises(ValueError, match="no measurement"):
        idle_exposure(circuit, 2)
    with pytest.raises(ValueError, match="no measurement"):
        list(idle_exposure(circuit, q) for q in (2,))


def test_invalid_line_rejected(cal):
    with pytest.raises(CircuitBuildError):
        build_repetition_circuit((0, 2, 1, 3, 4), cal)
    with pytest.raises(CircuitBuildError):
        build_repetition_circuit((0, 1, 2, 3), cal)
    with pytest.raises(CircuitBuildError, match="five qubits"):
        build_repetition_circuit(tuple(range(7)), make_line_cal(7))


@pytest.mark.parametrize(
    "line,kwargs,match",
    [
        ((0, 1, 2, 1, 0), {}, "repeated qubits"),
        (LINE, {"logical_value": 2}, "logical value must be 0 or 1"),
        (LINE, {"extra_delay_ns": -1}, "extra delay must be nonnegative"),
        (LINE, {"extra_delay_ns": 10.5}, "extra delay must be nonnegative integer"),
        (LINE, {"extra_delay_ns": float("nan")}, "extra delay must be nonnegative integer"),
        (LINE, {"extra_delay_ns": float("inf")}, "extra delay must be nonnegative integer"),
        (LINE, {"extra_delay_ns": "5"}, "extra delay must be nonnegative integer"),
        (LINE, {"extra_delay_ns": True}, "extra delay must be nonnegative integer"),
    ],
    ids=[
        "repeated-qubit",
        "logical-value-2",
        "negative-extra-delay",
        "fractional-extra-delay",
        "nan-extra-delay",
        "infinite-extra-delay",
        "string-extra-delay",
        "bool-extra-delay",
    ],
)
def test_builder_rejects_out_of_range_inputs(cal, line, kwargs, match):
    with pytest.raises(CircuitBuildError, match=match):
        build_repetition_circuit(line, cal, **kwargs)


def test_bad_encoding_and_scope_rejected(cal):
    with pytest.raises(CircuitBuildError):
        build(cal, encoding="spin_flip")
    with pytest.raises(CircuitBuildError):
        build(cal, dd_scope="everything")
