from __future__ import annotations

import itertools
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synbench.analysis import BOOTSTRAP_RESAMPLES, detection_events, estimate_from_moments, extract_idle_rates
from synbench.circuits import DD_SCOPES, Circuit, Instruction, build_repetition_circuit, logical_prelude
from synbench.device import load_calibration, plan_device
from synbench.noise import NoiseOptions, compile_noise
from synbench.simulator import BasisContractError, compile_program, pair_distribution, run_shots
from helpers import (
    ZERO_NOISE_OPTIONS,
    aux_qubits,
    code_qubits,
    insert_fault,
    load_bench_module,
    make_line_cal,
    pipeline_circuits,
    pipeline_pairs,
    random_line_cases,
    sample_records,
    sample_shots,
    with_final_readout,
    with_round_two_tail,
)
from oracles import (
    bincount_pair_counts,
    flip_pattern_counts,
    frame_shots,
    grouped_records,
    joined_ops,
    pair_cells,
    record_slots,
    record_table,
    reference_compile_program,
    reference_record_distribution,
    stacked_detection_events,
    window_flip_probability,
)

LINE = (0, 1, 2, 3, 4)

VARIANTS = [
    (encoding, lv, scope)
    for encoding in ("bit_flip", "phase_flip")
    for lv in (0, 1)
    for scope in ("none", "all_qubits", "code_only")
]


def build(cal, **kwargs):
    defaults = dict(encoding="bit_flip", logical_value=0)
    defaults.update(kwargs)
    return build_repetition_circuit(LINE, cal, **defaults)


def zero_noise(cal):
    return compile_noise(cal, ZERO_NOISE_OPTIONS)


def exact_record(circuit, noise) -> np.ndarray:
    """The one record a noise-free circuit can produce: the oracle's exact
    record distribution must be a point mass."""
    pi = reference_record_distribution(circuit, compile_program(circuit, noise))
    assert pi.max() == 1.0 and np.count_nonzero(pi) == 1
    return record_table(pi.size.bit_length() - 1)[int(pi.argmax())]


def fired_detectors(circuit, shots) -> set:
    """The oracle's detectors that fire in every shot; every other detector
    must be silent in every shot."""
    data, detectors = stacked_detection_events(circuit, shots)
    assert np.all(data.all(axis=0) | ~data.any(axis=0))
    return {det for det, col in zip(detectors, data.T) if col.all()}


def exact_round2_coincidence(circuit, noise) -> float:
    """P(both round-2 detectors of the center fire): the exact pair
    distribution's cell 3."""
    (pi,) = pair_distribution([compile_program(circuit, noise)])
    return float(pi[3])


@pytest.fixture(scope="module")
def cal():
    return make_line_cal()


@pytest.mark.parametrize("encoding,lv,scope", VARIANTS)
def test_contract_audit_accepts_all_builder_variants(cal, encoding, lv, scope):
    circuit = build(cal, encoding=encoding, logical_value=lv, dd_scope=scope, extra_delay_ns=2_000)
    compile_program(circuit, zero_noise(cal))


@pytest.mark.parametrize("encoding,lv,scope", VARIANTS)
def test_noise_free_parity_preservation(cal, encoding, lv, scope):
    circuit = with_final_readout(
        build(cal, encoding=encoding, logical_value=lv, dd_scope=scope, extra_delay_ns=1_000), cal
    )
    shots = sample_records(circuit, zero_noise(cal), 500, seed=11)
    slots = record_slots(circuit)
    assert not shots[:, [slots[a, r] for a in aux_qubits(circuit) for r in (1, 2)]].any()
    for q in code_qubits(circuit):
        assert (shots[:, slots[q, 1]] == lv).all()


def test_contract_rejects_measuring_x_basis_qubit(cal):
    circuit = with_final_readout(build(cal, encoding="phase_flip"), cal)
    final_h_start = max(i.start for i in circuit.instructions if i.kind == "h")
    stripped = replace(
        circuit,
        instructions=tuple(
            i for i in circuit.instructions if not (i.kind == "h" and i.start == final_h_start)
        ),
    )
    with pytest.raises(BasisContractError, match="X-basis"):
        compile_program(stripped, zero_noise(cal))


def test_contract_rejects_cx_between_two_x_basis_qubits(cal):
    instructions = (
        Instruction("prepare_z0", (0,), 0, 0),
        Instruction("prepare_z0", (1,), 0, 0),
        Instruction("h", (0,), 0, 10),
        Instruction("h", (1,), 0, 10),
        Instruction("cx", (0, 1), 10, 20),
        Instruction("h", (1,), 30, 10),
        Instruction("measure", (1,), 40, 20),
        Instruction("measure", (0,), 60, 20),
    )
    circuit = Circuit(line=(0, 1), instructions=instructions)
    with pytest.raises(BasisContractError, match="target"):
        compile_program(circuit, zero_noise(cal))


def test_contract_rejects_cx_between_line_non_neighbours(cal):
    instructions = (
        Instruction("prepare_z0", (0,), 0, 0),
        Instruction("prepare_z0", (2,), 0, 0),
        Instruction("cx", (0, 2), 0, 20),
        Instruction("measure", (0,), 20, 20),
        Instruction("measure", (2,), 20, 20),
    )
    circuit = Circuit(line=(0, 1, 2), instructions=instructions)
    with pytest.raises(BasisContractError, match="neighbours"):
        compile_program(circuit, zero_noise(cal))


@pytest.mark.parametrize(
    "edit,error,match",
    [
        (lambda c: c.instructions + (Instruction("y", (2,), 0, 0),), BasisContractError, "unknown instruction"),
    ],
    ids=["unknown-kind"],
)
def test_program_outside_the_tracked_model_is_refused(cal, edit, error, match):
    circuit = with_final_readout(build(cal), cal)
    edited = replace(circuit, instructions=edit(circuit))
    with pytest.raises(error, match=match):
        pair_distribution([compile_program(edited, zero_noise(cal))])


@pytest.mark.parametrize(
    "case,message",
    [
        ("x-off-the-line", r"^x at t=100 on qubits \(26,\): qubit 26 is not in the line$"),
        ("another-lines-prelude", r"^a prelude's delay at t=0 on qubits \(15,\): qubit 15 is not in the line$"),
        ("cx-off-the-device", r"^cx at t=0 on qubits \(0, 5\): the noise model has no cx error for \(0, 5\)$"),
    ],
)
def test_compile_names_the_instruction_it_cannot_place(falcon, case, message):
    # a gate on a qubit off the line, q12's logical-1 prelude on q7's line
    # (1, 4, 7, 10, 12), and a cx between line neighbours that are no
    # device edge each give one line naming the instruction, not a KeyError
    lines = plan_device(falcon)
    circuit, preludes = build_repetition_circuit(lines[7], falcon), ((),)
    if case == "x-off-the-line":
        circuit = replace(circuit, instructions=circuit.instructions + (Instruction("x", (26,), 100, 35),))
    elif case == "another-lines-prelude":
        preludes = (logical_prelude(lines[12], falcon, 1),)
    else:
        prepared = tuple(Instruction("prepare_z0", (q,), 0, 0) for q in (0, 5))
        circuit = Circuit((0, 5), (*prepared, Instruction("cx", (0, 5), 0, 300), Instruction("measure", (5,), 300, 700)))
    with pytest.raises(BasisContractError, match=message):
        compile_program(circuit, compile_noise(falcon), preludes)


@pytest.mark.parametrize("control_basis,target_basis", itertools.product("ZX", repeat=2))
def test_cx_error_flip_patterns_are_uniform_in_every_basis(control_basis, target_basis):
    # the 15 Paulis flip (control, target) by (0, 0), (0, 1), (1, 0), (1, 1)
    # 3, 4, 4 and 4 times, so a cx error is one of the three nonzero flip
    # pairs with probability 4 eps / 15 whatever the tracked bases
    assert flip_pattern_counts(control_basis, target_basis) == [3, 4, 4, 4]


def test_determinism_same_seed_same_bits(cal):
    circuit = build(cal, logical_value=1, extra_delay_ns=5_000)
    noise = compile_noise(cal)
    a = sample_shots(circuit, noise, 3_000, seed=42)
    b = sample_shots(circuit, noise, 3_000, seed=42)
    assert np.array_equal(a, b)
    c = sample_shots(circuit, noise, 3_000, seed=43)
    assert not np.array_equal(a, c)


def first_measure_start(circuit, qubit: int) -> int:
    return min(i.start for i in circuit.instructions if i.kind == "measure" and i.qubits == (qubit,))


def assert_fault_fires(faulted, cal, shots: int, fired: set, counts: list) -> None:
    """The faulted circuit, read out, gives one exact record in every shot,
    fires exactly the oracle's `fired` detectors, and the pipeline's pair
    counts of the circuit itself are `counts`."""
    read = with_final_readout(faulted, cal)
    records = sample_records(read, zero_noise(cal), shots, seed=3)
    assert (records == exact_record(read, zero_noise(cal))).all()
    assert fired_detectors(read, records) == fired
    assert detection_events(sample_shots(faulted, zero_noise(cal), shots, seed=3)).tolist() == counts


def test_injected_x_between_rounds_fires_round2_pair(cal):
    # center idles [40, 70) between the first round's measurement and the
    # second round's couplings
    faulted = insert_fault(build(cal, logical_value=1), qubit=2, time_ns=55, pauli="X")
    assert_fault_fires(faulted, cal, 200, {(1, 2), (3, 2)}, [0, 0, 0, 200])


def test_injected_z_in_phase_encoding_fires_same_pair(cal):
    circuit = build(cal, encoding="phase_flip", logical_value=0)
    faulted = insert_fault(circuit, qubit=2, time_ns=first_measure_start(circuit, 1) + 5, pauli="Z")
    assert_fault_fires(faulted, cal, 200, {(1, 2), (3, 2)}, [0, 0, 0, 200])


def test_injected_x_before_aux_measurement_fires_syndrome_pair(cal):
    circuit = build(cal)
    faulted = insert_fault(circuit, qubit=1, time_ns=first_measure_start(circuit, 1), pauli="X")
    assert_fault_fires(faulted, cal, 100, {(1, 1), (1, 2)}, [0, 0, 100, 0])


@pytest.mark.parametrize("encoding,pauli", [("bit_flip", "Z"), ("phase_flip", "X")])
def test_injected_commuting_pauli_is_invisible(cal, encoding, pauli):
    # a Z on a Z-basis centre, or an x on an X-basis centre, flips no
    # tracked bit
    faulted = insert_fault(build(cal, encoding=encoding, logical_value=1), qubit=2, time_ns=55, pauli=pauli)
    assert_fault_fires(faulted, cal, 100, set(), [100, 0, 0, 0])


def test_relaxation_frequency_matches_closed_form():
    # only the central qubit relaxes; the round-2 detector coincidence equals
    # the window flip probability
    base = make_line_cal()
    immortal = replace(base.qubits[0], t1_ns=math.inf, t2_ns=math.inf, t2_star_ns=math.inf)
    cal = replace(base, qubits=(immortal, immortal, base.qubits[2], immortal, immortal))
    circuit = build_repetition_circuit(
        LINE, cal, "bit_flip", 1, extra_delay_ns=12_500
    )
    noise = compile_noise(cal, NoiseOptions(disable=frozenset({"cx", "readout", "dephasing", "crosstalk"})))
    n = 200_000
    shots = sample_shots(circuit, noise, n, seed=99)
    coincidence = detection_events(shots)[3] / n
    expected = window_flip_probability(circuit, cal, 2, start_bit=1)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(coincidence - expected) <= 4 * sigma
    assert abs(exact_round2_coincidence(circuit, noise) - expected) <= 1e-12
    assert expected == pytest.approx(0.1178, abs=2e-4)  # 12_530 ns of T1 = 100 us


def test_cpmg_relaxation_frequency_matches_markov_composition():
    base = make_line_cal()
    immortal = replace(base.qubits[0], t1_ns=math.inf, t2_ns=math.inf, t2_star_ns=math.inf)
    cal = replace(base, qubits=(immortal, immortal, base.qubits[2], immortal, immortal))
    circuit = build_repetition_circuit(
        LINE, cal, "bit_flip", 1, extra_delay_ns=12_500, dd_scope="code_only"
    )
    noise = compile_noise(cal, NoiseOptions(disable=frozenset({"cx", "readout", "dephasing", "crosstalk"})))
    n = 200_000
    shots = sample_shots(circuit, noise, n, seed=17)
    coincidence = detection_events(shots)[3] / n
    expected = window_flip_probability(circuit, cal, 2, start_bit=1)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(coincidence - expected) <= 4 * sigma
    assert abs(exact_round2_coincidence(circuit, noise) - expected) <= 1e-12
    # the echo pair roughly halves the effective idle time
    assert expected == pytest.approx(1 - math.exp(-12_530 / 2 / 100_000), rel=0.05)


def test_readout_channel_linearity_at_small_p():
    # doubling a single small channel probability doubles the detector
    # coincidence rate
    rates = {}
    for p in (0.005, 0.01):
        base = make_line_cal()
        noisy_aux = replace(base.qubits[1], readout_error=p)
        cal = replace(
            base, qubits=(base.qubits[0], noisy_aux, base.qubits[2], base.qubits[3], base.qubits[4])
        )
        circuit = build_repetition_circuit(LINE, cal, "bit_flip", 0)
        noise = compile_noise(cal, NoiseOptions(disable=frozenset({"cx", "relaxation", "dephasing", "crosstalk"})))
        shots = sample_records(circuit, noise, 400_000, seed=23)
        # a round-1 readout flip on the auxiliary fires its (round 1, round 2)
        # detector pair
        data, detectors = stacked_detection_events(circuit, shots)
        rates[p] = float((data[:, detectors.index((1, 1))] & data[:, detectors.index((1, 2))]).mean())
    assert rates[0.01] == pytest.approx(2 * rates[0.005], rel=0.10)


@pytest.mark.parametrize("eta", [1.0, 0.3])
def test_readout_flips_cancel_in_the_shared_fault_inversion(falcon, eta):
    # an auxiliary's independent read-out flip moves its detector's mean but
    # no shared fault, so the exact estimate (N -> infinity) of every
    # falcon27 pipeline circuit at each dd_scope is the same with the read-out
    # channel off, though the cells are not
    circuits = [circuit for _, circuit in pipeline_circuits(falcon)]
    assert len(circuits) == 3 * 84
    moments, estimates = [], []
    for disable in ((), ("readout",)):
        noise = compile_noise(falcon, NoiseOptions(crosstalk_eta=eta, disable=disable))
        cells = np.array(pair_distribution(compile_program(circuit, noise) for circuit in circuits))
        v_i, v_j, joint = cells[:, 2] + cells[:, 3], cells[:, 1] + cells[:, 3], cells[:, 3]
        values, at_half, anticorrelated = estimate_from_moments(v_i, v_j, joint)
        assert not (at_half.any() or anticorrelated.any())
        moments.append(v_i)
        estimates.append(values)
    assert (moments[0] - moments[1]).min() > 1e-3
    assert np.abs(estimates[0] - estimates[1]).max() <= 1e-14


def test_crosstalk_first_overlap_rule_applies_once():
    # one certain relaxation event on qubit 0; its X-basis neighbor idles in
    # two consecutive segments that both overlap the decaying delay, and the
    # decay flips it once, with eta = 1
    instructions = (
        Instruction("prepare_z0", (0,), 0, 0),
        Instruction("prepare_z0", (1,), 0, 0),
        Instruction("x", (0,), 0, 10),
        Instruction("h", (1,), 0, 10),
        Instruction("delay", (0,), 10, 100),
        Instruction("delay", (1,), 10, 50),
        Instruction("delay", (1,), 60, 50),
        Instruction("h", (1,), 110, 10),
        Instruction("measure", (0,), 110, 20),
        Instruction("measure", (1,), 120, 20),
    )
    circuit = Circuit(line=(0, 1), instructions=instructions)
    cal = make_line_cal(2, t1_ns=0.01, t2_ns=0.02)  # decay within the window is certain
    noise = compile_noise(cal, NoiseOptions(crosstalk_eta=1.0, disable=frozenset({"dephasing", "readout", "cx"})))
    shots = sample_records(circuit, noise, 64, seed=1)
    assert (shots[:, 0] == 0).all()  # qubit 0 decayed
    assert (shots[:, 1] == 1).all()  # neighbor flipped exactly once


def test_crosstalk_rate_matches_event_parity_closed_form():
    # phase-flip code with echoed auxiliaries and only relaxation + crosstalk:
    # the extracted center rate equals the parity of the two auxiliaries'
    # decay events
    cal = make_line_cal()
    circuit = build_repetition_circuit(
        LINE, cal, "phase_flip", 0, extra_delay_ns=10_000, dd_scope="all_qubits"
    )
    noise = compile_noise(
        cal, NoiseOptions(crosstalk_eta=1.0, disable=frozenset({"cx", "readout", "dephasing"}))
    )
    n = 300_000
    shots = sample_shots(circuit, noise, n, seed=31)
    estimate = extract_idle_rates(detection_events(shots), seed=8)
    # aux echo pattern per extra-delay window: quarter in 0, x, middle in 1,
    # x, quarter in (1 if decayed)
    t1 = 100_000.0
    x = 10
    quarter = (10_000 - 2 * x) // 4
    middle = 10_000 - 2 * x - 2 * quarter
    f_mid = 1 - math.exp(-middle / t1)
    f_quarter = 1 - math.exp(-quarter / t1)
    a = f_mid * (1 - f_quarter)
    expected = 2 * a * (1 - a)
    assert estimate.estimate == pytest.approx(expected, abs=4 * max(estimate.stderr, 1e-4))


@pytest.mark.parametrize("lv", [0, 1])
@pytest.mark.parametrize("scope", ["none", "code_only"])
def test_fused_idle_channel_is_exact_markov_composition(lv, scope):
    # the center's idle window (echo pulses included) compiles to one
    # channel, folded into the cx that next couples the center, whose flip
    # probability away from the start bit is the oracle's
    cal = make_line_cal(p0=0.9)
    circuit = build(cal, logical_value=lv, extra_delay_ns=12_500, dd_scope=scope)
    ops = joined_ops(compile_program(circuit, compile_noise(cal)))
    # round 1 measures each auxiliary once, before any other measure
    last_measure = [k for k, op in enumerate(ops) if op[0] == "measure"][len(aux_qubits(circuit)) - 1]
    next_cx = next(op for op in ops[last_measure:] if op[0] == "cx" and 2 in op[1:3])
    up, down = next_cx[4] if next_cx[1] == 2 else next_cx[5]
    expected = window_flip_probability(circuit, cal, 2, start_bit=lv)
    assert abs((down if lv == 1 else up) - expected) <= 1e-12
    assert not any(op[0] == "decay" for op in ops)  # no crosstalk reads a bit-flip code


@pytest.mark.parametrize("scope", ["none", "all_qubits", "code_only"])
def test_fusion_keeps_exactly_the_tokens_crosstalk_reads(cal, scope):
    circuit = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope=scope)
    # every idle channel is folded into an op that reads its qubit, and a
    # relaxation stays an op only as a decay some neighbour receives, which
    # carries the channel of each qubit of its block
    ops = joined_ops(compile_program(circuit, compile_noise(cal)))
    assert {op[0] for op in ops} == {"decay", "cx", "measure"}
    for _, i, receivers, *_, channels in (op for op in ops if op[0] == "decay"):
        assert receivers and set(receivers) <= {i - 1, i + 1}
        assert len(channels) == max(i, *receivers) - min(i, *receivers) + 1


def test_reset_forgets_a_fault_before_it():
    # a reset is the channel (0, 1), which absorbs every channel before it:
    # an X on the left auxiliary at its round-1 reset's start leaves the
    # cells as they are, and at the reset's end it flips the auxiliary's
    # round-2 outcome, swapping d_left. The auxiliaries do not relax, so
    # nothing after the X tells a flipped auxiliary from one that was not.
    base = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    immortal = replace(base.qubits[1], t1_ns=math.inf, t2_ns=math.inf, t2_star_ns=math.inf)
    code = base.qubits[0]
    cal = replace(base, qubits=(code, immortal, code, immortal, code))
    circuit = build(cal, logical_value=1, extra_delay_ns=5_000)
    noise = compile_noise(cal)
    reset = next(ins for ins in circuit.instructions if ins.kind == "reset" and ins.qubits == (1,))
    faulted = [compile_program(insert_fault(circuit, 1, t, "X"), noise) for t in (reset.start, reset.end)]
    before, after, plain = pair_distribution([*faulted, compile_program(circuit, noise)])
    assert np.array_equal(before, plain)
    assert plain[0] > 0.5 and np.abs(after - plain[[2, 3, 0, 1]]).max() <= 1e-15


def test_preparation_error_flips_initial_states(cal):
    circuit = with_final_readout(build(cal), cal)
    noise = compile_noise(cal, NoiseOptions(prep_error=1.0, disable=frozenset({"cx", "readout", "relaxation", "dephasing", "crosstalk"})))
    shots = sample_records(circuit, noise, 50, seed=2)
    for q in code_qubits(circuit):
        assert (shots[:, record_slots(circuit)[q, 1]] == 1).all()


def test_shot_count_validation(cal):
    (pi,) = pair_distribution([compile_program(build(cal), zero_noise(cal))])
    with pytest.raises(ValueError):
        run_shots(pi, 0, seed=1)
    with pytest.raises(ValueError, match="4 cells"):
        run_shots(pi[:-1], 10, seed=1)


def op_qubits(op: tuple) -> tuple:
    """The line indices a compiled op reads or couples."""
    return op[1:3] if op[0] == "cx" else (op[1], *op[2]) if op[0] == "decay" else op[1:2]


@pytest.mark.parametrize("crosstalk", [True, False])
def test_no_op_is_a_preparation(falcon, crosstalk):
    # every preparation and round-1 reset folds into the op that next reads
    # its qubit: nothing follows an auxiliary's round-2 measure, and every
    # program ends with the two round-2 measures
    noise = compile_noise(falcon, NoiseOptions() if crosstalk else NoiseOptions(disable=frozenset({"crosstalk"})))
    checked = 0
    for _, circuit in pipeline_circuits(falcon):
        ops = compile_program(circuit, noise).ops
        assert {op[0] for op in ops} <= {"cx", "measure", "decay"}
        for a in (1, 3):
            touched = [k for k, op in enumerate(ops) if a in op_qubits(op)]
            round2 = [k for k in touched if ops[k][0] == "measure"][1]
            assert round2 == touched[-1] >= len(ops) - 2
        assert sorted(op[:2] for op in ops[-2:]) == [("measure", 1), ("measure", 3)]
        checked += 1
    assert checked == 3 * 84


def program_bytes(circuit: Circuit, noise, preludes=((),)) -> tuple:
    """A circuit's compiled ops, and its probability rows as bytes."""
    program = compile_program(circuit, noise, preludes)
    return program.ops, program.probs.tobytes()


@pytest.mark.parametrize(
    "options", [NoiseOptions(), NoiseOptions(crosstalk_eta=0.3, prep_error=0.02)], ids=["default", "weak_crosstalk"]
)
def test_round_two_tail_compiles_away(falcon, options):
    # a builder circuit's last two instructions are round 2's measures, and
    # the tail its circuits once had after them (round 2's resets, then the
    # closing barrier's delays, echoed at its dd_scope) leaves the program
    # bit-identical: every falcon27 pipeline circuit at each dd_scope
    noise = compile_noise(falcon, options)
    checked = 0
    for scope, circuit in pipeline_circuits(falcon):
        last = sorted((ins.kind, ins.qubits) for ins in circuit.instructions[-2:])
        assert last == sorted(("measure", (a,)) for a in aux_qubits(circuit))
        assert program_bytes(with_round_two_tail(circuit, falcon, scope), noise) == program_bytes(circuit, noise)
        checked += 1
    assert checked == 3 * 84


def test_round_two_tail_compiles_away_on_heavy_hex(monkeypatch):
    # the benchmark's seeded 129-qubit device at seed 1, its 500 pipeline
    # circuits at dd_scope none with default noise, as hh129_lowshot runs
    cal = load_calibration(json.dumps(load_bench_module("workloads", monkeypatch).heavy_hex_calibration(1)))
    noise = compile_noise(cal)
    circuits = [circuit for scope, circuit in pipeline_circuits(cal) if scope == "none"]
    assert len(circuits) == 500
    for circuit in circuits:
        assert program_bytes(with_round_two_tail(circuit, cal, "none"), noise) == program_bytes(circuit, noise)


def test_bit_flip_programs_ignore_crosstalk(falcon):
    # only an h puts a qubit in the X basis, so no delay of a bit-flip
    # circuit has a crosstalk receiver: every falcon27 bit-flip pipeline
    # circuit at each dd_scope compiles alike at eta 1 and 0
    on, off = (compile_noise(falcon, NoiseOptions(crosstalk_eta=eta)) for eta in (1.0, 0.0))
    bit_flip = [c for _, c in pipeline_circuits(falcon) if all(ins.kind != "h" for ins in c.instructions)]
    assert len(bit_flip) == 3 * 42
    for circuit in bit_flip:
        assert program_bytes(circuit, on) == program_bytes(circuit, off)


@pytest.mark.parametrize(
    "options", [NoiseOptions(prep_error=0.05), NoiseOptions(crosstalk_eta=0.3)], ids=["prep_error", "crosstalk_eta"]
)
def test_preparation_channels_match_explicit_preparations(falcon, options):
    # the library's lowering, with every preparation and reset a channel,
    # against the oracle's full-record walk over the lowering that keeps
    # each of them an op that marginalizes its qubit and sets it again,
    # folded to the round-2 pair's cells: every falcon27 pipeline circuit
    # at each dd_scope
    noise = compile_noise(falcon, options)
    checked = 0
    for _, circuit in pipeline_circuits(falcon):
        explicit = reference_compile_program(circuit, noise, explicit_preps=True)
        assert [op[0] for op in explicit.ops].count("prep") == 7  # five preparations, round 1's two resets
        (pi,) = pair_distribution([compile_program(circuit, noise)])
        assert np.abs(pi - pair_cells(circuit, reference_record_distribution(circuit, explicit))).max() <= 1e-14
        checked += 1
    assert checked == 3 * 84


def test_compile_program_matches_reference_lowering(falcon):
    # the one-sweep lowering against the oracle's sort-match-sort passes:
    # every falcon27 pipeline circuit at each dd_scope, a phase-flip circuit
    # with every qubit echoed and eta 0.3, faults at the time an instruction
    # starts and the extra delay's X-basis windows end (round 2's first cx
    # layer), and that circuit and the unfaulted one given their
    # instructions grouped by qubit, which a circuit sorts back into its
    # time order
    noise = compile_noise(falcon)
    cases = [(circuit, noise) for _, circuit in pipeline_circuits(falcon)]
    assert len(cases) == 3 * 84
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    weak = compile_noise(cal, NoiseOptions(crosstalk_eta=0.3))
    deep = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope="all_qubits")
    round2 = sorted({ins.start for ins in deep.instructions if ins.kind == "cx"})[2]
    faulted = insert_fault(insert_fault(deep, 2, round2, "Z"), 1, round2, "X")

    def grouped(circuit):
        return tuple(sorted(circuit.instructions, key=lambda ins: ins.qubits))

    # the grouped tuple is another order until a Circuit orders it
    assert grouped(faulted) != faulted.instructions
    cases += [(deep, weak), (faulted, weak)] + [(replace(c, instructions=grouped(c)), weak) for c in (faulted, deep)]
    for circuit, model in cases:
        assert compile_program(circuit, model) == reference_compile_program(circuit, model)
    tags = [op[0] for op in compile_program(faulted, weak).ops]
    assert (len(tags), tags.count("decay"), tags.count("measure")) == (18, 6, 4)


@pytest.mark.parametrize("dd_scope", DD_SCOPES)
def test_reordered_copies_compile_to_the_builders_program(falcon, dd_scope):
    # a circuit keeps its instructions in one stable sort by (start,
    # duration, qubits), so q7's bit-flip circuit given reversed, or grouped
    # by qubit, lists each preparation before the gates that start with it
    # and compiles to the builder's ops and row bytes
    circuit = build_repetition_circuit(plan_device(falcon)[7], falcon, "bit_flip", 0, 12_000, dd_scope)
    noise = compile_noise(falcon)
    program = compile_program(circuit, noise)
    for instructions in (circuit.instructions[::-1], sorted(circuit.instructions, key=lambda ins: ins.qubits)):
        copy = compile_program(Circuit(circuit.line, tuple(instructions)), noise)
        assert (copy.ops, copy.rows, copy.probs.tobytes()) == (program.ops, program.rows, program.probs.tobytes())


@pytest.mark.parametrize("seed", [1, 2])
def test_compile_program_matches_reference_lowering_on_heavy_hex(monkeypatch, seed):
    # the library's lowering against the oracle's on every pipeline circuit
    # of the benchmark's seeded 129-qubit device at each dd_scope
    doc = load_bench_module("workloads", monkeypatch).heavy_hex_calibration(seed)
    cal = load_calibration(json.dumps(doc))
    noise = compile_noise(cal)
    checked = 0
    for _, circuit in pipeline_circuits(cal):
        assert compile_program(circuit, noise) == reference_compile_program(circuit, noise)
        checked += 1
    assert checked == 3 * 4 * sum(line is not None for line in plan_device(cal).values())


def crosstalk_circuit(source: tuple[int, int], x_delays: dict[int, list[tuple[int, int]]]) -> Circuit:
    """Every line qubit prepared at 0; qubit 1 idles in the Z basis over
    `source` (start, end) and is then measured; each qubit of `x_delays`
    is turned to the X basis by an h at 0 and idles over its (start, end)
    delays, in that order."""
    ins = [Instruction("prepare_z0", (q,), 0, 0) for q in LINE]
    ins += [Instruction("h", (q,), 0, 0) for q in x_delays]
    ins += [Instruction("delay", (q,), s, e - s) for q, delays in x_delays.items() for s, e in delays]
    start, end = source
    ins += [Instruction("delay", (1,), start, end - start), Instruction("measure", (1,), end, 20)]
    return Circuit(LINE, tuple(sorted(ins, key=lambda i: i.start)))


@pytest.mark.parametrize(
    "x_delays, receivers",
    [
        ({2: [(10, 200), (20, 30)]}, (2,)),
        ({2: [(20, 30), (40, 45), (60, 70)]}, (2,)),
        ({2: [(60, 80)]}, (2,)),
        ({0: [(0, 50)], 2: [(100, 150)]}, ()),
        ({0: [(99, 100)], 2: [(0, 51)]}, (0, 2)),
        ({}, ()),
    ],
    ids=[
        "overlapping_delays_one_reaching_past_the_source",
        "only_the_last_delay_overlaps",
        "source_spans_the_whole_delay",
        "delays_touching_either_end",
        "both_neighbours",
        "no_x_basis_delay",
    ],
)
def test_crosstalk_receivers_match_reference_lowering(x_delays, receivers):
    # a decay over [50, 100) on qubit 1 is received by each line neighbour
    # with an X-basis delay that starts before 100 and ends after 50, and
    # the lowering equals the oracle's, which scans every X-basis delay
    noise = compile_noise(make_line_cal(p0=0.9), NoiseOptions(crosstalk_eta=0.3))
    circuit = crosstalk_circuit((50, 100), x_delays)
    program = compile_program(circuit, noise)
    assert program == reference_compile_program(circuit, noise)
    ops = program.ops
    assert [op[1:3] for op in ops if op[0] == "decay"] == ([(1, receivers)] if receivers else [])
    assert ops[-1][:2] == ("measure", 1)


def relaxing_delays_and_receivers(circuit, noise) -> list[tuple[int, tuple[int, ...]]]:
    """(line index, receivers) of each Z-basis delay that can decay and
    starts before the last measure, in instruction order, with the line
    neighbours that have an X-basis delay overlapping it; each qubit's basis
    is tracked through its h gates, preparations and resets."""
    line = circuit.line
    basis = dict.fromkeys(line, "Z")
    delays = {"Z": [], "X": []}
    for ins in circuit.instructions:
        q = ins.qubits[0]
        if ins.kind == "h":
            basis[q] = "X" if basis[q] == "Z" else "Z"
        elif ins.kind in ("prepare_z0", "reset"):
            basis[q] = "Z"
        elif ins.kind == "delay":
            delays[basis[q]].append(ins)
    last = max(ins.start for ins in circuit.instructions if ins.kind == "measure")
    out = []
    for ins in delays["Z"]:
        q = ins.qubits[0]
        if ins.start < last and noise.idle[q].channel(ins.duration, x_basis=False)[1] > 0.0:
            i = line.index(q)
            near = {line.index(x.qubits[0]) for x in delays["X"] if x.start < ins.end and x.end > ins.start}
            out.append((i, tuple(sorted(near & {i - 1, i + 1}))))
    return out


def test_each_decay_flips_exactly_its_overlapping_x_basis_neighbours(falcon):
    # no op is a relax or an xtalk, and the decays are exactly the Z-basis
    # delays with a line neighbour whose X-basis delay overlaps them, each
    # flipping those neighbours: every falcon27 pipeline circuit at each
    # dd_scope, and a phase-flip circuit with every qubit echoed
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    deep = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope="all_qubits")
    noise = compile_noise(falcon)
    cases = [(circuit, noise) for _, circuit in pipeline_circuits(falcon)] + [(deep, compile_noise(cal))]
    decays = 0
    for circuit, model in cases:
        ops = compile_program(circuit, model).ops
        assert {op[0] for op in ops} <= {"cx", "measure", "decay"}
        expected = [(i, receivers) for i, receivers in relaxing_delays_and_receivers(circuit, model) if receivers]
        assert [op[1:3] for op in ops if op[0] == "decay"] == expected
        decays += len(expected)
    assert decays > 0


def test_crosstalk_at_the_decay_matches_crosstalk_at_segment_end(falcon):
    # the library flips each receiver at the decay; the oracle's full-record
    # walk over the lowering that flips it at the end of the receiver's
    # first overlapping X-basis segment, folded to the round-2 pair's cells,
    # agrees on every falcon27 pipeline circuit at each dd_scope with eta
    # 1.0 and 0.3, on a phase-flip circuit with every qubit echoed and eta
    # 0.3, and on that circuit with faults where its X-basis windows end
    cases = [
        (circuit, noise)
        for noise in (compile_noise(falcon), compile_noise(falcon, NoiseOptions(crosstalk_eta=0.3)))
        for _, circuit in pipeline_circuits(falcon)
    ]
    assert len(cases) == 2 * 3 * 84
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    weak = compile_noise(cal, NoiseOptions(crosstalk_eta=0.3))
    deep = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope="all_qubits")
    round2 = sorted({ins.start for ins in deep.instructions if ins.kind == "cx"})[2]
    faulted = insert_fault(insert_fault(deep, 2, round2, "Z"), 1, round2, "X")
    cases += [(deep, weak), (faulted, weak)]
    for circuit, model in cases:
        segment_end = reference_compile_program(circuit, model, crosstalk_at_segment_end=True)
        (pi,) = pair_distribution([compile_program(circuit, model)])
        assert np.abs(pi - pair_cells(circuit, reference_record_distribution(circuit, segment_end))).max() <= 1e-14
    tags = [op[0] for op in reference_compile_program(faulted, weak, crosstalk_at_segment_end=True).ops]
    assert (len(tags), tags.count("xtalk"), tags.count("relax")) == (27, 9, 6)


@pytest.mark.parametrize("crosstalk", [True, False])
def test_pair_distribution_matches_reference_walk(falcon, crosstalk):
    # the pair walk against the oracle's slice-and-sum walk over full
    # records, folded to the round-2 pair's cells: every falcon27 pipeline
    # circuit at each dd_scope, a phase-flip circuit with every qubit echoed
    # and eta 0.3, and a circuit with an injected fault
    noise = compile_noise(falcon, NoiseOptions() if crosstalk else NoiseOptions(disable=frozenset({"crosstalk"})))
    circuits = [(circuit, noise) for _, circuit in pipeline_circuits(falcon)]
    assert len(circuits) == 3 * 84
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    deep = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope="all_qubits")
    circuits.append((deep, compile_noise(cal, NoiseOptions(crosstalk_eta=0.3))))
    faulted = insert_fault(build(cal, logical_value=1, extra_delay_ns=5_000), qubit=2, time_ns=55, pauli="Y")
    circuits.append((faulted, compile_noise(cal)))
    for circuit, model in circuits:
        program = compile_program(circuit, model)
        (pi,) = pair_distribution([program])
        records = reference_record_distribution(circuit, program)
        assert pi.shape == (4,) and records.shape == (16,)
        assert np.abs(pi - pair_cells(circuit, records)).max() <= 1e-14


@pytest.mark.parametrize("crosstalk", [True, False])
def test_final_readout_would_only_split_the_syndrome_records(falcon, crosstalk):
    # a parity bit is fixed once its qubit's last measure is done, so a
    # transversal code readout after the circuit's end only splits each of
    # its 4 cells by the code qubits' bits: on every falcon27 pipeline
    # circuit at each dd_scope, the 32 cells of the read-out circuit's five
    # measured qubits in line order, summed over the three code qubits, are
    # the circuit's own. Each pipeline circuit measures each auxiliary once
    # per round and ends with round 2's measures.
    noise = compile_noise(falcon, NoiseOptions() if crosstalk else NoiseOptions(disable=frozenset({"crosstalk"})))
    checked = 0
    for _, circuit in pipeline_circuits(falcon):
        measures = [ins for ins in circuit.instructions if ins.kind == "measure"]
        last = {ins.qubits[0] for ins in measures if ins.start == measures[-1].start}
        assert len(measures) == 4 and last == set(aux_qubits(circuit))
        read = with_final_readout(circuit, falcon)
        pi, full = pair_distribution([compile_program(circuit, noise), compile_program(read, noise)])
        assert pi.shape == (4,) and full.shape == (32,)
        assert np.abs(full.reshape((2,) * 5).sum(axis=(0, 2, 4)).ravel() - pi).max() <= 1e-14
        checked += 1
    assert checked == 3 * 84


@pytest.mark.parametrize(
    "options", [NoiseOptions(), NoiseOptions(crosstalk_eta=0.3, prep_error=0.02)], ids=["default", "weak_crosstalk"]
)
def test_prelude_rows_equal_each_logical_values_own_compile(falcon, monkeypatch, options):
    # the pipeline compiles a qubit's logical-0 circuit once with the
    # preludes of logical 0 and 1: row v has the ops and the row bytes of
    # the circuit built at logical value v, on every falcon27 pipeline
    # circuit at each dd_scope and on the 250 (qubit, encoding) pairs of
    # the benchmark's seed-1 heavy-hex device at dd_scope none
    heavy_hex = load_calibration(json.dumps(load_bench_module("workloads", monkeypatch).heavy_hex_calibration(1)))
    cases = [(falcon, case) for case in pipeline_pairs(falcon)]
    cases += [(heavy_hex, case) for case in pipeline_pairs(heavy_hex, ("none",))]
    assert len(cases) == 3 * 42 + 250
    models = {id(cal): compile_noise(cal, options) for cal in (falcon, heavy_hex)}
    for cal, (_, preludes, pair) in cases:
        noise = models[id(cal)]
        program = compile_program(pair[0], noise, preludes)
        rows = [program_bytes(circuit, noise) for circuit in pair]
        assert program.rows == 2 and all(ops == program.ops for ops, _ in rows)
        assert program.probs.tobytes() == b"".join(row for _, row in rows)


@pytest.mark.parametrize("kind, qubits", [("h", (2,)), ("cx", (2, 1)), ("measure", (1,))])
def test_a_prelude_holds_only_x_gates_and_delays(cal, kind, qubits):
    prelude = (Instruction("x", (2,), 0, 10), Instruction(kind, qubits, 10, 20))
    with pytest.raises(BasisContractError, match=f"prelude holds '{kind}'"):
        compile_program(build(cal), compile_noise(cal), ((), prelude))


def test_a_program_has_at_least_one_row(cal):
    with pytest.raises(ValueError, match="at least one row"):
        compile_program(build(cal), compile_noise(cal), ())


def spliced(circuit: Circuit, k: int, by: int, inserted: tuple) -> Circuit:
    """`circuit` with `inserted` placed before its k-th instruction, and
    that instruction and every later one moved `by` later."""
    ins = circuit.instructions
    moved = tuple(i._replace(start=i.start + by) for i in ins[k:])
    return replace(circuit, instructions=ins[:k] + inserted + moved)


FORK_CAL = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
FORK_OPTIONS = NoiseOptions(crosstalk_eta=0.3, prep_error=0.02)
LOGICAL = (), logical_prelude(LINE, FORK_CAL, 1, "code_only")


def reset_before_first_cx():
    # code qubit 0 idles, is reset and idles again between its preparation
    # and its first cx. A reset leaves exactly (0.0, 1.0) in every row,
    # since fl(fl(1 - w) + w) is 1 for every w in [0, 1], so this case
    # holds the rows but cannot tell a fork kept through the reset from one
    # dropped at it
    edit = (Instruction("delay", (0,), 0, 15), Instruction("reset", (0,), 15, 10), Instruction("delay", (0,), 25, 5))
    return spliced(build(FORK_CAL, extra_delay_ns=1_000), 5, 30, edit), LOGICAL


def prepared_again_before_first_cx():
    # the second preparation rounds each row's channel its own way, which
    # a prelude that only relaxes code qubit 0 keeps
    edit = (
        Instruction("delay", (0,), 0, 100),
        Instruction("prepare_z0", (0,), 100, 0),
        Instruction("delay", (0,), 100, 15),
    )
    relax = (Instruction("delay", (0,), 0, 100),)
    return spliced(build(FORK_CAL, extra_delay_ns=1_000), 5, 115, edit), (*LOGICAL, relax)


def read_first_by_a_decay():
    # after the h layer, code qubits 0 and 2 idle in the X basis while
    # auxiliary 1 relaxes beside them, so a decay block is the first op
    # to read all three
    circuit = build(FORK_CAL, encoding="phase_flip", extra_delay_ns=1_000, dd_scope="all_qubits")
    edit = tuple(Instruction("delay", (q,), 10, 30) for q in (0, 1, 2))
    return spliced(circuit, 10, 30, edit), ((), logical_prelude(LINE, FORK_CAL, 1, "all_qubits"))


def never_read_before_the_last_measure():
    # code qubit 4 loses its cx gates but one after the last measure
    ins = build(FORK_CAL, extra_delay_ns=1_000).instructions
    kept = tuple(i for i in ins if not (i.kind == "cx" and 4 in i.qubits))
    late = Instruction("cx", (4, 3), ins[-1].end + 10, 20)
    return Circuit(LINE, kept + (late,)), (*LOGICAL, (Instruction("x", (4,), 0, 10),))


def read_first_by_its_measure():
    # auxiliary 1 loses its round-1 cx gates, so its round-1 measure is
    # the first op to read it
    circuit = build(FORK_CAL, extra_delay_ns=1_000)
    first = first_measure_start(circuit, 1)
    ins = tuple(i for i in circuit.instructions if not (i.kind == "cx" and 1 in i.qubits and i.start < first))
    return replace(circuit, instructions=ins), LOGICAL


def three_preludes():
    # the third flips auxiliary 3 and idles code qubit 2
    aux = (Instruction("x", (3,), 0, 10), Instruction("delay", (2,), 0, 10))
    return build(FORK_CAL, extra_delay_ns=1_000), (LOGICAL[1], (), aux)


@pytest.mark.parametrize(
    "case",
    [
        reset_before_first_cx,
        prepared_again_before_first_cx,
        read_first_by_a_decay,
        never_read_before_the_last_measure,
        read_first_by_its_measure,
        three_preludes,
    ],
)
def test_each_row_is_its_own_preludes_compile_on_edited_circuits(case):
    # a qubit's rows part at its preparation and stay apart until an op
    # reads it, whatever acts on it between: row v is byte for byte the
    # circuit compiled with prelude v alone
    circuit, preludes = case()
    noise = compile_noise(FORK_CAL, FORK_OPTIONS)
    program = compile_program(circuit, noise, preludes)
    rows = [program_bytes(circuit, noise, (prelude,)) for prelude in preludes]
    assert program.rows == len(preludes) and all(ops == program.ops for ops, _ in rows)
    assert len({row for _, row in rows}) > 1
    assert program.probs.tobytes() == b"".join(row for _, row in rows)
    if case is read_first_by_a_decay:
        assert program.ops[0] == ("decay", 1, (0, 2))
    if case is never_read_before_the_last_measure:
        assert all(4 not in op_qubits(op) for op in program.ops)
    if case is read_first_by_its_measure:
        assert next(op for op in program.ops if 1 in op_qubits(op)) == ("measure", 1)


@pytest.mark.parametrize(
    "options",
    [
        NoiseOptions(),
        NoiseOptions(crosstalk_eta=0.3),
        NoiseOptions(prep_error=0.05),
        NoiseOptions(disable=frozenset({"crosstalk"})),
    ],
    ids=["eta-1", "eta-0.3", "prep-0.05", "no-crosstalk"],
)
def test_device_wide_walk_matches_each_programs_own_walk_exactly(falcon, options):
    # the pipeline walks every program of a device in one call; batching
    # changes no bit of any member's cells: every falcon27 pipeline circuit
    # at each dd_scope, against each program walked alone, with crosstalk
    # on and off
    noise = compile_noise(falcon, options)
    programs = [compile_program(circuit, noise) for _, circuit in pipeline_circuits(falcon)]
    assert len(programs) == 3 * 84 and len({p.ops for p in programs}) < len(programs) // 4
    together = pair_distribution(programs)
    alone = [pi for program in programs for pi in pair_distribution([program])]
    assert np.abs(np.array(together) - np.array(alone)).max() == 0.0


def test_pair_distribution_reads_its_programs_lazily(falcon):
    # each program's probability row is copied out on arrival and the
    # program released before the next one is asked for, so a device's
    # programs never sit in memory together
    noise = compile_noise(falcon)
    circuits = [circuit for scope, circuit in pipeline_circuits(falcon) if scope == "none"]
    released = []

    def programs():
        last = None
        for circuit in circuits:
            released.append(last is None or last() is None)
            box = [compile_program(circuit, noise)]
            last = weakref.ref(box[0])
            yield box.pop()

    cells = pair_distribution(programs())
    assert len(cells) == len(released) == 84 and all(released)
    assert all(np.array_equal(pi, pair_distribution([compile_program(c, noise)])[0]) for pi, c in zip(cells, circuits))


@settings(max_examples=250, deadline=None)
@given(case=random_line_cases())
def test_cells_match_the_reference_walk_on_random_lines(case):
    # the library's lowering and walk against the oracle's lowering and
    # full-record walk, on random per-qubit calibrations and options
    cal, options, kwargs = case
    circuit = build(cal, **kwargs)
    noise = compile_noise(cal, options)
    (pi,) = pair_distribution([compile_program(circuit, noise)])
    reference = pair_cells(circuit, reference_record_distribution(circuit, reference_compile_program(circuit, noise)))
    assert np.abs(pi - reference).max() <= 1e-14


@settings(max_examples=250, deadline=None)
@given(case=random_line_cases())
def test_logical_one_prelude_compiles_as_the_logical_one_circuit_on_random_lines(case):
    # the logical-0 circuit compiled with the logical-1 prelude against the
    # logical-1 circuit's own compile, byte for byte, on random per-qubit
    # calibrations and options; the 10-100 ns x durations make some
    # examples' preludes echo their barrier window. Compiled with both
    # preludes, in either order, or with one prelude twice, the rows are
    # those of the one-row compiles.
    cal, options, kwargs = case
    noise = compile_noise(cal, options)
    prelude = logical_prelude(LINE, cal, 1, kwargs["dd_scope"])
    circuit = build(cal, **dict(kwargs, logical_value=0))
    zero, one = program_bytes(circuit, noise), program_bytes(circuit, noise, (prelude,))
    assert one == program_bytes(build(cal, **dict(kwargs, logical_value=1)), noise)
    assert zero[0] == one[0]
    for preludes, rows in (
        (((), prelude), (zero, one)),
        ((prelude, ()), (one, zero)),
        (((), ()), (zero, zero)),
        ((prelude, prelude), (one, one)),
    ):
        assert program_bytes(circuit, noise, preludes) == (one[0], b"".join(row for _, row in rows))


def qubit_order_keeping_shuffle(instructions: tuple, rng) -> tuple:
    """`instructions` shuffled by `rng`, with the instructions on each
    operand tuple refilled in their given order."""
    own: dict[tuple, list] = {}
    for ins in instructions:
        own.setdefault(ins.qubits, []).append(ins)
    given_order = {qubits: iter(mine) for qubits, mine in own.items()}
    shuffled = list(instructions)
    rng.shuffle(shuffled)
    return tuple(next(given_order[ins.qubits]) for ins in shuffled)


@settings(max_examples=50, deadline=None)
@given(case=random_line_cases(), rng=st.randoms(use_true_random=False))
def test_shuffled_instructions_compile_to_the_builders_program_on_random_lines(case, rng):
    # a circuit and a prelude are ordered by one stable sort by (start,
    # duration, qubits), so the builder's circuit and the logical-1 prelude,
    # given in any order that keeps each operand tuple's own, are put back
    # in the builder's order and compile byte for byte as given by the
    # builder, on random per-qubit calibrations and options
    cal, options, kwargs = case
    noise = compile_noise(cal, options)
    circuit = build(cal, **kwargs)
    prelude = logical_prelude(LINE, cal, 1, kwargs["dd_scope"])
    shuffled = Circuit(circuit.line, qubit_order_keeping_shuffle(circuit.instructions, rng))
    preludes = ((), qubit_order_keeping_shuffle(prelude, rng))
    assert shuffled.instructions == circuit.instructions
    assert Circuit(LINE, preludes[1]).instructions == prelude
    assert program_bytes(shuffled, noise, preludes) == program_bytes(circuit, noise, ((), prelude))


def test_programs_of_different_structures_are_walked_apart():
    # an injected fault folds into its qubit's next op, so the faulted
    # circuit keeps its partner's ops and joins its batch with a matrix of
    # its own; a phase-flip program, whose ops differ, is walked on its
    # own. Each matches the oracle's walk.
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    noise = compile_noise(cal, NoiseOptions(crosstalk_eta=0.3))
    plain = build(cal, logical_value=1, extra_delay_ns=5_000)
    faulted = insert_fault(plain, qubit=2, time_ns=55, pauli="Y")
    phase = build(cal, encoding="phase_flip", extra_delay_ns=5_000, dd_scope="all_qubits")
    circuits = (faulted, phase, plain)
    programs = [compile_program(circuit, noise) for circuit in circuits]
    assert programs[0].ops == programs[2].ops != programs[1].ops
    for pi, circuit, program in zip(pair_distribution(programs), circuits, programs):
        assert np.abs(pi - pair_cells(circuit, reference_record_distribution(circuit, program))).max() <= 1e-14
        (alone,) = pair_distribution([program])
        assert np.abs(pi - alone).max() <= 1e-15


def test_shot_kernels_match_row_major_oracles(falcon):
    # run_shots' detector-major expansion and detection_events' popcount
    # pair counts against the row-major formulas they replaced, bit for
    # bit: every falcon27 pipeline circuit at 2k shots and those of the
    # default dd_scope at 100k, a phase-flip circuit with every qubit
    # echoed and eta 0.3, and a circuit with an injected fault
    noise = compile_noise(falcon)
    cases = [(circuit, noise, 2_000) for _, circuit in pipeline_circuits(falcon)]
    cases += [(circuit, noise, 100_000) for scope, circuit in pipeline_circuits(falcon) if scope == "code_only"]
    assert len(cases) == 4 * 84
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    deep = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope="all_qubits")
    cases.append((deep, compile_noise(cal, NoiseOptions(crosstalk_eta=0.3)), 100_000))
    faulted = insert_fault(build(cal, logical_value=1, extra_delay_ns=5_000), qubit=2, time_ns=55, pauli="Y")
    cases.append((faulted, compile_noise(cal), 2_000))
    for seed, (circuit, model, n) in enumerate(cases):
        (pi,) = pair_distribution([compile_program(circuit, model)])
        shots = run_shots(pi, n, seed)
        assert shots.dtype == np.uint8 and np.array_equal(shots, grouped_records(pi, n, seed))
        assert np.array_equal(detection_events(shots), bincount_pair_counts(shots[:, 0], shots[:, 1]))


def test_shot_and_detector_columns_are_contiguous(cal):
    # each detector's bits over all shots lie contiguous in memory, so each
    # of detection_events' popcounts is one pass over a contiguous column
    circuit = build(cal, logical_value=1, extra_delay_ns=5_000)
    shots = sample_shots(circuit, compile_noise(cal), 1_000, seed=5)
    assert shots.shape == (1_000, 2) and shots.T.flags.c_contiguous
    assert shots[:, 0].flags.c_contiguous and shots[:, 1].flags.c_contiguous


def binned_chi_square(counts: np.ndarray, pi: np.ndarray) -> tuple[float, int]:
    """Pearson chi-square of `counts` against pi and its degrees of freedom.
    The cells with the smallest expected counts share one bin, grown until
    every bin expects at least 5."""
    expected = counts.sum() * pi
    order = np.argsort(expected)
    merged = max(int(np.searchsorted(np.cumsum(expected[order]), 5.0)) + 1, int((expected < 5).sum()))
    rest, kept = order[:merged], order[merged:]
    observed = np.append(counts[kept], counts[rest].sum())
    expected = np.append(expected[kept], expected[rest].sum())
    return float(((observed - expected) ** 2 / expected).sum()), len(observed) - 1


def pooled_p_value(samples) -> float:
    """Upper-tail p-value of the chi-square pooled over (cell counts, pi)
    pairs."""
    chi2, dof = 0.0, 0
    for counts, pi in samples:
        stat, df = binned_chi_square(counts, pi)
        chi2 += stat
        dof += df
    # Wilson-Hilferty: (chi2/dof)**(1/3) is close to normal for large dof
    z = ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    return 0.5 * math.erfc(z / math.sqrt(2))


def test_record_distribution_matches_frame_sampler(falcon):
    # every falcon27 circuit the pipeline builds, at each dd_scope, with
    # crosstalk on: the oracle's exact full-record distribution against
    # per-shot frame tracking, one pooled chi-square over the 2**4-cell
    # records that fails below p = 1e-3
    noise = compile_noise(falcon)
    framed = []
    for _, circuit in pipeline_circuits(falcon):
        program = compile_program(circuit, noise)
        pi = reference_record_distribution(circuit, program)
        assert pi.shape == (16,) and pi.min() >= 0.0
        assert abs(pi.sum() - 1.0) <= 1e-12
        records = frame_shots(circuit, program, 20_000, len(framed))
        framed.append((np.bincount(records.astype(np.intp) @ [8, 4, 2, 1], minlength=16), pi))
    assert len(framed) == 3 * 84
    assert pooled_p_value(framed) > 1e-3


def test_pipeline_pair_counts_match_exact_cells(falcon):
    # the draw path the pipeline runs, run_shots then detection_events, on
    # every falcon27 circuit it builds at each dd_scope, with crosstalk on:
    # one pooled chi-square of the pair counts against the exact cells that
    # fails below p = 1e-3; a table out of step with the cells fails it
    noise = compile_noise(falcon)
    drawn = []
    for _, circuit in pipeline_circuits(falcon):
        (pi,) = pair_distribution([compile_program(circuit, noise)])
        assert abs(pi.sum() - 1.0) <= 1e-12 and pi.min() >= 0.0
        drawn.append((detection_events(run_shots(pi, 20_000, len(drawn))), pi))
    assert len(drawn) == 3 * 84
    assert pooled_p_value(drawn) > 1e-3


def test_resamples_after_a_circuits_shots_are_multinomial(falcon):
    # a circuit's bootstrap continues the generator that drew its shots, as
    # the pipeline draws them: over falcon27's code_only circuits at three
    # seeds, one pooled chi-square of every resample row against
    # Multinomial(n, counts / n) of the counts it resamples fails below
    # p = 1e-3
    noise = compile_noise(falcon)
    programs = [compile_program(c, noise) for scope, c in pipeline_circuits(falcon) if scope == "code_only"]
    n = 2_000
    rows = []
    for circuit, pi in enumerate(pair_distribution(programs)):
        for seed in range(3):
            rng = np.random.default_rng((seed, circuit))
            p = detection_events(run_shots(pi, n, rng)) / n
            rows += [(row, p) for row in rng.multinomial(n, p, size=BOOTSTRAP_RESAMPLES)]
    assert len(rows) == 3 * 84 * BOOTSTRAP_RESAMPLES
    assert pooled_p_value(rows) > 1e-3
