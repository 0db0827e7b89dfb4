from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from synbench.analysis import detection_events, extract_idle_rates
from synbench.circuits import DD_SCOPES, ENCODINGS, Circuit, Instruction, build_repetition_circuit
from synbench.device import plan_device
from synbench.noise import NoiseOptions, compile_noise
from synbench.simulator import BasisContractError, _structure, compile_program, pair_distribution, run_shots
from helpers import (
    ZERO_NOISE_OPTIONS,
    aux_qubits,
    code_qubits,
    insert_fault,
    make_line_cal,
    sample_records,
    sample_shots,
    with_final_readout,
)
from oracles import (
    bincount_pair_counts,
    flip_pattern_counts,
    frame_shots,
    grouped_records,
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
    (pi,) = pair_distribution(compile_program(circuit, noise))
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
    circuit = Circuit(line=(0, 1), instructions=instructions, encoding="bit_flip", logical_value=0)
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
    circuit = Circuit(line=(0, 1, 2), instructions=instructions, encoding="bit_flip", logical_value=0)
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
        pair_distribution(compile_program(edited, zero_noise(cal)))


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


def test_crosstalk_first_overlap_rule_applies_once():
    # one certain relaxation event on qubit 0; its X-basis neighbor idles in
    # two consecutive segments, and only the first overlapping one takes the
    # eta = 1 flip
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
    circuit = Circuit(line=(0, 1), instructions=instructions, encoding="phase_flip", logical_value=0)
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
    ops = compile_program(circuit, compile_noise(cal)).ops
    # round 1 measures each auxiliary once, before any other measure
    last_measure = [k for k, op in enumerate(ops) if op[0] == "measure"][len(aux_qubits(circuit)) - 1]
    next_cx = next(op for op in ops[last_measure:] if op[0] == "cx" and 2 in op[1:3])
    up, down = next_cx[4] if next_cx[1] == 2 else next_cx[5]
    expected = window_flip_probability(circuit, cal, 2, start_bit=lv)
    assert abs((down if lv == 1 else up) - expected) <= 1e-12
    assert not any(op[0] == "relax" for op in ops)  # no crosstalk reads a bit-flip code


@pytest.mark.parametrize("scope", ["none", "all_qubits", "code_only"])
def test_fusion_keeps_exactly_the_tokens_crosstalk_reads(cal, scope):
    circuit = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope=scope)
    # every idle channel is folded into an op that reads its qubit, and
    # the kept tokens are numbered in creation order
    ops = compile_program(circuit, compile_noise(cal)).ops
    assert {op[0] for op in ops} == {"prep", "relax", "cx", "measure", "xtalk"}
    read = {token for op in ops if op[0] == "xtalk" for token, _ in op[2]}
    kept = [op[2] for op in ops if op[0] == "relax"]
    assert read and kept == sorted(read) == list(range(len(kept)))


def test_preparation_error_flips_initial_states(cal):
    circuit = with_final_readout(build(cal), cal)
    noise = compile_noise(cal, NoiseOptions(prep_error=1.0, disable=frozenset({"cx", "readout", "relaxation", "dephasing", "crosstalk"})))
    shots = sample_records(circuit, noise, 50, seed=2)
    for q in code_qubits(circuit):
        assert (shots[:, record_slots(circuit)[q, 1]] == 1).all()


def test_shot_count_validation(cal):
    (pi,) = pair_distribution(compile_program(build(cal), zero_noise(cal)))
    with pytest.raises(ValueError):
        run_shots(pi, 0, seed=1)
    with pytest.raises(ValueError, match="4 cells"):
        run_shots(pi[:-1], 10, seed=1)


def pipeline_circuits(cal):
    """Every circuit the pipeline builds for `cal` at each dd_scope, with
    the default extra delay."""
    lines = {q: line for q, line in plan_device(cal).items() if line is not None}
    for scope, (q, line), encoding, lv in itertools.product(DD_SCOPES, sorted(lines.items()), ENCODINGS, (0, 1)):
        qc = cal.qubits[q]
        extra = round(0.125 * (qc.t1_ns if encoding == "bit_flip" else qc.t2_ns))
        yield scope, build_repetition_circuit(line, cal, encoding, lv, extra_delay_ns=extra, dd_scope=scope)


def test_compile_program_matches_reference_lowering(falcon):
    # the one-sweep lowering against the oracle's sort-match-sort passes:
    # every falcon27 pipeline circuit at each dd_scope, a phase-flip circuit
    # with every qubit echoed and eta 0.3, faults at the time an instruction
    # starts and an xtalk resolves (round 2's first cx layer, where the
    # extra delay's X-basis windows end), and that circuit and the
    # unfaulted one with their instructions grouped by qubit instead of in
    # time order
    noise = compile_noise(falcon)
    cases = [(circuit, noise) for _, circuit in pipeline_circuits(falcon)]
    assert len(cases) == 3 * 84
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    weak = compile_noise(cal, NoiseOptions(crosstalk_eta=0.3))
    deep = build(cal, encoding="phase_flip", extra_delay_ns=10_000, dd_scope="all_qubits")
    round2 = sorted({ins.start for ins in deep.instructions if ins.kind == "cx"})[2]
    faulted = insert_fault(insert_fault(deep, 2, round2, "Z"), 1, round2, "X")

    def by_qubit(circuit):
        return replace(circuit, instructions=tuple(sorted(circuit.instructions, key=lambda ins: ins.qubits)))

    assert by_qubit(faulted).instructions != faulted.instructions
    cases += [(deep, weak), (faulted, weak), (by_qubit(faulted), weak), (by_qubit(deep), weak)]
    for circuit, model in cases:
        assert compile_program(circuit, model) == reference_compile_program(circuit, model)
    tags = [op[0] for op in compile_program(faulted, weak).ops]
    assert (len(tags), tags.count("xtalk"), tags.count("relax")) == (31, 9, 6)


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
        (pi,) = pair_distribution(program)
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
        pi, full = pair_distribution(compile_program(circuit, noise), compile_program(read, noise))
        assert pi.shape == (4,) and full.shape == (32,)
        assert np.abs(full.reshape((2,) * 5).sum(axis=(0, 2, 4)).ravel() - pi).max() <= 1e-14
        checked += 1
    assert checked == 3 * 84


@pytest.mark.parametrize("crosstalk", [True, False])
def test_paired_walk_matches_each_programs_own_walk(falcon, crosstalk):
    # a qubit's logical 0 and 1 programs share one structure on every
    # falcon27 pipeline circuit at each dd_scope, so the pipeline walks
    # them as one batch; each member's cells match its own walk
    noise = compile_noise(falcon, NoiseOptions() if crosstalk else NoiseOptions(disable=frozenset({"crosstalk"})))
    programs = [compile_program(circuit, noise) for _, circuit in pipeline_circuits(falcon)]
    assert len(programs) == 3 * 84
    for lv0, lv1 in zip(programs[0::2], programs[1::2]):
        assert _structure(lv0) == _structure(lv1) and lv0 != lv1
        for paired, program in zip(pair_distribution(lv0, lv1), (lv0, lv1)):
            (alone,) = pair_distribution(program)
            assert np.abs(paired - alone).max() <= 1e-15


def test_programs_of_different_structures_are_walked_apart():
    # an injected fault folds into its qubit's next op, so the faulted
    # circuit keeps its partner's structure and joins its batch with a
    # matrix of its own; a phase-flip program, whose structure differs, is
    # walked on its own. Each matches the oracle's walk.
    cal = make_line_cal(p0=0.9, readout_error=0.02, cx_error=0.01)
    noise = compile_noise(cal, NoiseOptions(crosstalk_eta=0.3))
    plain = build(cal, logical_value=1, extra_delay_ns=5_000)
    faulted = insert_fault(plain, qubit=2, time_ns=55, pauli="Y")
    phase = build(cal, encoding="phase_flip", extra_delay_ns=5_000, dd_scope="all_qubits")
    circuits = (faulted, phase, plain)
    programs = [compile_program(circuit, noise) for circuit in circuits]
    assert _structure(programs[0]) == _structure(programs[2]) != _structure(programs[1])
    for pi, circuit, program in zip(pair_distribution(*programs), circuits, programs):
        assert np.abs(pi - pair_cells(circuit, reference_record_distribution(circuit, program))).max() <= 1e-14
        (alone,) = pair_distribution(program)
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
        (pi,) = pair_distribution(compile_program(circuit, model))
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
        (pi,) = pair_distribution(compile_program(circuit, noise))
        assert abs(pi.sum() - 1.0) <= 1e-12 and pi.min() >= 0.0
        drawn.append((detection_events(run_shots(pi, 20_000, len(drawn))), pi))
    assert len(drawn) == 3 * 84
    assert pooled_p_value(drawn) > 1e-3
