"""Independent oracles the tests check the library against.

Everything here is deliberately kept free of the library's algorithms: path
enumeration by raw permutation search, channel composition by explicit 2x2
Markov chains walked over a circuit's instruction list, fault-model
moments by enumerating all configurations and their inversion one scalar
at a time, raising where the model fails, full measurement records (every
outcome of every measure, in slots numbered by ranking the measures by
start and line position) by Monte Carlo frame tracking of every shot
through every compiled op and exactly by a slice-and-sum walk over the same
ops, the shot matrix, its detection events and a detector pair's joint
counts by row-major formulas (records repeated row by row, one temporary
per detector column stacked at the end, a bincount of 2 d_i + d_j), echo
pairs inserted by a second pass over a built circuit, and a circuit's
lowering to ops by sorting tagged events, matching crosstalk by rescanning
every segment and sorting the ops again before the pass that folds each
qubit's idle channels into the op that reads it next. Each preparation and
reset is either a channel, as the library lowers it, or an explicit op that
marginalizes its qubit and sets it again; crosstalk flips its receivers
either at the decay, as the library lowers it, or at the end of each
receiver's first overlapping X-basis segment, through a token axis that
records the decay. A program's probability row is split from its ops and
read back into them here, op by op, by widths of the oracles' own.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from array import array

import numpy as np

from synbench.circuits import CircuitBuildError, Instruction
from synbench.simulator import BasisContractError, FrameProgram


def brute_force_lines(edges: set[tuple[int, int]], n: int, center: int) -> set[tuple[int, ...]]:
    """All five-qubit simple paths centered on `center`, by checking every
    ordered 5-permutation of vertices; reversals deduplicated by smaller
    endpoint first."""
    adjacent = {tuple(sorted(e)) for e in edges}
    found = set()
    for perm in itertools.permutations(range(n), 5):
        if perm[2] != center:
            continue
        if all(tuple(sorted(p)) in adjacent for p in zip(perm, perm[1:])):
            found.add(perm if perm[0] < perm[-1] else perm[::-1])
    return found


def shared_fault_moments(p: float, q_i: float, q_j: float) -> tuple[float, float, float]:
    """Exact (v_i, v_j, <d_i d_j>) for d_i = e ^ e_i, d_j = e ^ e_j with a
    shared fault e ~ Bern(p) and independent singles, by enumerating the 8
    configurations."""
    v_i = v_j = joint = 0.0
    for e, e_i, e_j in itertools.product((0, 1), repeat=3):
        prob = (
            (p if e else 1.0 - p)
            * (q_i if e_i else 1.0 - q_i)
            * (q_j if e_j else 1.0 - q_j)
        )
        d_i, d_j = e ^ e_i, e ^ e_j
        v_i += prob * d_i
        v_j += prob * d_j
        joint += prob * d_i * d_j
    return v_i, v_j, joint


class AntiCorrelated(ValueError):
    """Covariance below the shared-fault model's anti-correlation bound."""


def shared_fault_inversion(v_i: float, v_j: float, joint: float) -> float:
    """The shared-fault probability of one set of detector moments, one
    scalar at a time: ValueError where either detector mean reaches 1/2 and
    AntiCorrelated where the radicand is not positive."""
    if v_i >= 0.5 or v_j >= 0.5:
        raise ValueError(f"detector rates v_i={v_i}, v_j={v_j} reach 1/2")
    c = joint - v_i * v_j
    radicand = 1.0 + 4.0 * c / ((1.0 - 2.0 * v_i) * (1.0 - 2.0 * v_j))
    if radicand <= 0.0:
        raise AntiCorrelated(f"covariance {c} is below the model's bound")
    return 0.5 - 0.5 / math.sqrt(radicand)


def relax_step(dist: tuple[float, float], t_ns: float, t1_ns: float, p0: float) -> tuple[float, float]:
    """One Markov step of the relaxation channel on a (P[bit=0], P[bit=1])
    distribution."""
    f = 1.0 - math.exp(-t_ns / t1_ns) if t_ns > 0 else 0.0
    p0_, p1_ = dist
    p_1to0 = p0 * f
    p_0to1 = (1.0 - p0) * f
    return (
        p0_ * (1.0 - p_0to1) + p1_ * p_1to0,
        p1_ * (1.0 - p_1to0) + p0_ * p_0to1,
    )


def flip_step(dist: tuple[float, float]) -> tuple[float, float]:
    return dist[1], dist[0]


def composed_relaxation_flip(
    segments: list[tuple[str, float]], t1_ns: float, p0: float, start_bit: int
) -> float:
    """Net flip probability (final bit != noise-free final bit) for a
    sequence of ('delay', t) and ('x', _) steps, composed exactly."""
    dist = (1.0, 0.0) if start_bit == 0 else (0.0, 1.0)
    ideal = start_bit
    for kind, t in segments:
        if kind == "delay":
            dist = relax_step(dist, t, t1_ns, p0)
        elif kind == "x":
            dist = flip_step(dist)
            ideal ^= 1
        else:
            raise ValueError(kind)
    return dist[0] if ideal == 1 else dist[1]


def window_segments(circuit, qubit: int) -> list[tuple[str, float]]:
    """Walk a built circuit's timeline for `qubit` between round 1's
    auxiliary measurement start and the qubit's next coupling gate, returning
    the ('delay'/'x', duration) steps inside the window.

    Independent of the library's exposure computation: reads instruction
    tuples only.
    """
    meas_start = min(ins.start for ins in circuit.instructions if ins.kind == "measure")
    own = sorted(
        (ins for ins in circuit.instructions if qubit in ins.qubits),
        key=lambda ins: ins.start,
    )
    steps: list[tuple[str, float]] = []
    for ins in own:
        if ins.start < meas_start:
            continue
        if ins.kind == "delay":
            steps.append(("delay", float(ins.duration)))
        elif ins.kind == "x":
            steps.append(("x", 0.0))
        else:
            break
    return steps


def window_flip_probability(circuit, cal, qubit: int, start_bit: int) -> float:
    """Closed-form net bit-flip probability over the qubit's idle window
    after round 1, from exact Markov composition of the actual segment
    sequence (echo pulses included)."""
    qc = cal.qubits[qubit]
    return composed_relaxation_flip(
        window_segments(circuit, qubit), qc.t1_ns, qc.p0, start_bit
    )


def window_phase_flip_probability(circuit, cal, qubit: int) -> float:
    """Closed-form phase-flip probability over the qubit's idle window: XOR
    composition of per-segment echoed/unechoed dephasing.

    Uses the echoed flag of each delay instruction directly.
    """
    qc = cal.qubits[qubit]
    meas_start = min(ins.start for ins in circuit.instructions if ins.kind == "measure")
    own = sorted(
        (ins for ins in circuit.instructions if qubit in ins.qubits),
        key=lambda ins: ins.start,
    )
    p_net = 0.0
    for ins in own:
        if ins.start < meas_start:
            continue
        if ins.kind == "delay":
            scale = qc.t2_ns if ins.echoed else qc.t2_star_ns
            p = (1.0 - math.exp(-ins.duration / scale)) / 2.0
            p_net = p_net * (1.0 - p) + p * (1.0 - p_net)
        elif ins.kind == "x":
            continue
        else:
            break
    return p_net


# the 15 non-identity two-qubit Paulis of the cx depolarizing channel
PAULI2 = [(c, t) for c in "IXYZ" for t in "IXYZ"][1:]


def flip_mask(basis: str, pauli: str) -> bool:
    """Whether `pauli` flips the bit tracked in `basis` ("Z" or "X"): it
    does iff the two anticommute."""
    return pauli in ("XY" if basis == "Z" else "YZ")


def flip_pattern_counts(control_basis: str, target_basis: str) -> list[int]:
    """How many of the 15 Paulis flip (control, target) bits by (0, 0),
    (0, 1), (1, 0) and (1, 1), in the given tracked bases."""
    counts = [0, 0, 0, 0]
    for pc, pt in PAULI2:
        counts[2 * flip_mask(control_basis, pc) + flip_mask(target_basis, pt)] += 1
    return counts


# per-Pauli bit flips of a cx's (control, target) with both in the Z basis;
# flip_pattern_counts shows every pair of tracked bases gives the same law
_CX_FLIPS = np.array([[flip_mask("Z", pc), flip_mask("Z", pt)] for pc, pt in PAULI2])


def _split(state: np.ndarray, *axes: int) -> np.ndarray:
    """View of a C-contiguous state over binary axes with each given axis
    (ascending) as its own length-2 dimension, at positions 1, 3, ..., and
    the axes before, between and after them merged."""
    shape, prev = [], -1
    for axis in axes:
        shape += [1 << (axis - prev - 1), 2]
        prev = axis
    return state.reshape(*shape, -1)


def _reversed(dim: int) -> tuple:
    """Index that reverses dimension `dim` (swaps its bit values)."""
    return (slice(None),) * dim + (slice(None, None, -1),)


def _flip_channel(v: np.ndarray, up: float, down: float) -> np.ndarray:
    """`v` (bit along axis 1) after mass moves from bit 0 to 1 with
    probability `up` and from 1 to 0 with probability `down`."""
    if up == down:
        out = v * (1.0 - up)
        out += v[:, ::-1] * up
        return out
    w = np.array([[1.0 - up, down], [1.0 - down, up]])[:, :, None]  # v is (A, 2, B)
    out = v * w[:, 0]
    out += v[:, ::-1] * w[:, 1]
    return out


def decay_block(op: tuple) -> range:
    """The line indices of a decay op's source and receivers, lowest
    first."""
    return range(min(op[1], *op[2]), max(op[1], *op[2]) + 1)


def joined_ops(program: FrameProgram) -> list[tuple]:
    """Each op of `program` with its probabilities read back from the row
    into fields, channels as (up, down) pairs:

        ("cx", control, target, eps, control channel, target channel)
        ("measure", i, readout flip, channel)
        ("decay", i, receivers, P(0->1), P(1->0), eta, block channels)
        ("relax", i, token, P(0->1), P(1->0), channel)
        ("xtalk", i, ((token, eta), ...), channel)
        ("prep", i, p)

    a decay carrying one channel per qubit of its block, lowest first. The
    fields are in row order, except that the row holds a cx's channels
    lowest qubit first; the row must be read to its end."""
    row = iter(program.probs)

    def take(k: int) -> tuple:
        return tuple(itertools.islice(row, k))

    out = []
    for op in program.ops:
        tag = op[0]
        if tag == "cx":
            eps, lower, upper = take(1), take(2), take(2)
            out.append(op + eps + ((lower, upper) if op[1] < op[2] else (upper, lower)))
        elif tag == "measure":
            out.append(op + take(1) + (take(2),))
        elif tag == "decay":
            out.append(op + take(3) + (tuple(take(2) for _ in decay_block(op)),))
        elif tag == "relax":
            out.append(op + take(2) + (take(2),))
        elif tag == "xtalk":
            out.append(op[:2] + (tuple(zip(op[2], take(len(op[2])))), take(2)))
        else:
            assert tag == "prep", op
            out.append(op + take(1))
    assert next(row, None) is None, "the row holds more probabilities than its ops"
    return out


def _split_program(ops: list[tuple], n_qubits: int) -> FrameProgram:
    """The FrameProgram of ops in `joined_ops`' form: each op without its
    probabilities, an xtalk keeping only its tokens, and the probabilities
    flattened in field order into one row, a cx's channels lowest qubit
    first."""
    structure, row = [], []
    for op in ops:
        if op[0] == "cx" and op[1] > op[2]:  # the row holds the lower qubit's channel first
            op = op[:4] + (op[5], op[4])
        if op[0] == "xtalk":
            _, i, entries, channel = op
            structure.append(("xtalk", i, tuple(token for token, _ in entries)))
            row += [eta for _, eta in entries] + list(channel)
            continue
        head = 2 if op[0] in ("measure", "prep") else 3
        structure.append(op[:head])
        for field in op[head:]:
            if type(field) is not tuple:
                row.append(field)
            elif op[0] == "decay":  # the block's channels
                row += [x for channel in field for x in channel]
            else:
                row += field
    return FrameProgram(ops=tuple(structure), probs=array("d", row), n_qubits=n_qubits)


def folded_channels(op: tuple) -> list[tuple[int, tuple[float, float]]]:
    """(qubit index, (up, down)) of each idle channel a compiled op carries,
    in the order they act, before the op itself: a cx's control's and
    target's, a decay's for each qubit of its block, none for an explicit
    prep, and the op's last field otherwise."""
    if op[0] == "cx":
        return [(op[1], op[4]), (op[2], op[5])]
    if op[0] == "decay":
        return list(zip(decay_block(op), op[-1]))
    return [] if op[0] == "prep" else [(op[1], op[-1])]


def _flips(bits: np.ndarray, up: float, down: float, rng: np.random.Generator) -> np.ndarray:
    """Per-shot draws of whether a channel flips each shot's bit."""
    u = rng.random(bits.size)
    return np.where(bits, u < down, u < up)


def record_slots(circuit) -> dict[tuple[int, int], int]:
    """(qubit, n) -> the slot of the qubit's n-th measure (from 1), every
    measure ranked by (start, line index): an auxiliary's round-r outcome
    lands in slot 2 (r - 1) + its position among the auxiliaries, and a
    code qubit's readout after both rounds in a slot after theirs."""
    measures = [ins for ins in circuit.instructions if ins.kind == "measure"]
    ranked = sorted(measures, key=lambda ins: (ins.start, circuit.line.index(ins.qubits[0])))
    seen: dict[int, int] = {}
    slots = {}
    for slot, ins in enumerate(ranked):
        q = ins.qubits[0]
        seen[q] = seen.get(q, 0) + 1
        slots[q, seen[q]] = slot
    return slots


def _op_slots(circuit) -> list[int]:
    """The slot of each measure op of the circuit's program, in program
    order: the measures in the circuit's time order, as the compiler
    sweeps them."""
    measures = [ins for ins in circuit.instructions if ins.kind == "measure"]
    ranked = sorted(measures, key=lambda ins: (ins.start, circuit.line.index(ins.qubits[0])))
    return [ranked.index(ins) for ins in measures]


def reference_record_distribution(circuit, program) -> np.ndarray:
    """The exact full-record distribution of `circuit` compiled to
    `program`, cell r holding the record whose slot j (`record_slots`) is
    bit j of r from the top, by a walk over binary axes that appends each
    slot and token axis last and applies every op as masked, reversed and
    summed slices; a cx's error weights come from the 15-Pauli table."""
    op_slots = iter(_op_slots(circuit))
    nq = program.n_qubits
    ops = joined_ops(program)
    last_read = {token: k for k, op in enumerate(ops) if op[0] == "xtalk" for token, _ in op[2]}
    state = np.zeros(1 << nq)
    state[0] = 1.0
    extra: list[tuple[str, int]] = []  # ("s", slot) or ("t", token) of axis nq + j
    for k, op in enumerate(ops):
        tag, i = op[0], op[1]
        for q, (up, down) in folded_channels(op):
            state = _flip_channel(state.reshape(1 << q, 2, -1), up, down).ravel()
        if tag == "relax":
            _, _, token, p01, p10, _ = op
            v = state.reshape(1 << i, 2, -1)
            decay = v[:, 1] * p10
            up = v[:, 0] * p01
            new = np.zeros(v.shape + (2,))
            new[..., 0] = v
            new[:, 0, :, 0] -= up
            new[:, 1, :, 0] += up - decay
            new[:, 0, :, 1] = decay
            state = new.ravel()
            extra.append(("t", token))
        elif tag == "decay":
            _, _, receivers, p01, p10, eta, _ = op
            v = state.reshape(1 << i, 2, -1)
            decay = v[:, 1] * p10
            up = v[:, 0] * p01
            kept = v.copy()
            kept[:, 0] -= up
            kept[:, 1] += up - decay
            # the decayed mass lands on bit 0, each receiver flipped with
            # probability eta
            fired = np.zeros_like(v)
            fired[:, 0] = decay
            for j in receivers:
                fired = _flip_channel(fired.reshape(1 << j, 2, -1), eta, eta)
            state = kept.ravel() + fired.ravel()
        elif tag == "cx":
            _, _, t, eps, _, _ = op
            v = _split(state, *sorted((i, t)))
            c_dim, t_dim = (1, 3) if i < t else (3, 1)
            control = v[(slice(None),) * c_dim + (1,)]
            control[...] = control[_reversed(t_dim - (t_dim > c_dim))]
            # w[2a + b]: probability that the error flips the control by a
            # and the target by b
            w = [1.0 - eps, 0.0, 0.0, 0.0]
            for a, b in _CX_FLIPS.tolist():
                w[2 * a + b] += eps / len(PAULI2)
            out = v * w[0]
            out += v[_reversed(t_dim)] * w[1]
            out += v[_reversed(c_dim)] * w[2]
            out += v[_reversed(c_dim)][_reversed(t_dim)] * w[3]
            state = out.ravel()
        elif tag == "measure":
            _, _, p, _ = op
            slot = next(op_slots)
            readout = np.array([[1.0 - p, p], [p, 1.0 - p]])  # [bit, recorded bit]
            state = (state.reshape(1 << i, 2, -1)[..., None] * readout[:, None, :]).ravel()
            extra.append(("s", slot))
        elif tag == "prep":
            p = op[2]
            marginal = state.reshape(1 << i, 2, -1).sum(axis=1, keepdims=True)
            state = (marginal * np.array([[1.0 - p], [p]])).ravel()
        elif tag == "xtalk":
            for token, eta in op[2]:
                fired = _split(state, i, nq + extra.index(("t", token)))[:, :, :, 1]
                fired[...] = _flip_channel(fired, eta, eta)
            for token, _ in op[2]:
                if last_read[token] == k:
                    j = extra.index(("t", token))
                    state = _split(state, nq + j).sum(axis=1).ravel()
                    del extra[j]
        else:
            raise RuntimeError(f"unknown op {tag!r}")
    slots = [n for _, n in extra]
    assert sorted(slots) == list(range(len(slots))), extra
    records = state.reshape(1 << nq, -1).sum(axis=0).reshape((2,) * len(slots))
    return records.transpose(sorted(range(len(slots)), key=slots.__getitem__)).ravel()


def _run_chunk(program, op_slots: list[int], n: int, rng: np.random.Generator) -> np.ndarray:
    """n shots of a compiled FrameProgram by per-shot frame tracking, as a
    (slots, n) bool array, the k-th measure op writing slot op_slots[k]:
    every op draws its folded channels' and its own randomness for every
    shot, in the order they act."""
    bits = np.zeros((program.n_qubits, n), dtype=bool)
    out = np.zeros((len(op_slots), n), dtype=bool)
    slots = iter(op_slots)
    for op in joined_ops(program):
        tag = op[0]
        for i, (up, down) in folded_channels(op):
            if up or down:
                bits[i] ^= _flips(bits[i], up, down, rng)
        if tag == "decay":
            _, i, receivers, up, down, eta, _ = op
            flips = _flips(bits[i], up, down, rng)
            decayed = bits[i] & flips
            bits[i] ^= flips
            for j in receivers:
                bits[j] ^= decayed & (rng.random(n) < eta)
        elif tag == "cx":
            _, ci, ti, eps, _, _ = op
            bits[ti] ^= bits[ci]
            if eps == 0.0:
                continue
            hit = rng.random(n) < eps
            pauli = rng.integers(0, len(PAULI2), size=n)
            bits[ci] ^= hit & _CX_FLIPS[pauli, 0]
            bits[ti] ^= hit & _CX_FLIPS[pauli, 1]
        elif tag == "measure":
            _, i, p, _ = op
            slot = next(slots)
            if p > 0.0:
                out[slot] = bits[i] ^ (rng.random(n) < p)
            else:
                out[slot] = bits[i]
        else:  # pragma: no cover - compile emits only the tags above
            raise RuntimeError(f"unknown op {tag!r}")
    return out


def frame_shots(circuit, program, shots: int, seed: int) -> np.ndarray:
    """Monte Carlo (shots, slots) uint8 records of `circuit` compiled to
    `program`, in chunks of 8192 shots with chunk k's generator seeded by
    (seed, k)."""
    op_slots = _op_slots(circuit)
    parts = []
    for k, start in enumerate(range(0, shots, 8192)):
        rng = np.random.default_rng((seed, k))
        parts.append(_run_chunk(program, op_slots, min(8192, shots - start), rng).T)
    return np.concatenate(parts).astype(np.uint8)


def record_table(n_slots: int) -> np.ndarray:
    """All 2**n_slots records as rows of bits, slot 0 most significant."""
    return np.array(list(itertools.product((0, 1), repeat=n_slots)), dtype=np.uint8)


def grouped_records(pi: np.ndarray, shots: int, seed) -> np.ndarray:
    """`shots` (shots, slots) uint8 records drawn from the record
    distribution `pi`: one multinomial, from a generator seeded by `seed`,
    draws each record's count, and each row of the record table is repeated
    that many times."""
    counts = np.random.default_rng(seed).multinomial(shots, pi)
    return np.repeat(record_table(pi.size.bit_length() - 1), counts, axis=0)


def stacked_detection_events(circuit, shots: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(shots, detectors) detection events of full records (slots as
    `record_slots` numbers them) and their (auxiliary, round) labels,
    round-major: each detector's column is XORed into a temporary of its
    own and the columns are stacked. Rounds 1 and 2 come from the
    auxiliaries; round 3, each auxiliary's last outcome against the parity
    of its code neighbours' readouts, only for a circuit that reads its
    code qubits out. The auxiliaries sit at the line's odd positions."""
    shots = np.asarray(shots, dtype=np.uint8)
    slots = record_slots(circuit)
    column = {key: shots[:, slot] for key, slot in slots.items()}
    columns, detectors = [], []
    for r in (1, 2, 3) if (circuit.line[0], 1) in slots else (1, 2):
        for a in circuit.line[1::2]:
            if r == 1:
                col = column[(a, 1)]
            elif r == 2:
                col = column[(a, 2)] ^ column[(a, 1)]
            else:
                i = circuit.line.index(a)
                col = column[(a, 2)] ^ column[(circuit.line[i - 1], 1)] ^ column[(circuit.line[i + 1], 1)]
            columns.append(col)
            detectors.append((a, r))
    return np.stack(columns, axis=1), tuple(detectors)


def pair_cells(circuit, records: np.ndarray) -> np.ndarray:
    """A full-record distribution (`reference_record_distribution`)
    folded to the 4 cells 2 d_left + d_right of its round-2 detector
    pair."""
    data, detectors = stacked_detection_events(circuit, record_table(records.size.bit_length() - 1))
    i, j = (detectors.index((a, 2)) for a in circuit.line[1::2])
    return np.bincount(2 * data[:, i].astype(np.int64) + data[:, j], weights=records, minlength=4)


def bincount_pair_counts(d_i: np.ndarray, d_j: np.ndarray) -> np.ndarray:
    """(n00, n01, n10, n11) joint counts of two 0/1 columns, by a bincount
    of 2 d_i + d_j."""
    return np.bincount(2 * d_i.astype(np.int64) + d_j.astype(np.int64), minlength=4)


def _timeline_sorted(instrs) -> tuple:
    return tuple(sorted(instrs, key=lambda i: (i.start, i.end, i.qubits, i.kind)))


def insert_dynamical_decoupling(circuit, cal, scope: str):
    """Wrap in-scope delays of a built circuit with a symmetric echo pair,
    as a second pass over its sorted instruction list.

    delay(t) becomes delay(t'/4), x, delay(t'/2), x, delay(t'/4) with
    t' = t - 2*x_duration; remainders from the integer split go to the middle
    segment so the total timeline length is preserved exactly. Sub-delays are
    flagged echoed. Delays shorter than 2*x + 4 ns pass through untouched, as
    do delays already echoed. A qubit's x lasts its calibrated x_ns,
    rounded to at least 1 ns, as the builder schedules it.
    """
    if scope not in ("all_qubits", "code_only"):
        raise CircuitBuildError(f"unknown dd scope {scope!r}")
    in_scope = set(circuit.line if scope == "all_qubits" else circuit.line[0::2])
    x_durations = {q: max(1, round(cal.qubits[q].x_ns)) for q in circuit.line}
    out = []
    for ins in circuit.instructions:
        q = ins.qubits[0]
        if (
            ins.kind != "delay"
            or ins.echoed
            or q not in in_scope
            or ins.duration < 2 * x_durations[q] + 4
        ):
            out.append(ins)
            continue
        x = x_durations[q]
        remaining = ins.duration - 2 * x
        quarter = remaining // 4
        middle = remaining - 2 * quarter
        cursor = ins.start
        out.append(Instruction("delay", (q,), cursor, quarter, echoed=True))
        cursor += quarter
        out.append(Instruction("x", (q,), cursor, x))
        cursor += x
        out.append(Instruction("delay", (q,), cursor, middle, echoed=True))
        cursor += middle
        out.append(Instruction("x", (q,), cursor, x))
        cursor += x
        out.append(Instruction("delay", (q,), cursor, quarter, echoed=True))
    return dataclasses.replace(circuit, instructions=_timeline_sorted(out))


@dataclasses.dataclass(frozen=True)
class _Segment:
    qubit: int
    index: int  # qubit's dense index
    start: int
    end: int
    basis: str
    token: int  # relaxation-event token id, -1 when not a source
    seg_id: int  # unique, in emission order


def reference_compile_program(
    circuit, noise, explicit_preps: bool = False, crosstalk_at_segment_end: bool = False
) -> FrameProgram:
    """A circuit lowered to a FrameProgram in three passes: every
    instruction tagged (time, phase, order) and sorted, crosstalk
    matched by scanning every segment for each source, and the ops sorted
    again before the idle-channel folding pass.

    A preparation with flip p (0 for a reset) lowers to the channel (p,
    1 - p), or with `explicit_preps` to a ("prep", i, p) op that discards
    its qubit's pending channel, marginalizes the qubit and sets it again.
    A relaxation some neighbour's overlapping X-basis segment receives
    lowers to a ("decay", i, receivers, P(0->1), P(1->0), eta) op that flips
    each receiver at the decay; with `crosstalk_at_segment_end` it stays a
    ("relax", i, P(0->1), P(1->0), token) op, and an ("xtalk", j, ((token,
    eta), ...)) op at the end of each neighbour's first overlapping X-basis
    segment flips it there. Without either keyword, as in the library, the
    ops after the last measure are dropped. The folded ops, in
    `joined_ops`' form, are split from their probabilities at the end."""
    index = {q: i for i, q in enumerate(circuit.line)}
    basis = {q: "Z" for q in circuit.line}

    events = []
    for seq, ins in enumerate(circuit.instructions):
        events.append((ins.start, 2, seq, ins))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    eta = noise.crosstalk
    ops = []  # (time, phase, order, op)
    segments = []
    order = 0

    def emit(time, phase, op):
        nonlocal order
        ops.append((time, phase, order, op))
        order += 1

    for time, phase, _seq, ins in events:
        q = ins.qubits[0]
        i = index[q]
        if ins.kind in ("prepare_z0", "reset"):
            basis[q] = "Z"
            p = noise.prep if ins.kind == "prepare_z0" else 0.0
            emit(time, phase, ("prep", i, p) if explicit_preps else ("channel", i, p, 1.0 - p))
        elif ins.kind == "x":
            if basis[q] == "Z":
                emit(time, phase, ("channel", i, 1.0, 1.0))
        elif ins.kind == "h":
            basis[q] = "X" if basis[q] == "Z" else "Z"
        elif ins.kind == "measure":
            if basis[q] != "Z":
                raise BasisContractError(f"measurement of X-basis qubit {q} at t={time}")
            emit(time, phase, ("measure", i, noise.readout[q]))
        elif ins.kind == "cx":
            c, t = ins.qubits
            if basis[t] != "Z":
                raise BasisContractError(
                    f"cx at t={time} has an {basis[t]}-basis target {t}; only Z-basis "
                    "targets are trackable"
                )
            if abs(index[c] - index[t]) != 1:
                raise BasisContractError(f"cx at t={time} couples {c} and {t}, which are not neighbours in the line")
            emit(time, phase, ("cx", index[c], index[t], noise.cx[c, t]))
        elif ins.kind == "delay":
            ch = noise.idle[q]
            if basis[q] == "Z":
                f = ch.decay_fraction(ins.duration)
                p10, p01 = ch.p0 * f, (1.0 - ch.p0) * f
                token = len(segments) if p10 > 0.0 and eta > 0.0 else -1
                emit(time, phase, ("relax", i, p01, p10, token) if token >= 0 else ("channel", i, p01, p10))
                segments.append(_Segment(q, i, ins.start, ins.end, "Z", token, len(segments)))
            else:
                p = ch.p_phaseflip(ins.duration, ins.echoed)
                emit(time, phase, ("channel", i, p, p))
                segments.append(_Segment(q, i, ins.start, ins.end, "X", -1, len(segments)))
        else:
            raise BasisContractError(f"unknown instruction kind {ins.kind!r}")

    hits = _crosstalk_hits(circuit, segments) if eta > 0.0 else []
    receivers = {}  # source token -> receiving line indices
    if crosstalk_at_segment_end:
        entries = {}  # receiving segment -> entries
        for src, seg in hits:
            entries.setdefault(seg, []).append((src.token, eta))
        for seg, read in sorted(entries.items(), key=lambda item: item[0].seg_id):
            emit(seg.end, 0, ("xtalk", seg.index, tuple(read)))
    else:
        for src, seg in hits:
            receivers.setdefault(src.token, []).append(seg.index)

    ops.sort(key=lambda e: (e[0], e[1], e[2]))
    lowered = [
        ("decay", op[1], tuple(sorted(receivers[op[4]])), op[2], op[3], eta)
        if op[0] == "relax" and op[4] in receivers
        else op
        for _, _, _, op in ops
    ]
    while not (explicit_preps or crosstalk_at_segment_end) and lowered and lowered[-1][0] != "measure":
        lowered.pop()
    return _split_program(_fold_idle_channels(lowered), len(circuit.line))


def _fold_idle_channels(ops):
    """Compose each qubit's run of channel ops and of relax ops whose token
    no xtalk reads into one pending channel, carried by the next op that
    reads or couples the qubit (a cx carries its control's and its
    target's, in that order, and a decay each of its block's qubits', in
    line order); an explicit prep or the program end discards it. The
    tokens xtalks read are renumbered 0, 1, ... in order of creation."""
    live = sorted({token for op in ops if op[0] == "xtalk" for token, _ in op[2]})
    renumber = dict(zip(live, range(len(live))))
    pending = {}
    out = []
    for op in ops:
        tag, i = op[0], op[1]
        if tag == "channel" or (tag == "relax" and op[4] not in renumber):
            up, down = pending.get(i, (0.0, 0.0))
            s_up, s_down = op[2], op[3]
            pending[i] = (
                (1.0 - up) * s_up + up * (1.0 - s_down),
                (1.0 - down) * s_down + down * (1.0 - s_up),
            )
            continue
        if tag == "prep":
            pending.pop(i, None)
            out.append(op)
        elif tag == "cx":
            out.append(op + (pending.pop(i, (0.0, 0.0)), pending.pop(op[2], (0.0, 0.0))))
        elif tag == "measure":
            out.append(op + (pending.pop(i, (0.0, 0.0)),))
        elif tag == "decay":
            out.append(op + (tuple(pending.pop(j, (0.0, 0.0)) for j in decay_block(op)),))
        elif tag == "relax":
            out.append(("relax", i, renumber[op[4]], op[2], op[3], pending.pop(i, (0.0, 0.0))))
        else:
            entries = tuple((renumber[token], eta) for token, eta in op[2])
            out.append(("xtalk", i, entries, pending.pop(i, (0.0, 0.0))))
    return tuple(out)


def _crosstalk_hits(circuit, segments):
    """(source segment, receiving segment) pairs: each source token hits a
    given neighbor at most once, in the first (by end time) X-basis segment
    there that overlaps it."""
    by_qubit = {}
    for seg in segments:
        by_qubit.setdefault(seg.qubit, []).append(seg)
    hits = []
    for src in segments:
        if src.token < 0:
            continue
        i = circuit.line.index(src.qubit)
        for nbr in circuit.line[max(i - 1, 0) : i] + circuit.line[i + 1 : i + 2]:
            overlapping = [
                seg
                for seg in by_qubit.get(nbr, ())
                if seg.basis == "X" and seg.start < src.end and seg.end > src.start
            ]
            if overlapping:
                hits.append((src, min(overlapping, key=lambda s: (s.end, s.start))))
    return hits
