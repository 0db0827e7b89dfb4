"""Sampling of benchmark circuits from their exact measurement-record
distribution.

A circuit compiles once into a flat list of ops on classical frames. Each
qubit is tracked as a (basis, bit) pair: Z basis with the computational
value, or X basis where bit 0/1 stand for the plus/minus states. The circuit
family keeps every qubit in a product state, so this tracking is exact while
preserving the asymmetry of relaxation. The tracked-basis contract is
enforced by a static compile pass: a cx must couple neighbours in the line
and have a Z-basis target, with either a Z-basis control (plain parity
coupling) or an X-basis code control (the conjugated coupling of the
phase-flip encoding); measurements must be in the Z basis. A cx error is one
of the 15 non-identity two-qubit Paulis, uniformly; in any pair of tracked
bases 3 of them flip neither bit and 4 each flip the control, the target or
both, so the error flips (control, target) by (0, 1), (1, 0) or (1, 1) with
probability 4 eps / 15 each.

Every single-qubit stochastic map (x flip, Pauli fault, dephasing,
relaxation) compiles to one 2x2 `channel` op (P(0->1), P(1->0)); a
relaxation whose decay event crosstalk may read is a `relax` op, a channel
that also carries the event's token. A peephole pass at the end of
compilation fuses each qubit's channels between two ops that read or couple
it into one exact Markov composition. A `relax` op some `xtalk` reads stays
unfused and in place, so the first-overlap crosstalk rule sees its events.

`record_distribution` walks the compiled ops once over a probability vector
on binary axes: the qubits first, in line order, then one axis per measured
slot, added at its measure with the readout flip applied there, and one per
live crosstalk token, added at its relax and summed out by the last xtalk
that reads it. Each new axis is inserted right after the qubit axes, newest
first, so every op's innermost loop runs over the added axes and each op is
one or two numpy calls: a channel, or a prep (which marginalizes its qubit
and sets it again), is one matmul of a 2x2 stochastic matrix on the
(2**i, 2, -1) view; a cx one matmul of a 4x4 matrix on the (2**lo, 4, -1)
view of its two neighbouring qubits; a measure one broadcast multiply by the
readout matrix; a relax one matmul to (bit, token) and one transposed copy;
an xtalk one matmul per token it reads. The result is the exact probability
of every one of the 2**n_slots records, which is why `run_shots` accepts at
most MAX_ROUNDS rounds.

`run_shots` draws all its shots' record counts from that distribution with
one multinomial and expands a slot-major table of the records by those
counts, so each slot's bits over all shots lie contiguous in memory; it
returns the (shots, slots) transposed view, rows grouped by record value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit, FaultSite, Instruction
from .noise import NoiseModel

# the record of a five-qubit line has 2**(2*rounds + 3) cells; for a phase-
# flip circuit record_distribution takes about 7 ms and 1.6 MB at 4 rounds,
# 80 ms and 23 MB at 6 (2-vCPU Xeon guest)
MAX_ROUNDS = 4

# the noise-free cx on a neighbour pair's (2**lo, 4, -1) view, whose middle
# index is 2 * (lower qubit's bit) + (upper qubit's bit); keyed by whether
# the control is the lower qubit
_CX_PARITY = {True: np.eye(4)[[0, 1, 3, 2]], False: np.eye(4)[[0, 3, 2, 1]]}


class BasisContractError(ValueError):
    """Circuit steps outside what classical frame tracking can represent."""


def _flip_mask(basis: str) -> dict[str, bool]:
    # a Pauli flips the tracked bit iff it anticommutes with the tracked basis
    if basis == "Z":
        return {"I": False, "X": True, "Y": True, "Z": False}
    return {"I": False, "X": False, "Y": True, "Z": True}


@dataclass(frozen=True)
class FrameProgram:
    """A circuit compiled against a noise model, ready to execute."""

    ops: tuple[tuple, ...]
    n_qubits: int
    n_slots: int


@dataclass(frozen=True)
class _Segment:
    qubit: int
    index: int  # qubit's dense index
    start: int
    end: int
    basis: str
    token: int  # relaxation-event token id, -1 when not a source
    seg_id: int  # unique, in emission order


def compile_program(circuit: Circuit, noise: NoiseModel) -> FrameProgram:
    """Walk the circuit once, check the tracked-basis contract, and lower
    every instruction to a vectorized operation with its channel
    probabilities baked in. Raises BasisContractError if the circuit cannot
    be tracked classically."""
    index = {q: i for i, q in enumerate(circuit.line)}
    basis = {q: "Z" for q in circuit.line}

    events: list[tuple[int, int, int, object]] = []
    for seq, ins in enumerate(circuit.instructions):
        events.append((ins.start, 2, seq, ins))
    for seq, fault in enumerate(circuit.faults):
        events.append((fault.time_ns, 1, seq, fault))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    eta = noise.crosstalk()
    ops: list[tuple[int, int, int, tuple]] = []  # (time, phase, order, op)
    segments: list[_Segment] = []
    order = 0

    def emit(time: int, phase: int, op: tuple) -> None:
        nonlocal order
        ops.append((time, phase, order, op))
        order += 1

    for time, phase, _seq, item in events:
        if isinstance(item, FaultSite):
            if _flip_mask(basis[item.qubit])[item.pauli]:
                emit(time, phase, ("channel", index[item.qubit], 1.0, 1.0))
            continue
        ins: Instruction = item
        q = ins.qubits[0]
        i = index[q]
        if ins.kind == "prepare_z0":
            basis[q] = "Z"
            emit(time, phase, ("prep", i, noise.preparation_flip()))
        elif ins.kind == "reset":
            basis[q] = "Z"
            emit(time, phase, ("prep", i, 0.0))
        elif ins.kind == "x":
            if basis[q] == "Z":
                emit(time, phase, ("channel", i, 1.0, 1.0))
            # an x on an X-basis qubit changes only the phase; nothing tracked
        elif ins.kind == "h":
            basis[q] = "X" if basis[q] == "Z" else "Z"
        elif ins.kind == "measure":
            if basis[q] != "Z":
                raise BasisContractError(f"measurement of X-basis qubit {q} at t={time}")
            emit(time, phase, ("measure", i, ins.slot, noise.readout_flip(q)))
        elif ins.kind == "cx":
            c, t = ins.qubits
            if basis[t] != "Z":
                raise BasisContractError(
                    f"cx at t={time} has an {basis[t]}-basis target {t}; only Z-basis "
                    "targets are trackable"
                )
            if abs(index[c] - index[t]) != 1:
                raise BasisContractError(f"cx at t={time} couples {c} and {t}, which are not neighbours in the line")
            emit(time, phase, ("cx", index[c], index[t], noise.cx_error(c, t)))
        elif ins.kind == "delay":
            if basis[q] == "Z":
                p10, p01 = noise.relax_probs(q, ins.duration)
                # a decay event crosstalk may read gets the segment's id as
                # its token
                token = len(segments) if p10 > 0.0 and eta > 0.0 else -1
                emit(time, phase, ("relax", i, p01, p10, token) if token >= 0 else ("channel", i, p01, p10))
                segments.append(_Segment(q, i, ins.start, ins.end, "Z", token, len(segments)))
            else:
                p = noise.dephase_prob(q, ins.duration, ins.echoed)
                emit(time, phase, ("channel", i, p, p))
                segments.append(_Segment(q, i, ins.start, ins.end, "X", -1, len(segments)))
        else:
            raise BasisContractError(f"unknown instruction kind {ins.kind!r}")

    if eta > 0.0:
        _attach_crosstalk(circuit, segments, eta, emit)

    ops.sort(key=lambda e: (e[0], e[1], e[2]))
    return FrameProgram(
        ops=_fuse_idle_channels([op for _, _, _, op in ops]),
        n_qubits=len(circuit.line),
        n_slots=circuit.n_slots,
    )


def _fuse_idle_channels(ops: list[tuple]) -> tuple[tuple, ...]:
    """Peephole pass: compose each qubit's run of channel ops and of relax
    ops whose token no xtalk reads into one channel op.

    The pending channel of a qubit is emitted just before the next op that
    reads or couples it (cx, measure, xtalk, or a relax whose token some
    xtalk reads, which itself stays in place); a prep or the end of the
    program discards it, and an identity channel is dropped. Each emitted op
    is the exact Markov composition of the ops it replaces.
    """
    live = {token for op in ops if op[0] == "xtalk" for token, _ in op[2]}
    pending: dict[int, tuple[float, float]] = {}
    out: list[tuple] = []

    def flush(i: int) -> None:
        up, down = pending.pop(i, (0.0, 0.0))
        if up or down:
            out.append(("channel", i, up, down))

    for op in ops:
        tag = op[0]
        if tag != "channel" and not (tag == "relax" and op[4] not in live):
            if tag == "prep":
                pending.pop(op[1], None)
            elif tag == "cx":
                flush(op[1])
                flush(op[2])
            else:  # measure, xtalk, live-token relax
                flush(op[1])
            out.append(op)
            continue
        up, down = pending.get(op[1], (0.0, 0.0))
        s_up, s_down = op[2], op[3]
        pending[op[1]] = (
            (1.0 - up) * s_up + up * (1.0 - s_down),
            (1.0 - down) * s_down + down * (1.0 - s_up),
        )
    return tuple(out)


def _attach_crosstalk(circuit: Circuit, segments: list[_Segment], eta: float, emit) -> None:
    """Match relaxation-source segments to X-basis neighbor segments.

    Each source token hits a given neighbor at most once: the first (by end
    time) overlapping X-basis segment on that neighbor receives the
    eta-weighted phase flip, resolved when that segment ends so every
    overlapping source has already been sampled.
    """
    by_qubit: dict[int, list[_Segment]] = {}
    for seg in segments:
        by_qubit.setdefault(seg.qubit, []).append(seg)
    receivers: dict[int, list[tuple[int, float]]] = {}  # segment id -> entries
    seg_by_id = {seg.seg_id: seg for seg in segments}
    for src in segments:
        if src.token < 0:
            continue
        for nbr in circuit.neighbors_in_line(src.qubit):
            hits = [
                seg
                for seg in by_qubit.get(nbr, ())
                if seg.basis == "X" and seg.start < src.end and seg.end > src.start
            ]
            if not hits:
                continue
            first = min(hits, key=lambda s: (s.end, s.start))
            receivers.setdefault(first.seg_id, []).append((src.token, eta))
    for seg_id, entries in sorted(receivers.items()):
        seg = seg_by_id[seg_id]
        emit(seg.end, 0, ("xtalk", seg.index, tuple(entries)))


def _channel(up: float, down: float) -> np.ndarray:
    """The 2x2 stochastic matrix [new bit, old bit] that moves mass from bit
    0 to 1 with probability `up` and from 1 to 0 with probability `down`."""
    return np.array([[1.0 - up, down], [up, 1.0 - down]])


def record_distribution(program: FrameProgram) -> np.ndarray:
    """The exact probability of each of the program's 2**n_slots
    measurement records.

    Cell r is the record whose slot j holds bit j of r, counted from the
    most significant end (slot 0 is the top bit). The ops are walked once
    over a flat probability vector on binary axes. The qubit axes come
    first, in line order; each slot axis (added at its measure) and token
    axis (added at its live-token relax, summed out by the last xtalk that
    reads it) is inserted right after them, newest first. Qubit i's bit is
    then the middle axis of the vector's (2**i, 2, -1) view and the bits of
    neighbours lo and lo + 1 the middle axis of its (2**lo, 4, -1) view, so
    each op is one matmul or broadcast multiply over such a view.
    """
    nq = program.n_qubits
    last_read = {token: k for k, op in enumerate(program.ops) if op[0] == "xtalk" for token, _ in op[2]}
    state = np.zeros(1 << nq)
    state[0] = 1.0
    extra: list[tuple[str, int]] = []  # ("s", slot) or ("t", token) of axis nq + j
    for k, op in enumerate(program.ops):
        tag, i = op[0], op[1]
        v = state.reshape(1 << i, 2, -1)
        if tag == "channel":
            state = np.matmul(_channel(op[2], op[3]), v)
        elif tag == "prep":
            p = op[2]
            state = np.matmul(np.array([[1.0 - p, 1.0 - p], [p, p]]), v)
        elif tag == "cx":
            _, _, t, eps = op
            # every error pattern flips (control, target) by one of the
            # three nonzero bit pairs with probability 4 eps / 15
            w = 4.0 * eps / 15.0
            m = (1.0 - 4.0 * w) * _CX_PARITY[i < t] + w
            state = np.matmul(m, state.reshape(1 << min(i, t), 4, -1))
        elif tag == "measure":
            _, _, slot, p = op
            readout = np.array([[1.0 - p, p], [p, 1.0 - p]])  # [bit, recorded bit]
            state = state.reshape(1 << i, 2, 1 << (nq - i - 1), 1, -1) * readout[:, None, :, None]
            extra.insert(0, ("s", slot))
        elif tag == "relax":
            _, _, up, down, token = op
            # rows (bit, decayed): the token bit records a 1 -> 0 decay,
            # the event crosstalk reads
            m = np.array([[1.0 - up, 0.0], [0.0, down], [up, 1.0 - down], [0.0, 0.0]])
            moved = np.matmul(m, v).reshape(1 << i, 2, 2, 1 << (nq - i - 1), -1)
            state = moved.transpose(0, 1, 3, 2, 4).ravel()
            extra.insert(0, ("t", token))
        elif tag == "xtalk":
            for token, eta in op[2]:
                # the bit flips with probability eta where the token fired
                j = extra.index(("t", token))
                shape = (1 << i, 2, 1 << (nq - i - 1 + j), 2, -1)
                flipped = np.matmul(_channel(eta, eta), state.reshape(1 << i, 2, -1)).reshape(shape)
                if last_read[token] == k:
                    state = state.reshape(shape)[:, :, :, 0] + flipped[:, :, :, 1]
                    del extra[j]
                else:
                    flipped[:, :, :, 0] = state.reshape(shape)[:, :, :, 0]
                    state = flipped
        else:  # pragma: no cover - compile emits only the tags above
            raise RuntimeError(f"unknown op {tag!r}")
    slots = [n for _, n in extra]
    if sorted(slots) != list(range(program.n_slots)):
        raise ValueError(f"every slot must be measured exactly once, got axes {extra}")
    records = state.reshape(1 << nq, -1).sum(axis=0).reshape((2,) * len(slots))
    return records.transpose(sorted(range(len(slots)), key=slots.__getitem__)).ravel()


def run_shots(circuit: Circuit, noise: NoiseModel, shots: int, seed) -> np.ndarray:
    """Sample `shots` outcomes; returns a (shots, slots) uint8 bit matrix.

    The rows are iid draws from the circuit's exact record distribution:
    one multinomial, from a generator seeded by `seed` (an int or a tuple
    of ints), draws how many shots hold each record. The rows come grouped
    by record in ascending record order, not in draw order. The matrix is
    the transposed view of C-contiguous (slots, shots) storage, so each
    slot's column is contiguous. Output is a pure function of (circuit,
    noise, shots, seed).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if circuit.rounds > MAX_ROUNDS:
        raise ValueError(f"at most {MAX_ROUNDS} rounds can be sampled, got {circuit.rounds}")
    program = compile_program(circuit, noise)
    pi = record_distribution(program)
    # table[j, r] is slot j of record r
    table = ((np.arange(pi.size) >> np.arange(program.n_slots - 1, -1, -1)[:, None]) & 1).astype(np.uint8)
    return np.repeat(table, np.random.default_rng(seed).multinomial(shots, pi), axis=1).T


def inject_fault(circuit: Circuit, qubit: int, time_ns: int, pauli: str) -> Circuit:
    """A deterministic Pauli marker honored by run_shots; used as a detector
    sensitivity oracle."""
    if qubit not in circuit.line:
        raise ValueError(f"qubit {qubit} is not in this circuit")
    if pauli not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli {pauli!r}")
    if not 0 <= time_ns <= circuit.duration:
        raise ValueError(f"time {time_ns} is outside the circuit timeline")
    site = FaultSite(qubit=qubit, time_ns=time_ns, pauli=pauli)
    return replace(circuit, faults=circuit.faults + (site,))

