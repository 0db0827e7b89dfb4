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
that also carries the event's token. `compile_program` sweeps the
time-ordered instructions once, reading each line qubit's idle channel once
per circuit and recording each qubit's X-basis delay segments. After the
sweep, each token is matched against the segment lists of its two line
neighbours only, and each resulting `xtalk` op is inserted at its time by
bisecting the ops' times. One peephole pass then fuses each qubit's
channels between two ops that read or couple it into one exact Markov
composition. A `relax` op some `xtalk` reads stays unfused and in place, so
the first-overlap crosstalk rule sees its events.

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

from bisect import bisect_left
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


def _event_time(event: Instruction | FaultSite) -> tuple[int, int]:
    # at equal times a fault acts before an instruction
    return (event.time_ns, 1) if isinstance(event, FaultSite) else (event.start, 2)


def compile_program(circuit: Circuit, noise: NoiseModel) -> FrameProgram:
    """Walk the circuit once, check the tracked-basis contract, and lower
    every instruction to a vectorized operation with its channel
    probabilities baked in. Raises BasisContractError if the circuit cannot
    be tracked classically.

    Events run in (time, phase, order) order: a crosstalk resolution
    (phase 0) before a fault (phase 1), and a fault before an instruction
    (phase 2). The builder's instructions are already in time order, so
    only a circuit with faults or out-of-order instructions is sorted.
    """
    line = circuit.line
    n = len(line)
    index = {q: i for i, q in enumerate(line)}
    basis = ["Z"] * n
    idle = [noise.idle_channel(q) for q in line]
    prep = noise.preparation_flip()
    eta = noise.crosstalk()

    events = circuit.instructions
    starts = [ins.start for ins in events]
    if circuit.faults or starts != sorted(starts):
        events = sorted(events + circuit.faults, key=_event_time)

    ops: list[tuple] = []
    times: list[int] = []  # each op's event time, nondecreasing
    sources: list[tuple[int, int, int, int]] = []  # (token, qubit index, start, end)
    x_segments: list[list[tuple[int, int, int]]] = [[] for _ in line]  # (end, start, id)
    n_segments = 0
    for ev in events:
        if isinstance(ev, FaultSite):
            i = index[ev.qubit]
            if _flip_mask(basis[i])[ev.pauli]:
                ops.append(("channel", i, 1.0, 1.0))
                times.append(ev.time_ns)
            continue
        kind, time = ev.kind, ev.start
        q = ev.qubits[0]
        i = index[q]
        if kind == "delay":
            ch, d = idle[i], ev.duration
            if basis[i] == "Z":
                p10, p01 = ch.p_1to0(d), ch.p_0to1(d)
                # a decay event crosstalk may read gets the segment's id as
                # its token
                if p10 > 0.0 and eta > 0.0:
                    ops.append(("relax", i, p01, p10, n_segments))
                    sources.append((n_segments, i, time, time + d))
                else:
                    ops.append(("channel", i, p01, p10))
            else:
                p = ch.p_phaseflip(d, ev.echoed)
                ops.append(("channel", i, p, p))
                x_segments[i].append((time + d, time, n_segments))
            n_segments += 1
        elif kind == "x":
            if basis[i] != "Z":
                continue  # an x on an X-basis qubit changes only the phase
            ops.append(("channel", i, 1.0, 1.0))
        elif kind == "cx":
            c, t = ev.qubits
            j = index[t]
            if basis[j] != "Z":
                raise BasisContractError(
                    f"cx at t={time} has an {basis[j]}-basis target {t}; only Z-basis "
                    "targets are trackable"
                )
            if abs(i - j) != 1:
                raise BasisContractError(f"cx at t={time} couples {c} and {t}, which are not neighbours in the line")
            ops.append(("cx", i, j, noise.cx_error(c, t)))
        elif kind == "measure":
            if basis[i] != "Z":
                raise BasisContractError(f"measurement of X-basis qubit {q} at t={time}")
            ops.append(("measure", i, ev.slot, noise.readout_flip(q)))
        elif kind == "prepare_z0":
            basis[i] = "Z"
            ops.append(("prep", i, prep))
        elif kind == "reset":
            basis[i] = "Z"
            ops.append(("prep", i, 0.0))
        elif kind == "h":
            basis[i] = "X" if basis[i] == "Z" else "Z"
            continue
        else:
            raise BasisContractError(f"unknown instruction kind {kind!r}")
        times.append(time)

    # each source token hits a given neighbour at most once: its first (by
    # end time) overlapping X-basis segment there receives the eta-weighted
    # phase flip, resolved when that segment ends, after every source that
    # overlaps it has been sampled
    receivers: dict[int, tuple[int, int, list]] = {}  # segment id -> (end, qubit index, entries)
    for token, i, start, end in sources:
        for j in (i - 1, i + 1):
            hits = [seg for seg in x_segments[j] if seg[1] < end and seg[0] > start] if 0 <= j < n else ()
            if hits:
                seg_end, _, seg_id = min(hits)
                receivers.setdefault(seg_id, (seg_end, j, []))[2].append((token, eta))
    # an xtalk goes before every op at or after its time, and xtalks of
    # equal time go in segment order; inserting the latest first keeps the
    # positions bisected on the unchanged time list valid
    for seg_id, (seg_end, j, entries) in sorted(receivers.items(), key=lambda r: (r[1][0], r[0]), reverse=True):
        ops.insert(bisect_left(times, seg_end), ("xtalk", j, tuple(entries)))
    live = {token for _, _, entries in receivers.values() for token, _ in entries}
    return FrameProgram(ops=_fuse_idle_channels(ops, live), n_qubits=n, n_slots=circuit.n_slots)


def _fuse_idle_channels(ops: list[tuple], live: set[int]) -> tuple[tuple, ...]:
    """Peephole pass: compose each qubit's run of channel ops and of relax
    ops whose token is not `live` (read by some xtalk) into one channel op.

    The pending channel of a qubit is emitted just before the next op that
    reads or couples it (cx, measure, xtalk, or a live-token relax, which
    itself stays in place); a prep or the end of the program discards it,
    and an identity channel is dropped. Each emitted op is the exact Markov
    composition of the ops it replaces.
    """
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

