"""Sampling of benchmark circuits from their exact measurement-record
distribution.

A circuit compiles once into a flat list of ops on classical frames. Each
qubit is tracked as a (basis, bit) pair: Z basis with the computational
value, or X basis where bit 0/1 stand for the plus/minus states. The circuit
family keeps every qubit in a product state, so this tracking is exact while
preserving the asymmetry of relaxation. The tracked-basis contract is
enforced by a static compile pass: a cx must have a Z-basis target, with
either a Z-basis control (plain parity coupling) or an X-basis code control
(the conjugated coupling of the phase-flip encoding); measurements must be in
the Z basis.

Every single-qubit stochastic map (x flip, Pauli fault, dephasing,
relaxation) compiles to one 2x2 `channel` op (P(0->1), P(1->0)); a
relaxation whose decay event crosstalk may read is a `relax` op, a channel
that also carries the event's token. A peephole pass at the end of
compilation fuses each qubit's channels between two ops that read or couple
it into one exact Markov composition. A `relax` op some `xtalk` reads stays
unfused and in place, so the first-overlap crosstalk rule sees its events.

`record_distribution` walks the compiled ops once over a probability vector
on binary axes: the qubits first, then one axis per measured slot, appended
at its measure with the readout flip applied there, and one per live
crosstalk token, appended at its relax and summed out after the last xtalk
that reads it. A prep marginalizes its qubit and sets it again. The result
is the exact probability of every one of the 2**n_slots records, which is
why `run_shots` accepts at most MAX_ROUNDS rounds.

`run_shots` draws all its shots' record counts from that distribution with
one multinomial and returns the records grouped by value.
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

# the 15 non-identity two-qubit Paulis, uniform under the cx depolarizing
# channel
_PAULI2 = [(c, t) for c in "IXYZ" for t in "IXYZ"][1:]


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
            fc = _flip_mask(basis[c])
            ft = _flip_mask(basis[t])
            flips_c = np.array([fc[pc] for pc, _ in _PAULI2])
            flips_t = np.array([ft[pt] for _, pt in _PAULI2])
            emit(time, phase, ("cx", index[c], index[t], noise.cx_error(c, t), flips_c, flips_t))
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


def record_distribution(program: FrameProgram) -> np.ndarray:
    """The exact probability of each of the program's 2**n_slots
    measurement records.

    Cell r is the record whose slot j holds bit j of r, counted from the
    most significant end (slot 0 is the top bit). The ops are walked once
    over a flat probability vector on binary axes: the qubits first, then a
    slot axis appended at each measure and a token axis appended at each
    live-token relax and summed out after the last xtalk that reads it.
    """
    nq = program.n_qubits
    last_read = {token: k for k, op in enumerate(program.ops) if op[0] == "xtalk" for token, _ in op[2]}
    state = np.zeros(1 << nq)
    state[0] = 1.0
    extra: list[tuple[str, int]] = []  # ("s", slot) or ("t", token) of axis nq + j
    for k, op in enumerate(program.ops):
        tag, i = op[0], op[1]
        if tag == "channel":
            state = _flip_channel(state.reshape(1 << i, 2, -1), op[2], op[3]).ravel()
        elif tag == "relax":
            _, _, p01, p10, token = op
            v = state.reshape(1 << i, 2, -1)
            # the new last axis holds the decay event (bit 1 -> 0) that
            # crosstalk reads
            decay = v[:, 1] * p10
            up = v[:, 0] * p01
            new = np.zeros(v.shape + (2,))
            new[..., 0] = v
            new[:, 0, :, 0] -= up
            new[:, 1, :, 0] += up - decay
            new[:, 0, :, 1] = decay
            state = new.ravel()
            extra.append(("t", token))
        elif tag == "cx":
            _, _, t, eps, flips_c, flips_t = op
            v = _split(state, *sorted((i, t)))
            c_dim, t_dim = (1, 3) if i < t else (3, 1)
            control = v[(slice(None),) * c_dim + (1,)]
            control[...] = control[_reversed(t_dim - (t_dim > c_dim))]
            if eps > 0.0:
                # w[2a + b]: probability that the cx's error flips the
                # control by a and the target by b
                w = [1.0 - eps, 0.0, 0.0, 0.0]
                for a, b in zip(flips_c.tolist(), flips_t.tolist()):
                    w[2 * a + b] += eps / len(flips_c)
                out = v * w[0]
                out += v[_reversed(t_dim)] * w[1]
                out += v[_reversed(c_dim)] * w[2]
                out += v[_reversed(c_dim)][_reversed(t_dim)] * w[3]
                state = out.ravel()
        elif tag == "measure":
            _, _, slot, p = op
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
    by record in ascending record order, not in draw order. Output is a
    pure function of (circuit, noise, shots, seed).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if circuit.rounds > MAX_ROUNDS:
        raise ValueError(f"at most {MAX_ROUNDS} rounds can be sampled, got {circuit.rounds}")
    program = compile_program(circuit, noise)
    pi = record_distribution(program)
    cells = np.arange(pi.size)
    records = ((cells[:, None] >> np.arange(program.n_slots - 1, -1, -1)) & 1).astype(np.uint8)
    return np.repeat(records, np.random.default_rng(seed).multinomial(shots, pi), axis=0)


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

