"""Monte-Carlo sampling of benchmark circuits by classical frame tracking.

Each qubit is tracked as a (basis, bit) pair: Z basis with the computational
value, or X basis where bit 0/1 stand for the plus/minus states. The circuit
family keeps every qubit in a product state, so this tracking is exact while
preserving the asymmetry of relaxation. The tracked-basis contract is
enforced by a static compile pass: a cx must have a Z-basis target, with
either a Z-basis control (plain parity coupling) or an X-basis code control
(the conjugated coupling of the phase-flip encoding); measurements must be in
the Z basis.

Basis changes are deterministic, so a circuit compiles once into a flat list
of vectorized operations executed over fixed-size shot chunks. Chunk i draws
from its own generator seeded by (seed, i), so a longer run's bits extend a
shorter run's with the same seed.

A peephole pass at the end of compilation fuses each qubit's single-qubit
channels (flips, dephasing and relaxation) between two ops that read or
couple it into one 2x2 stochastic op, so an echo-split idle chain costs one
draw. A relaxation op whose event token some crosstalk op reads stays
unfused and in place, so the first-overlap crosstalk rule sees the same
events. The fused op is the exact Markov composition of the ops it replaces:
the sampled distribution is that of the unfused program, though the random
stream differs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit, FaultSite, Instruction
from .noise import NoiseModel

CHUNK_SHOTS = 8192

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
    n_tokens: int


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
    n_tokens = 0

    def emit(time: int, phase: int, op: tuple) -> None:
        nonlocal order
        ops.append((time, phase, order, op))
        order += 1

    for time, phase, _seq, item in events:
        if isinstance(item, FaultSite):
            if _flip_mask(basis[item.qubit])[item.pauli]:
                emit(time, phase, ("flip", index[item.qubit]))
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
                emit(time, phase, ("flip", i))
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
            eps = noise.cx_error(c, t)
            if eps > 0.0:
                fc = _flip_mask(basis[c])
                ft = _flip_mask(basis[t])
                flips_c = np.array([fc[pc] for pc, _ in _PAULI2])
                flips_t = np.array([ft[pt] for _, pt in _PAULI2])
                emit(time, phase, ("cx", index[c], index[t], eps, flips_c, flips_t))
            else:
                emit(time, phase, ("cx0", index[c], index[t]))
        elif ins.kind == "delay":
            if basis[q] == "Z":
                p10, p01 = noise.relax_probs(q, ins.duration)
                token = -1
                if p10 > 0.0 and eta > 0.0:
                    token = n_tokens
                    n_tokens += 1
                if p10 > 0.0 or p01 > 0.0:
                    emit(time, phase, ("relax", i, p10, p01, token))
                segments.append(_Segment(q, i, ins.start, ins.end, "Z", token, len(segments)))
            else:
                p = noise.dephase_prob(q, ins.duration, ins.echoed)
                if p > 0.0:
                    emit(time, phase, ("dephase", i, p))
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
        n_tokens=n_tokens,
    )


def _fuse_idle_channels(ops: list[tuple]) -> tuple[tuple, ...]:
    """Peephole pass: compose each qubit's run of flip, dephase and
    dead-token relax ops into one 2x2 stochastic channel.

    A channel is (P(0->1), P(1->0)). The pending channel of a qubit is
    emitted just before the next op that reads or couples it (cx, cx0,
    measure, xtalk, or a relax whose token some xtalk reads, which itself
    stays in place); a prep or the end of the program discards it. Each
    emitted op is the exact Markov composition of the ops it replaces.
    """
    live = {token for op in ops if op[0] == "xtalk" for token, _ in op[2]}
    pending: dict[int, tuple[float, float]] = {}
    out: list[tuple] = []

    def flush(i: int) -> None:
        up, down = pending.pop(i, (0.0, 0.0))
        if up == down == 0.0:
            return
        if up == down == 1.0:
            out.append(("flip", i))
        elif up == down:
            out.append(("dephase", i, up))
        else:
            out.append(("relax", i, down, up, -1))

    for op in ops:
        tag = op[0]
        if tag == "flip":
            step = (1.0, 1.0)
        elif tag == "dephase":
            step = (op[2], op[2])
        elif tag == "relax" and op[4] not in live:
            step = (op[3], op[2])
        else:
            if tag == "prep":
                pending.pop(op[1], None)
            elif tag in ("cx", "cx0"):
                flush(op[1])
                flush(op[2])
            else:  # measure, xtalk, live-token relax
                flush(op[1])
            out.append(op)
            continue
        up, down = pending.get(op[1], (0.0, 0.0))
        s_up, s_down = step
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


def _run_chunk(program: FrameProgram, n: int, rng: np.random.Generator) -> np.ndarray:
    bits = np.zeros((program.n_qubits, n), dtype=bool)
    out = np.zeros((program.n_slots, n), dtype=bool)
    tokens: list[np.ndarray | None] = [None] * program.n_tokens
    for op in program.ops:
        tag = op[0]
        if tag == "relax":
            _, i, p10, p01, token = op
            u = rng.random(n)
            flips = np.where(bits[i], u < p10, u < p01)
            if token >= 0:
                tokens[token] = bits[i] & flips
            bits[i] ^= flips
        elif tag == "dephase":
            _, i, p = op
            bits[i] ^= rng.random(n) < p
        elif tag == "cx0":
            bits[op[2]] ^= bits[op[1]]
        elif tag == "cx":
            _, ci, ti, eps, flips_c, flips_t = op
            bits[ti] ^= bits[ci]
            hit = rng.random(n) < eps
            pauli = rng.integers(0, 15, size=n)
            bits[ci] ^= hit & flips_c[pauli]
            bits[ti] ^= hit & flips_t[pauli]
        elif tag == "measure":
            _, i, slot, p = op
            if p > 0.0:
                out[slot] = bits[i] ^ (rng.random(n) < p)
            else:
                out[slot] = bits[i]
        elif tag == "prep":
            _, i, p = op
            if p > 0.0:
                bits[i] = rng.random(n) < p
            else:
                bits[i] = False
        elif tag == "flip":
            bits[op[1]] ^= True
        elif tag == "xtalk":
            _, i, entries = op
            for token, eta in entries:
                mask = tokens[token]
                if mask is None:
                    continue
                bits[i] ^= mask & (rng.random(n) < eta)
        else:  # pragma: no cover - compile emits only the tags above
            raise RuntimeError(f"unknown op {tag!r}")
    return out


def run_shots(circuit: Circuit, noise: NoiseModel, shots: int, seed) -> np.ndarray:
    """Sample `shots` outcomes; returns a (shots, slots) uint8 bit matrix.

    Output is a pure function of (circuit, noise, shots, seed): shots are
    simulated in fixed-size chunks, chunk k with a generator seeded by
    (seed, k), so a longer run's bits extend a shorter run's.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    program = compile_program(circuit, noise)
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    parts = []
    for k, start in enumerate(range(0, shots, CHUNK_SHOTS)):
        rng = np.random.default_rng((*base, k))
        parts.append(_run_chunk(program, min(CHUNK_SHOTS, shots - start), rng))
    return np.concatenate([p.T for p in parts], axis=0).astype(np.uint8)


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

