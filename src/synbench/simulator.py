"""Exact round-2 detector-pair distributions of benchmark circuits, and
shots drawn from them.

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

Every single-qubit map, preparation and reset included, is a 2x2 channel
(P(0->1), P(1->0)): x flips are (1, 1), dephasing (p, p), relaxation its
two directions, and a preparation with flip p is (p, 1 - p), which sets the
bit whatever it was (a reset has p = 0). `compile_program` sorts the
instructions once, stably by start, and sweeps them once, reading each line
qubit's idle channel once per circuit and recording each qubit's X-basis
delay segments. After the sweep, each relaxation token is matched against
the segment lists of its two line neighbours only, and each resulting
`xtalk` op is inserted at its time by bisecting the ops' times. One peephole
pass then composes each qubit's channels between two ops that read or
couple it into one exact Markov composition and folds it into the op that
reads it next, so the program has no channel ops: each `cx`, `measure`,
`xtalk` and `relax` op carries its qubits' pending channel, as (up, down)
pairs, and the end of the program discards it. A preparation in that
composition forgets what came before it, since any channel followed by it
equals it. A relaxation some `xtalk` reads stays a `relax` op, so the
first-overlap crosstalk rule sees its events; these live tokens are
numbered 0, 1, ... in creation order. The op formats:

    ("cx", control, target, eps, control channel, target channel)
    ("measure", i, readout flip, channel)
    ("relax", i, token, P(0->1), P(1->0), channel)
    ("xtalk", i, ((token, eta), ...), channel)

The pipeline's logical 0 and logical 1 circuits of a qubit then compile to
programs of one structure (the same ops up to their probabilities): they
differ only in the channels folded into the first cx layer.

`pair_distribution(*programs)` walks the ops once over a probability vector
on binary axes, for every program of one structure at a time behind a
leading batch axis. The qubit axes come first, in line order; then one axis
per live crosstalk token, added at its relax and summed out by the last
xtalk that reads it; then one parity axis per measured qubit, in line
order, added at its first measure, into which each later measure XORs its
read-out bit. Each op is one or two numpy calls on the members' stacked
matrices: a cx one matmul of 4x4 matrices on the (batch, 2**lo, 4, -1) view
of its two neighbouring qubits; a measure or a relax one matmul to (bit,
new bit) on the (batch, 2**i, 2, -1) view and one transposed copy, or a sum
for a later measure; an xtalk one matmul for its channel and one per token
it reads. A benchmark circuit measures each auxiliary once per round, so
its parity axes are the round-2 detectors, and the result is the 4 cells of
(d_left, d_right), cell 2 d_left + d_right.

`run_shots` draws its shots' cell counts with one multinomial and expands a
detector-major table of the cells by those counts, so each detector's bits
over all shots lie contiguous in memory; it returns the (shots, 2)
transposed view, rows grouped by cell.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .circuits import Circuit
from .noise import NoiseModel

# a folded channel that flips nothing
_NO_FLIP = (0.0, 0.0)

# the rows of the noise-free cx on a neighbour pair's (2**lo, 4, -1) view,
# whose middle index is 2 * (lower qubit's bit) + (upper qubit's bit); keyed
# by whether the control is the lower qubit
_CX_ROWS = {True: [0, 1, 3, 2], False: [0, 3, 2, 1]}

# _PAIR_TABLE[:, r] is cell r's (d_left, d_right)
_PAIR_TABLE = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)

# how many leading fields of each op say what it acts on; the rest are its
# probabilities, which may differ between programs of one structure
_STRUCTURE_FIELDS = {"cx": 3, "measure": 2, "relax": 3, "xtalk": 3}


class BasisContractError(ValueError):
    """Circuit steps outside what classical frame tracking can represent."""


@dataclass(frozen=True)
class FrameProgram:
    """A circuit compiled against a noise model, ready to execute."""

    ops: tuple[tuple, ...]
    n_qubits: int


def compile_program(circuit: Circuit, noise: NoiseModel) -> FrameProgram:
    """Walk the circuit once, check the tracked-basis contract, and lower
    every instruction to a vectorized operation with its channel
    probabilities baked in. Raises BasisContractError if the circuit cannot
    be tracked classically.

    The instructions run in one stable sort by start, so instructions of
    equal start keep their order; the builder's are already in time order.
    A crosstalk resolution goes before every op at or after its time.
    """
    line = circuit.line
    n = len(line)
    index = {q: i for i, q in enumerate(line)}
    basis = ["Z"] * n
    idle = [noise.idle[q] for q in line]
    prep, eta = noise.prep, noise.crosstalk

    ops: list[tuple] = []
    times: list[int] = []  # each op's event time, nondecreasing
    sources: list[tuple[int, int, int, int]] = []  # (token, qubit index, start, end)
    x_segments: list[list[tuple[int, int, int]]] = [[] for _ in line]  # (end, start, id)
    n_segments = 0
    for kind, qubits, time, d, echoed in sorted(circuit.instructions, key=attrgetter("start")):
        q = qubits[0]
        i = index[q]
        if kind == "delay":
            ch = idle[i]
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
                p = ch.p_phaseflip(d, echoed)
                ops.append(("channel", i, p, p))
                x_segments[i].append((time + d, time, n_segments))
            n_segments += 1
        elif kind == "x":
            if basis[i] != "Z":
                continue  # an x on an X-basis qubit changes only the phase
            ops.append(("channel", i, 1.0, 1.0))
        elif kind == "cx":
            c, t = qubits
            j = index[t]
            if basis[j] != "Z":
                raise BasisContractError(
                    f"cx at t={time} has an {basis[j]}-basis target {t}; only Z-basis "
                    "targets are trackable"
                )
            if abs(i - j) != 1:
                raise BasisContractError(f"cx at t={time} couples {c} and {t}, which are not neighbours in the line")
            ops.append(("cx", i, j, noise.cx[c, t]))
        elif kind == "measure":
            if basis[i] != "Z":
                raise BasisContractError(f"measurement of X-basis qubit {q} at t={time}")
            ops.append(("measure", i, noise.readout[q]))
        elif kind in ("prepare_z0", "reset"):
            # whatever the old bit, the new bit is 1 with probability p
            p = prep if kind == "prepare_z0" else 0.0
            basis[i] = "Z"
            ops.append(("channel", i, p, 1.0 - p))
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
    return FrameProgram(ops=_fold_idle_channels(ops, live), n_qubits=n)


def _fold_idle_channels(ops: list[tuple], live: set[int]) -> tuple[tuple, ...]:
    """Peephole pass: compose each qubit's run of channel ops and of relax
    ops whose token is not `live` (read by some xtalk) into one pending
    channel, the exact Markov composition of the ops it replaces.

    The pending channel of a qubit is folded into the next op that reads or
    couples it (cx, measure, xtalk, or a live-token relax); the end of the
    program discards it, so a reset no later op reads leaves nothing. A
    preparation's channel joins the run like any other; any channel
    followed by it equals it, so the run forgets what came before it. Live
    tokens are renumbered 0, 1, ... in creation order.
    """
    renumber = {token: k for k, token in enumerate(sorted(live))}
    pending: dict[int, tuple[float, float]] = {}
    out: list[tuple] = []
    for op in ops:
        tag, i = op[0], op[1]
        if tag == "channel" or (tag == "relax" and op[4] not in renumber):
            up, down = pending.get(i, _NO_FLIP)
            s_up, s_down = op[2], op[3]
            pending[i] = (
                (1.0 - up) * s_up + up * (1.0 - s_down),
                (1.0 - down) * s_down + down * (1.0 - s_up),
            )
            continue
        if tag == "cx":
            out.append(op + (pending.pop(i, _NO_FLIP), pending.pop(op[2], _NO_FLIP)))
        elif tag == "measure":
            out.append(op + (pending.pop(i, _NO_FLIP),))
        elif tag == "relax":
            out.append(("relax", i, renumber[op[4]], op[2], op[3], pending.pop(i, _NO_FLIP)))
        else:  # xtalk
            entries = tuple((renumber[token], eta) for token, eta in op[2])
            out.append(("xtalk", i, entries, pending.pop(i, _NO_FLIP)))
    return tuple(out)


def _channels(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) stochastic matrices [new bit, old bit] that move mass
    from bit 0 to 1 with probability `up` and from 1 to 0 with probability
    `down`."""
    return np.array([1.0 - up, down, up, 1.0 - down]).T.reshape(-1, 2, 2)


def _cx_matrices(ops: list[tuple]) -> np.ndarray:
    # (eps, lower qubit's channel, upper qubit's channel) and the cx's
    # noise-free rows
    eps, lo_up, lo_down, hi_up, hi_down = np.array(
        [(eps, *ch_c, *ch_t) if c < t else (eps, *ch_t, *ch_c) for _, c, t, eps, ch_c, ch_t in ops]
    ).T
    lo, hi = _channels(lo_up, lo_down), _channels(hi_up, hi_down)
    rows = [4 * k + r for k, op in enumerate(ops) for r in _CX_ROWS[op[1] < op[2]]]
    folded = (lo[:, :, None, :, None] * hi[:, None, :, None, :]).reshape(-1, 4)[rows].reshape(-1, 4, 4)
    # every error pattern flips (control, target) by one of the three
    # nonzero bit pairs with probability 4 eps / 15; the folded columns sum
    # to 1, so the error's uniform part is w in every cell
    w = (4.0 * eps / 15.0)[:, None, None]
    return (1.0 - 4.0 * w) * folded + w


def _measure_matrices(ops: list[tuple]) -> np.ndarray:
    # rows (bit, recorded bit) after the folded channel
    p, up, down = np.array([(op[2], *op[3]) for op in ops]).T
    readout = _channels(p, p)  # [bit, recorded bit]
    return (readout[:, :, :, None] * _channels(up, down)[:, :, None, :]).reshape(-1, 4, 2)


def _relax_matrices(ops: list[tuple]) -> np.ndarray:
    # rows (bit, decayed) after the folded channel: the token bit records a
    # 1 -> 0 decay, the event crosstalk reads
    p01, p10, up, down = np.array([(op[3], op[4], *op[5]) for op in ops]).T
    folded = _channels(up, down)
    out = np.zeros((len(ops), 4, 2))
    out[:, 0] = (1.0 - p01)[:, None] * folded[:, 0]
    out[:, 1] = p10[:, None] * folded[:, 1]
    out[:, 2] = p01[:, None] * folded[:, 0] + (1.0 - p10)[:, None] * folded[:, 1]
    return out


def _xtalk_matrices(ops: list[tuple]) -> np.ndarray:
    # the receiver's folded channel; the flips are applied per token
    return _channels(*np.array([op[3] for op in ops]).T)


_BUILDERS = {
    "cx": _cx_matrices,
    "measure": _measure_matrices,
    "relax": _relax_matrices,
    "xtalk": _xtalk_matrices,
}


def _matrices(columns: list[tuple[tuple, ...]], b: int) -> list[np.ndarray]:
    """The members' (b, 1, r, c) stack of matrices of each op of b programs
    of one structure, given the members' versions of each op. A measure's
    and a relax's matrix has rows (bit, new axis bit). Each tag's matrices
    are built in one vectorized pass."""
    by_tag: dict[str, list[tuple]] = {}
    for column in columns:
        by_tag.setdefault(column[0][0], []).extend(column)
    built = {}
    for tag, ops in by_tag.items():
        m = _BUILDERS[tag](ops)
        built[tag] = iter(m.reshape(-1, b, 1, *m.shape[1:]))
    return [next(built[column[0][0]]) for column in columns]


def _structure(program: FrameProgram) -> tuple:
    """What a program's ops act on, without their probabilities."""
    ops = tuple(op[: _STRUCTURE_FIELDS[op[0]]] for op in program.ops)
    return program.n_qubits, ops


def pair_distribution(*programs: FrameProgram) -> list[np.ndarray]:
    """The exact outcome probabilities of every program's measured qubits'
    parities, one array per program: for a benchmark circuit, the 4 cells
    of the round-2 detector pair, cell 2 d_left + d_right.

    A measured qubit's parity is the XOR of all its read-out bits. Cell r
    holds the outcome whose k-th measured qubit in line order has bit k of
    r, counted from the most significant end. Programs of one structure are
    walked together, in one pass behind a leading batch axis.
    """
    classes: dict[tuple, list[int]] = {}
    for k, program in enumerate(programs):
        classes.setdefault(_structure(program), []).append(k)
    out: dict[int, np.ndarray] = {}
    for members in classes.values():
        out.update(zip(members, _walk([programs[k] for k in members])))
    return [out[k] for k in range(len(programs))]


def _walk(programs: list[FrameProgram]) -> np.ndarray:
    """The (programs, 2**measured qubits) parity probabilities of programs
    of one structure, walked once over a flat vector on binary axes: the
    batch, the qubits in line order, the live tokens newest first, the
    parities in line order. Qubit i's bit is then the third axis of the
    vector's (batch, 2**i, 2, -1) view and the bits of neighbours lo and
    lo + 1 the third axis of its (batch, 2**lo, 4, -1) view, so each op is
    one matmul of the members' stacked matrices over such a view.
    """
    first = programs[0]
    nq, b = first.n_qubits, len(programs)
    last_read = {token: k for k, op in enumerate(first.ops) if op[0] == "xtalk" for token, _ in op[2]}
    state = np.zeros(b << nq)
    state[:: 1 << nq] = 1.0
    tokens: list[int] = []  # the token of axis nq + j, newest first
    measured: list[int] = []  # the qubit of each parity axis, after the tokens
    columns = list(zip(*(program.ops for program in programs)))
    for k, (column, m) in enumerate(zip(columns, _matrices(columns, b))):
        op = column[0]
        tag, i = op[0], op[1]
        if tag == "cx":
            state = np.matmul(m, state.reshape(b, 1 << min(i, op[2]), 4, -1))
        elif tag in ("measure", "relax"):
            moved = np.matmul(m, state.reshape(b, 1 << i, 2, -1))
            if tag == "relax":
                j = 0
                tokens.insert(0, op[2])
            elif i in measured:
                # the read-out bit, next to its qubit's bit, is XORed into
                # the qubit's parity axis
                j = len(tokens) + measured.index(i)
                v = moved.reshape(b << (i + 1), 2, 1 << (nq - i - 1 + j), 2, -1)
                state = v[:, 0] + v[:, 1, :, ::-1]
                continue
            else:
                j = bisect_left(measured, i)
                measured.insert(j, i)
                j += len(tokens)
            # the new axis moves from next to its qubit's bit to axis nq + j
            state = moved.reshape(b, 1 << i, 2, 2, 1 << (nq - i - 1 + j), -1).transpose(0, 1, 2, 4, 3, 5).ravel()
        else:  # xtalk
            state = np.matmul(m, state.reshape(b, 1 << i, 2, -1))
            for token, eta in op[2]:
                # the bit flips with probability eta where the token fired
                j = tokens.index(token)
                shape = (b << i, 2, 1 << (nq - i - 1 + j), 2, -1)
                flip = np.array([[1.0 - eta, eta], [eta, 1.0 - eta]])
                flipped = np.matmul(flip, state.reshape(b << i, 2, -1)).reshape(shape)
                if last_read[token] == k:
                    state = state.reshape(shape)[:, :, :, 0] + flipped[:, :, :, 1]
                    del tokens[j]
                else:
                    flipped[:, :, :, 0] = state.reshape(shape)[:, :, :, 0]
                    state = flipped
    return state.reshape(b, 1 << nq, -1).sum(axis=1)


def run_shots(pi: np.ndarray, shots: int, seed) -> np.ndarray:
    """Sample `shots` detector-pair outcomes from the 4 cells `pi` (as
    `pair_distribution` gives them); returns a (shots, 2) uint8 matrix of
    (d_left, d_right) bits.

    The rows are iid draws from `pi`: one multinomial, from a generator
    seeded by `seed` (an int or a tuple of ints), draws how many shots hold
    each cell. The rows come grouped by cell in ascending cell order, not in
    draw order. The matrix is the transposed view of C-contiguous
    (2, shots) storage, so each detector's column is contiguous. Output is
    a pure function of (pi, shots, seed).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if pi.shape != (4,):
        raise ValueError(f"pi must be the 4 cells of a detector pair, got shape {pi.shape}")
    return np.repeat(_PAIR_TABLE, np.random.default_rng(seed).multinomial(shots, pi), axis=1).T
