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
(P(0->1), P(1->0)): x flips are (1, 1), a delay is its qubit's
`IdleChannel.channel` in the qubit's basis (dephasing (p, p) in the X
basis, relaxation's two directions in the Z basis), and a preparation with
flip p is (p, 1 - p), which sets the bit whatever it was (a reset has
p = 0). `compile_program` sweeps the instructions twice, in the circuit's
time order: once to note each qubit's X-basis delays, then once to emit the
ops. The first sweep runs only when crosstalk can act: eta > 0 and the
circuit has an h, since only an h puts a qubit in the X basis. As the
second sweep goes, it composes each qubit's channels between two ops that
act on it into one exact Markov composition, folded into the next such op
as an (up, down) pair, so the program has no channel ops; the end of the
program discards the rest. A preparation forgets what came before it,
since any channel followed by it equals it. Each Z-basis delay that can
decay and overlaps an X-basis delay of a line neighbour becomes a `decay`
op: its decays (1 -> 0) flip each such receiver once, with probability
eta, at the decay itself. No op after the last measure can change a
parity, so the program ends there. A program holds its ops, which name
what acts on which qubits, and rows of doubles, each with every op's
probabilities in op order: its parameters, then one (up, down) channel per
qubit of its block of neighbouring qubits, lowest first:

    op                          its parameters
    ("cx", control, target)     eps
    ("measure", i)              readout flip
    ("decay", i, receivers)     P(0->1), P(1->0), eta

A circuit compiles with one prelude per row, by default one empty prelude.
A prelude's x gates and delays act right after the preparations, all in
the Z basis, so they only change each qubit's channel pending after its
preparation, and every row has the same ops. An op writes its parameters,
then its block's pending channels, lowest first, and clears them (the read
rule). With several rows, each qubit forks at its preparation and carries
every row's pending channel until an op reads it, and rows 1.. are copies
of row 0 with those reads' columns written in (the fork rule). The
pipeline compiles a qubit's logical-0 circuit once with each configured
logical value's prelude (`circuits.logical_prelude`): row v is byte for
byte the row of that logical value's own circuit, whose rest starts at the
prelude's end.

`pair_distribution(programs)` reads its programs lazily, appending each
one's rows to those of the programs with its ops, then walks the ops once
over a probability vector on binary axes, for all the rows with those ops
at a time behind a leading batch axis. The qubit axes come first, in
line order; then one parity axis per measured qubit, in line order, added at
its first measure, into which each later measure XORs its read-out bit. Each
op is one matmul of the members' stacked matrices on the
(batch, 2**lo, 2**k, -1) view of its block of k neighbouring qubits from
lo, a measure's to (bit, read-out bit); a measure then moves its read-out
bit with one transposed copy, or XORs it with a sum for a later measure.
A benchmark circuit measures each auxiliary once per round, so its parity
axes are the round-2 detectors, and the result is the 4 cells of
(d_left, d_right), cell 2 d_left + d_right.

`run_shots` draws its shots' cell counts with one multinomial and expands a
detector-major table of the cells by those counts, so each detector's bits
over all shots lie contiguous in memory; it returns the (shots, 2)
transposed view, rows grouped by cell.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .circuits import Circuit, Instruction
from .noise import NoiseModel

# a folded channel that flips nothing
_NO_FLIP = (0.0, 0.0)

# the rows of the noise-free cx on a neighbour pair's (2**lo, 4, -1) view,
# whose middle index is 2 * (lower qubit's bit) + (upper qubit's bit); keyed
# by its layout: the control's and the target's offsets from the lower qubit
_CX_ROWS = {("cx", 0, 1): [0, 1, 3, 2], ("cx", 1, 0): [0, 3, 2, 1]}

# _PAIR_TABLE[:, r] is cell r's (d_left, d_right)
_PAIR_TABLE = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.uint8)


class BasisContractError(ValueError):
    """Circuit steps outside what classical frame tracking can represent."""


@dataclass(frozen=True)
class FrameProgram:
    """A circuit compiled against a noise model: its ops, and `rows`
    probability rows of equal length back to back in `probs`."""

    ops: tuple[tuple, ...]
    probs: array
    n_qubits: int
    rows: int = 1


def _then(channel: tuple[float, float], up: float, down: float) -> tuple[float, float]:
    """The exact Markov composition of a pending (up, down) channel, then
    this one."""
    was_up, was_down = channel
    return (1.0 - was_up) * up + was_up * (1.0 - down), (1.0 - was_down) * down + was_down * (1.0 - up)


def _fold(channel: tuple[float, float], channels: list) -> tuple[float, float]:
    """A pending channel, then each of `channels` in turn."""
    for up, down in channels:
        channel = _then(channel, up, down)
    return channel


def _prelude_channels(prelude: Iterable[Instruction], index: dict[int, int], idle: list) -> list[list]:
    """Each line qubit's channels of a prelude, in time order: an x flips
    both ways, and a delay relaxes a Z-basis qubit."""
    channels: list[list] = [[] for _ in index]
    try:
        for kind, qubits, time, d, _ in sorted(prelude, key=itemgetter(2)):
            i = index[qubits[0]]
            if kind == "x":
                channels[i].append((1.0, 1.0))
            elif kind == "delay":
                channels[i].append(idle[i].channel(d, False))
            else:
                raise BasisContractError(f"a prelude holds {kind!r} at t={time}; only x and Z-basis delays fold in")
    except KeyError as missing:
        raise BasisContractError(f"a prelude's {kind} at t={time} on qubits {qubits}: qubit {missing} is not in the line") from None
    return channels


def compile_program(
    circuit: Circuit, noise: NoiseModel, preludes: Iterable[Iterable[Instruction]] = ((),)
) -> FrameProgram:
    """Lower the circuit to ops and one probability row per prelude in two
    sweeps over its instructions in time order, checking the tracked-basis
    contract. Raises BasisContractError if the circuit cannot be tracked
    classically, names a qubit off its line, or has a cx the noise model lacks.

    A prelude is instructions that act right after the preparations, x
    gates and Z-basis delays only: each qubit's channels from it fold in
    right after the qubit's preparation, in time order. Row v is therefore
    the row of the circuit that runs prelude v first and the rest after
    its end, and every row has the same ops.

    The first sweep, made only when eta > 0 and some instruction is an h,
    looks only at h, preparations, resets and delays, and records each
    qubit's X-basis delays as their starts and the running maximum of their
    ends. The second folds each qubit's channels into one pending (up,
    down) pair and writes row 0's ops and probabilities up to the last
    measure. A Z-basis delay [start, end) that can decay is received by a
    line neighbour iff the latest end among the neighbour's X-basis delays
    that start before `end`, found by one bisect, lies after `start`.

    The read rule: a cx, a measure or a decay block writes its parameters,
    then its block's pending pairs, lowest first, and clears them. The fork
    rule: with several rows, each qubit also carries rows 1..'s pending
    pairs, composed as row 0's, from its preparation to the first op that
    reads it, which notes them at the qubit's column; rows 1.. are row 0
    with their noted pairs written in.
    """
    line = circuit.line
    n = len(line)
    index = {q: i for i, q in enumerate(line)}
    idle = [noise.idle[q] for q in line]
    folds = [_prelude_channels(prelude, index, idle) for prelude in preludes]
    if not folds:
        raise ValueError("compile_program needs one prelude per row, and at least one row")
    first, *others = folds

    # only an h puts a qubit in the X basis, so without one no delay has a
    # receiver and the first sweep is skipped
    prep, eta = noise.prep, noise.crosstalk
    crosstalk = eta > 0.0 and "h" in map(itemgetter(0), circuit.instructions)
    x_starts: list[list[int]] = [[] for _ in line]
    x_reach: list[list[int]] = [[] for _ in line]  # the running maximum end
    in_x = [False] * n
    pending = [_NO_FLIP] * n  # row 0's pending channel of each qubit
    forked: dict[int, list] = {}  # rows 1..'s pending channels of a qubit not read since its preparation
    noted: list[tuple[int, list]] = []  # a read forked qubit's column in row 0, and rows 1..'s pairs
    row: list[float] = []
    ops: list[tuple] = []
    op = None  # the op that reads the current instruction's block, if any
    kept = kept_probs = 0  # the ops, and their probabilities, up to the last measure
    try:
        if crosstalk:
            for kind, qubits, time, d, _ in circuit.instructions:
                if kind == "delay":
                    i = index[qubits[0]]
                    if in_x[i]:
                        reach = x_reach[i]
                        x_starts[i].append(time)
                        reach.append(max(time + d, reach[-1]) if reach else time + d)
                elif kind == "h":
                    i = index[qubits[0]]
                    in_x[i] = not in_x[i]
                elif kind == "prepare_z0" or kind == "reset":
                    in_x[index[qubits[0]]] = False
            in_x = [False] * n
        for kind, qubits, time, d, echoed in circuit.instructions:
            q = qubits[0]
            i = index[q]
            if kind == "delay":
                up, down = idle[i].channel(d, in_x[i], echoed)
                # a Z-basis delay that can decay reaches a receiver whose first
                # k X-basis delays, those that start before this one ends,
                # reach past its start
                if crosstalk and not in_x[i] and down > 0.0:
                    end = time + d
                    left = i and (k := bisect_left(x_starts[i - 1], end)) and x_reach[i - 1][k - 1] > time
                    right = i + 1 < n and (k := bisect_left(x_starts[i + 1], end)) and x_reach[i + 1][k - 1] > time
                    if left or right:
                        op = ("decay", i, (i - 1, i + 1) if left and right else (i - 1,) if left else (i + 1,))
                        params, block = (up, down, eta), range(i - 1 if left else i, i + 2 if right else i + 1)
            elif kind == "x":
                if in_x[i]:  # an x on an X-basis qubit changes only the phase
                    continue
                up = down = 1.0
            elif kind == "cx":
                c, t = qubits
                j = index[t]
                if in_x[j]:
                    raise BasisContractError(f"cx at t={time} has an X-basis target {t}; only Z-basis targets are trackable")
                if abs(i - j) != 1:
                    raise BasisContractError(f"cx at t={time} couples {c} and {t}, which are not neighbours in the line")
                op, params, block = ("cx", i, j), (noise.cx[c, t],), (i, j) if i < j else (j, i)
            elif kind == "measure":
                if in_x[i]:
                    raise BasisContractError(f"measurement of X-basis qubit {q} at t={time}")
                op, params, block = ("measure", i), (noise.readout[q],), (i,)
            elif kind in ("prepare_z0", "reset"):
                # whatever the old bit, the new bit is 1 with probability p; any
                # channel followed by this one equals it
                in_x[i] = False
                up = prep if kind == "prepare_z0" else 0.0
                down = 1.0 - up
            elif kind == "h":
                in_x[i] = not in_x[i]
                continue
            else:
                raise BasisContractError(f"unknown instruction kind {kind!r}")
            if op:
                # the read rule, and the fork rule's note
                ops.append(op)
                row += params
                for j in block:
                    if j in forked:
                        noted.append((len(row), forked.pop(j)))
                    row += pending[j]
                    pending[j] = _NO_FLIP
                if kind == "measure":
                    kept, kept_probs = len(ops), len(row)
                op = None
                continue
            # the exact Markov composition of the qubit's pending channel, then this one
            was_up, was_down = pending[i]
            pending[i] = ((1.0 - was_up) * up + was_up * (1.0 - down), (1.0 - was_down) * down + was_down * (1.0 - up))
            if i in forked:
                forked[i] = [_then(channel, up, down) for channel in forked[i]]
            if kind == "prepare_z0":
                # each row's prelude channels of this qubit act right after its preparation
                if others:
                    own = forked.get(i) or [pending[i]] * len(others)
                    forked[i] = [_fold(channel, fold[i]) for channel, fold in zip(own, others)]
                pending[i] = _fold(pending[i], first[i])
    except KeyError as missing:
        key = missing.args[0]
        what = f"the noise model has no cx error for {key}" if isinstance(key, tuple) else f"qubit {key} is not in the line"
        raise BasisContractError(f"{kind} at t={time} on qubits {qubits}: {what}") from None
    probs = array("d", row[:kept_probs]) * len(folds)
    for at, pairs in noted:
        if at < kept_probs:  # read before the last measure
            for k, (up, down) in zip(range(at + kept_probs, len(probs), kept_probs), pairs):
                probs[k] = up
                probs[k + 1] = down
    return FrameProgram(ops=tuple(ops[:kept]), probs=probs, n_qubits=n, rows=len(folds))


def _channels(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) stochastic matrices [new bit, old bit] that move mass
    from bit 0 to 1 with probability `up` and from 1 to 0 with probability
    `down`."""
    return np.array([1.0 - up, down, up, 1.0 - down]).T.reshape(-1, 2, 2)


def _cx_matrices(layout: tuple, params: np.ndarray, folded: np.ndarray) -> np.ndarray:
    # every error pattern flips (control, target) by one of the three
    # nonzero bit pairs with probability 4 eps / 15; the folded columns sum
    # to 1, so the error's uniform part is w in every cell
    w = (4.0 * params[:, 0] / 15.0)[:, None, None]
    return (1.0 - 4.0 * w) * np.take(folded, _CX_ROWS[layout], axis=1) + w


def _measure_matrices(layout: tuple, params: np.ndarray, folded: np.ndarray) -> np.ndarray:
    # rows (bit, recorded bit) after the folded channel
    p = params[:, 0]
    readout = _channels(p, p)  # [bit, recorded bit]
    return (readout[:, :, :, None] * folded[:, :, None, :]).reshape(-1, 4, 2)


def _decay_matrices(layout: tuple, params: np.ndarray, folded: np.ndarray) -> np.ndarray:
    # the source's relaxation after the folded channels, whose decays flip
    # each receiver with probability eta; rows of one source bit are views
    # of the folded matrices, updated in place
    _, s, *receivers = layout
    n = len(params)
    p01, p10, eta = (params[:, f, None, None] for f in range(3))
    split = folded.reshape(n, 1 << s, 2, -1)
    zero, one = split[:, :, 0], split[:, :, 1]
    decayed = (p10 * one).reshape(n, 1 << s, -1)
    one *= 1.0 - p10
    one += p01 * zero
    zero *= 1.0 - p01
    for j in receivers:
        # the receiver's bit among the decayed rows, which lack the source's
        v = decayed.reshape(n, 1 << (j - (j > s)), 2, -1)
        v[:] = (1.0 - eta[:, :, None]) * v + eta[:, :, None] * v[:, :, ::-1]
    zero += decayed.reshape(zero.shape)
    return folded


_BUILDERS = {"cx": _cx_matrices, "measure": _measure_matrices, "decay": _decay_matrices}

# how many parameters of each kind lead its op's columns in the row
_PARAMS = {"cx": 1, "measure": 1, "decay": 3}


def _layout(op: tuple) -> tuple[int, tuple]:
    """The first line index of the op's block of neighbouring qubits, and
    its layout: the kind and its qubits' offsets from that index, a cx's
    control or a decay's source first. Ops of one layout have matrices of
    one shape and meaning, and the kind's parameters then 2 * (block
    length) channel columns in the row."""
    qubits = (op[1], *op[2]) if op[0] == "decay" else op[1:]
    lo = min(qubits)
    return lo, (op[0], *(q - lo for q in qubits))


def _matrices(placed: list[tuple[int, tuple]], probs: np.ndarray) -> list[np.ndarray]:
    """The members' (b, 1, r, c) stack of matrices of each op of b programs,
    given each op's `_layout` and the members' (b, m) probability rows. A
    measure's matrix has rows (bit, recorded bit). Each layout's matrices
    are built in one vectorized pass: the Kronecker product of its block's
    channels, the first on the most significant bit, then its kind's
    builder."""
    b = len(probs)
    by_layout: dict[tuple, list[np.ndarray]] = {}
    start = 0
    for _, layout in placed:
        end = start + _PARAMS[layout[0]] + 2 * max(layout[1:]) + 2
        by_layout.setdefault(layout, []).append(probs[:, start:end])
        start = end
    built = {}
    for layout, parts in by_layout.items():
        columns = np.concatenate(parts)
        k = _PARAMS[layout[0]]
        folded = _channels(columns[:, k], columns[:, k + 1])
        for c in range(k + 2, columns.shape[1], 2):
            n, r, _ = folded.shape
            ch = _channels(columns[:, c], columns[:, c + 1])
            folded = (folded[:, :, None, :, None] * ch[:, None, :, None, :]).reshape(n, 2 * r, 2 * r)
        m = _BUILDERS[layout[0]](layout, columns[:, :k], folded)
        built[layout] = iter(m.reshape(-1, b, 1, *m.shape[1:]))
    return [next(built[layout]) for _, layout in placed]


def pair_distribution(programs: Iterable[FrameProgram]) -> list[np.ndarray]:
    """The exact outcome probabilities of every program's measured qubits'
    parities, one array per row, programs in order and each program's rows
    in order: for a benchmark circuit, the 4 cells of the round-2 detector
    pair, cell 2 d_left + d_right.

    A measured qubit's parity is the XOR of all its read-out bits. Cell r
    holds the outcome whose k-th measured qubit in line order has bit k of
    r, counted from the most significant end. `programs` is read once,
    lazily: each program's rows are appended to those of the programs with
    its ops and qubit count, and the program is released before the next is
    read. Rows with equal ops are walked together, in one pass behind a
    leading batch axis.
    """
    classes: dict[tuple, tuple[list[int], bytearray]] = {}
    count = 0
    for program in programs:
        members, rows = classes.setdefault((program.n_qubits, program.ops), ([], bytearray()))
        members += range(count, count + program.rows)
        rows += program.probs
        count += program.rows
        del program  # released before the next one is made
    out: dict[int, np.ndarray] = {}
    for (nq, ops), (members, rows) in classes.items():
        out.update(zip(members, _walk(nq, ops, np.frombuffer(rows).reshape(len(members), -1))))
    return [out[k] for k in range(count)]


def _walk(nq: int, ops: tuple[tuple, ...], probs: np.ndarray) -> np.ndarray:
    """The (programs, 2**measured qubits) parity probabilities of programs
    with these ops on `nq` qubits, given the members' probability rows,
    walked once over a flat vector on binary axes: the batch, the qubits in
    line order, the parities in line order. Each op is one matmul of the
    members' stacked matrices over a view whose third axis holds the bits
    of its block of neighbours, which starts at the index `_layout` gives.
    """
    b = len(probs)
    state = np.zeros(b << nq)
    state[:: 1 << nq] = 1.0
    measured: list[int] = []  # the qubit of each parity axis
    placed = [_layout(op) for op in ops]
    for (i, layout), m in zip(placed, _matrices(placed, probs)):
        state = np.matmul(m, state.reshape(b, 1 << i, m.shape[-1], -1))
        if layout[0] != "measure":
            continue
        if i in measured:
            # the read-out bit, next to its qubit's bit, is XORed into the
            # qubit's parity axis
            v = state.reshape(b << (i + 1), 2, 1 << (nq - i - 1 + measured.index(i)), 2, -1)
            state = v[:, 0] + v[:, 1, :, ::-1]
        else:
            # the read-out bit moves from next to its qubit's bit to a new
            # parity axis nq + j
            j = bisect_left(measured, i)
            measured.insert(j, i)
            state = state.reshape(b, 1 << i, 2, 2, 1 << (nq - i - 1 + j), -1).transpose(0, 1, 2, 4, 3, 5).ravel()
    return state.reshape(b, 1 << nq, -1).sum(axis=1)


def run_shots(pi: np.ndarray, shots: int, seed) -> np.ndarray:
    """Sample `shots` detector-pair outcomes from the 4 cells `pi` (as
    `pair_distribution` gives them); returns a (shots, 2) uint8 matrix of
    (d_left, d_right) bits.

    The rows are iid draws from `pi`: one multinomial draws how many shots
    hold each cell. `seed` is anything `np.random.default_rng` takes; a
    `Generator` is drawn from in place, so its stream moves on past the
    draw. The rows come grouped by cell in ascending cell order, not in
    draw order. The matrix is the transposed view of C-contiguous
    (2, shots) storage, so each detector's column is contiguous.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if pi.shape != (4,):
        raise ValueError(f"pi must be the 4 cells of a detector pair, got shape {pi.shape}")
    return np.repeat(_PAIR_TABLE, np.random.default_rng(seed).multinomial(shots, pi), axis=1).T
