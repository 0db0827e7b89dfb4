"""Timed circuits for repetition-code syndrome benchmarks.

Every circuit is a distance-3 repetition code on a five-qubit line with two
syndrome rounds, ending with round 2's auxiliary readout: each auxiliary is
measured once per round, the XOR of its two outcomes is its round-2
detector, and the code qubits are never read.
Circuits are flat, time-ordered instruction lists over physical qubits,
with every idle gap before round 2's readout materialized as an explicit
delay instruction. Times are integer nanoseconds: durations round to at
least 1 ns, and the extra delay must be an int. The schedule is fixed and
documented:

* per round, each auxiliary couples to its left code neighbor first, then its
  right, with the gates packed into two barrier-aligned layers so no qubit is
  in two cx gates at once;
* auxiliaries are measured simultaneously after the second layer; in
  round 1 each measure is followed by an unconditional reset;
* the optional extra delay sits between the two rounds as its own delay
  instruction on every qubit;
* round 2 ends at its two measures: no reset or barrier follows them, since
  nothing after them reaches a detector.

The builder places the gates layer by layer. Each gate starts where its
qubits' timelines end: at the last barrier, or for a reset where its own
measure ends. Each layer but round 2's readout ends with a barrier at its
latest end, and the extra delay is the window between two barriers. A
barrier fills every qubit's timeline up to its time with one delay. With an
echo scope, each in-scope window of at least 2*x + 4 ns becomes
delay(t'/4), x, delay(t'/2), x, delay(t'/4) with t' = t - 2*x, the integer
remainder in the middle, every sub-delay flagged echoed. The instructions are sorted once, by
(start, end, qubits, kind), which orders a circuit's instructions totally.

The phase-flip encoding is the bit-flip circuit with one h layer on the code
qubits right after preparation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .device import BenchLine, DeviceCalibration, canonical_edge

ENCODINGS = ("bit_flip", "phase_flip")
DD_SCOPES = ("none", "all_qubits", "code_only")

# syndrome rounds per circuit: round 2's detector pair is the only one the
# estimator reads, and it sees a fault between rounds 1 and 2
ROUNDS = 2

# kinds that end an idle window when walking a qubit's timeline; x is absent
# on purpose so echo pulses inside a window do not terminate it
_IDLE_BOUNDARY_KINDS = frozenset({"prepare_z0", "cx", "measure", "reset", "h"})

# a delay shorter than 2*x + 4 ns cannot host the echo pair with nonzero
# quarter segments and is left untouched
_MIN_ECHO_SUBDELAY_NS = 4

# the timeline's sort key, (start, duration, qubits, kind); at equal
# starts, duration orders as end does
_timeline_order = itemgetter(2, 3, 1, 0)


class CircuitBuildError(ValueError):
    """Invalid inputs to the circuit builder."""


class Instruction(NamedTuple):
    kind: str  # prepare_z0 | x | h | cx | measure | reset | delay
    qubits: tuple[int, ...]
    start: int
    duration: int
    echoed: bool = False  # delay only: True once wrapped by an echo pair

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class Circuit:
    line: tuple[int, ...]
    instructions: tuple[Instruction, ...]


def build_repetition_circuit(
    line: BenchLine | tuple[int, ...],
    cal: DeviceCalibration,
    encoding: str = "bit_flip",
    logical_value: int = 0,
    extra_delay_ns: int = 0,
    dd_scope: str = "none",
) -> Circuit:
    """Build the distance-3, two-round repetition-code benchmark circuit on
    `line`.

    `line` is a BenchLine or a path of five qubits whose consecutive pairs
    are device edges; even positions are code qubits, odd positions
    auxiliaries. A reset lasts as long as the qubit's x gate.
    """
    qubits = tuple(line.qubits) if isinstance(line, BenchLine) else tuple(line)
    if len(qubits) != 5:
        raise CircuitBuildError(f"line must have five qubits, got {qubits}")
    if len(set(qubits)) != len(qubits):
        raise CircuitBuildError(f"line has repeated qubits: {qubits}")
    cx_dur = []  # edge p joins positions p and p + 1
    for a, b in zip(qubits, qubits[1:]):
        edge = canonical_edge(a, b)
        if edge not in cal.edges:
            raise CircuitBuildError(f"({a}, {b}) is not an edge of the device graph")
        cx_dur.append(max(1, round(cal.cx_duration_ns[edge])))
    if encoding not in ENCODINGS:
        raise CircuitBuildError(f"unknown encoding {encoding!r}")
    if logical_value not in (0, 1):
        raise CircuitBuildError(f"logical value must be 0 or 1, got {logical_value}")
    if isinstance(extra_delay_ns, bool) or not isinstance(extra_delay_ns, int) or extra_delay_ns < 0:
        raise CircuitBuildError(f"extra delay must be nonnegative integer ns, got {extra_delay_ns!r}")
    if dd_scope not in DD_SCOPES:
        raise CircuitBuildError(f"unknown dd_scope {dd_scope!r}")

    # per position: the operand tuple its instructions share, its x (and
    # reset) duration, and the shortest window it echoes, None out of scope
    echo = range(5) if dd_scope == "all_qubits" else range(0, 5, 2) if dd_scope == "code_only" else ()
    table = []
    for p, q in enumerate(qubits):
        x = max(1, round(cal.qubits[q].x_ns))
        table.append(((q,), x, 2 * x + _MIN_ECHO_SUBDELAY_NS if p in echo else None))
    new = tuple.__new__  # an Instruction without the namedtuple's Python-level __new__
    instrs = [new(Instruction, ("prepare_z0", qs, 0, 0, False)) for qs, _, _ in table]
    cursor = [0] * 5  # where each position's timeline is filled to

    def barrier(time: int) -> None:
        # fill every position's timeline up to `time` with one delay, or with
        # the echo pair when it is in scope and the window fits it
        for (qs, x, shortest), lo in zip(table, cursor):
            if shortest is not None and time - lo >= shortest:
                quarter = (time - lo - 2 * x) // 4
                middle = time - lo - 2 * x - 2 * quarter
                instrs.extend(
                    (
                        new(Instruction, ("delay", qs, lo, quarter, True)),
                        new(Instruction, ("x", qs, lo + quarter, x, False)),
                        new(Instruction, ("delay", qs, lo + quarter + x, middle, True)),
                        new(Instruction, ("x", qs, time - quarter - x, x, False)),
                        new(Instruction, ("delay", qs, time - quarter, quarter, True)),
                    )
                )
            elif time > lo:
                instrs.append(new(Instruction, ("delay", qs, lo, time - lo, False)))
        cursor[:] = (time,) * 5

    def place(gates) -> None:
        # a gate (kind, positions, qubits, duration) starts where its
        # positions all stand: at the last barrier, or for a reset at its own
        # measure's end
        for kind, ps, qs, duration in gates:
            start = cursor[ps[0]]
            instrs.append(new(Instruction, (kind, qs, start, duration, False)))
            for p in ps:
                cursor[p] = start + duration

    def layer(gates) -> None:
        # the layer ends with a barrier at its latest end
        place(gates)
        barrier(max(cursor))

    # each auxiliary couples to its left code neighbor, then its right
    cx_layers = [
        [("cx", (c, a), (qubits[c], qubits[a]), cx_dur[min(c, a)]) for c, a in pairs]
        for pairs in (((0, 1), (2, 3)), ((2, 1), (4, 3)))
    ]
    # simultaneous auxiliary readout
    measures = [("measure", (a,), table[a][0], max(1, round(cal.qubits[qubits[a]].readout_ns))) for a in (1, 3)]
    if logical_value == 1:
        layer(("x", (p,), *table[p][:2]) for p in (0, 2, 4))
    if encoding == "phase_flip":
        layer(("h", (p,), *table[p][:2]) for p in (0, 2, 4))
    for _ in range(ROUNDS - 1):
        for gates in cx_layers:
            layer(gates)
        # each measure followed by an unconditional reset
        layer([*measures, *(("reset", (a,), *table[a][:2]) for a in (1, 3))])
        # the extra delay is one window on every qubit, between the rounds
        barrier(max(cursor) + extra_delay_ns)
    # the last round ends with its measures: nothing after them reaches a
    # detector, so no reset or barrier follows
    for gates in cx_layers:
        layer(gates)
    place(measures)

    instrs.sort(key=_timeline_order)
    return Circuit(line=qubits, instructions=tuple(instrs))


def idle_exposure(circuit: Circuit, qubit: int) -> int:
    """Summed delay ns on `qubit` from the start of round 1's auxiliary
    measurements, the circuit's first, to the qubit's next non-idle
    instruction (its round-2 cx for code qubits; echo x pulses do not end
    the window), in one walk of the builder's time order from the first
    instruction at that start."""
    if qubit not in circuit.line:
        raise KeyError(f"qubit {qubit} is not in this circuit")
    instrs = circuit.instructions
    meas_start = next((ins.start for ins in instrs if ins.kind == "measure"), None)
    if meas_start is None:
        raise ValueError("the circuit has no measurement")
    exposure = 0
    for kind, qubits, _, duration, _ in instrs[bisect_left(instrs, meas_start, key=itemgetter(2)) :]:
        if qubit in qubits:
            if kind in _IDLE_BOUNDARY_KINDS:
                break
            if kind == "delay":
                exposure += duration
    return exposure
