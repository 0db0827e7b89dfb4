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
remainder in the middle, every sub-delay flagged echoed. A `Circuit`, the
builder's included, keeps its instructions in one stable sort by (start,
duration, qubits), the time order its readers take as given, so the same
qubits' instructions at one time keep their given order.

The phase-flip encoding is the bit-flip circuit with one h layer on the code
qubits right after preparation.

The builder and `logical_prelude` place the logical value through one
schedule step: nothing for 0, and for 1 an x layer on the code qubits with
its closing barrier, from t = 0. The logical-1 circuit is that prelude
followed by the logical-0 circuit started at the prelude's end, so the
pipeline builds only the logical-0 circuit and `simulator.compile_program`
folds each configured logical value's prelude into its one compile.
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

# a circuit's sort key, (start, duration, qubits); at equal starts, duration
# orders as end does
_time_order = itemgetter(2, 3, 1)

# an Instruction without the namedtuple's Python-level __new__
_new = tuple.__new__


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

    def __post_init__(self) -> None:
        # the time order: one stable sort, so an instruction of no duration acts
        # first, and the same qubits' instructions at one time keep their order
        object.__setattr__(self, "instructions", tuple(sorted(self.instructions, key=_time_order)))


def _line_qubits(line: BenchLine | tuple[int, ...], cal: DeviceCalibration) -> tuple[int, ...]:
    """The line's five distinct qubits, a path of device edges, or a CircuitBuildError."""
    qubits = tuple(line.qubits) if isinstance(line, BenchLine) else tuple(line)
    if len(qubits) != 5:
        raise CircuitBuildError(f"line must have five qubits, got {qubits}")
    if len(set(qubits)) != len(qubits):
        raise CircuitBuildError(f"line has repeated qubits: {qubits}")
    for a, b in zip(qubits, qubits[1:]):
        if canonical_edge(a, b) not in cal.edges:
            raise CircuitBuildError(f"({a}, {b}) is not an edge of the device graph")
    return qubits


class _Schedule:
    """Gates placed layer by layer on a line's five positions, from t = 0.

    Per position, `table` holds the operand tuple its instructions share,
    its x (and reset) duration, and the shortest window it echoes, None out
    of scope; `cursor` holds where its timeline is filled to."""

    __slots__ = ("table", "instrs", "cursor")

    def __init__(self, qubits: tuple[int, ...], cal: DeviceCalibration, dd_scope: str) -> None:
        if dd_scope not in DD_SCOPES:
            raise CircuitBuildError(f"unknown dd_scope {dd_scope!r}")
        echo = range(5) if dd_scope == "all_qubits" else range(0, 5, 2) if dd_scope == "code_only" else ()
        self.table = []
        for p, q in enumerate(qubits):
            x = max(1, round(cal.qubits[q].x_ns))
            self.table.append(((q,), x, 2 * x + _MIN_ECHO_SUBDELAY_NS if p in echo else None))
        self.instrs: list[Instruction] = []
        self.cursor = [0] * 5

    def barrier(self, time: int) -> None:
        # fill every position's timeline up to `time` with one delay, or with
        # the echo pair when it is in scope and the window fits it
        instrs, cursor = self.instrs, self.cursor
        for (qs, x, shortest), lo in zip(self.table, cursor):
            if shortest is not None and time - lo >= shortest:
                quarter = (time - lo - 2 * x) // 4
                middle = time - lo - 2 * x - 2 * quarter
                instrs.extend(
                    (
                        _new(Instruction, ("delay", qs, lo, quarter, True)),
                        _new(Instruction, ("x", qs, lo + quarter, x, False)),
                        _new(Instruction, ("delay", qs, lo + quarter + x, middle, True)),
                        _new(Instruction, ("x", qs, time - quarter - x, x, False)),
                        _new(Instruction, ("delay", qs, time - quarter, quarter, True)),
                    )
                )
            elif time > lo:
                instrs.append(_new(Instruction, ("delay", qs, lo, time - lo, False)))
        cursor[:] = (time,) * 5

    def place(self, gates) -> None:
        # a gate (kind, positions, qubits, duration) starts where its
        # positions all stand: at the last barrier, or for a reset at its own
        # measure's end
        instrs, cursor = self.instrs, self.cursor
        for kind, ps, qs, duration in gates:
            start = cursor[ps[0]]
            instrs.append(_new(Instruction, (kind, qs, start, duration, False)))
            for p in ps:
                cursor[p] = start + duration

    def layer(self, gates) -> None:
        # the layer ends with a barrier at its latest end
        self.place(gates)
        self.barrier(max(self.cursor))

    def code_layer(self, kind: str) -> None:
        # one `kind` gate on each code qubit, lasting its x duration
        self.layer((kind, (p,), *self.table[p][:2]) for p in (0, 2, 4))

    def logical_layer(self, logical_value: int) -> None:
        # none for 0, an x on each code qubit for 1; a bool or float is refused
        if isinstance(logical_value, bool) or not isinstance(logical_value, int) or logical_value not in (0, 1):
            raise CircuitBuildError(f"logical value must be 0 or 1, got {logical_value!r}")
        if logical_value:
            self.code_layer("x")


def logical_prelude(
    line: BenchLine | tuple[int, ...],
    cal: DeviceCalibration,
    logical_value: int,
    dd_scope: str = "none",
) -> tuple[Instruction, ...]:
    """The instructions that set the code to `logical_value` right after
    preparation, from t = 0 and in time order: none for 0; for 1 an x on
    each code qubit and the barrier that closes their layer, echoed where
    `dd_scope` covers a window that fits the echo pair. The circuit of
    logical value 1 is the one of logical value 0 started at the prelude's
    end, with the prelude before it.

    `line`, `logical_value` and `dd_scope` are checked as by the builder."""
    qubits = _line_qubits(line, cal)
    schedule = _Schedule(qubits, cal, dd_scope)
    schedule.logical_layer(logical_value)
    return Circuit(qubits, tuple(schedule.instrs)).instructions


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
    auxiliaries. A reset lasts as long as the qubit's x gate. The logical
    value's layer, its `logical_prelude`, follows the preparations, and the
    code starts at its end.
    """
    qubits = _line_qubits(line, cal)
    # edge p joins positions p and p + 1
    cx_dur = [max(1, round(cal.cx_duration_ns[canonical_edge(a, b)])) for a, b in zip(qubits, qubits[1:])]
    if encoding not in ENCODINGS:
        raise CircuitBuildError(f"unknown encoding {encoding!r}")
    if isinstance(extra_delay_ns, bool) or not isinstance(extra_delay_ns, int) or extra_delay_ns < 0:
        raise CircuitBuildError(f"extra delay must be nonnegative integer ns, got {extra_delay_ns!r}")
    schedule = _Schedule(qubits, cal, dd_scope)
    table = schedule.table
    schedule.instrs += (_new(Instruction, ("prepare_z0", qs, 0, 0, False)) for qs, _, _ in table)
    schedule.logical_layer(logical_value)
    # each auxiliary couples to its left code neighbor, then its right
    cx_layers = [
        [("cx", (c, a), (qubits[c], qubits[a]), cx_dur[min(c, a)]) for c, a in pairs]
        for pairs in (((0, 1), (2, 3)), ((2, 1), (4, 3)))
    ]
    # simultaneous auxiliary readout
    measures = [("measure", (a,), table[a][0], max(1, round(cal.qubits[qubits[a]].readout_ns))) for a in (1, 3)]
    if encoding == "phase_flip":
        schedule.code_layer("h")
    for _ in range(ROUNDS - 1):
        for gates in cx_layers:
            schedule.layer(gates)
        # each measure followed by an unconditional reset
        schedule.layer([*measures, *(("reset", (a,), *table[a][:2]) for a in (1, 3))])
        # the extra delay is one window on every qubit, between the rounds
        schedule.barrier(max(schedule.cursor) + extra_delay_ns)
    # the last round ends with its measures: nothing after them reaches a
    # detector, so no reset or barrier follows
    for gates in cx_layers:
        schedule.layer(gates)
    schedule.place(measures)
    return Circuit(line=qubits, instructions=tuple(schedule.instrs))


def idle_exposure(circuit: Circuit, qubit: int) -> int:
    """Summed delay ns on `qubit` from the start of round 1's auxiliary
    measurements, the circuit's first, to the qubit's next non-idle
    instruction (its round-2 cx for code qubits; echo x pulses do not end
    the window), walking the circuit's time order from that start. This is
    the report's `exposure_ns`; the estimator's window on the centre opens
    earlier, at the end of its last round-1 cx."""
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
