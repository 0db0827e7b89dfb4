"""Timed circuits for repetition-code syndrome benchmarks.

Every circuit is a distance-3 repetition code on a five-qubit line with two
syndrome rounds, ending with round 2's auxiliary readout: each auxiliary is
measured once per round, the XOR of its two outcomes is its round-2
detector, and the code qubits are never read.
Circuits are flat, time-ordered instruction lists over physical qubits,
with every idle gap materialized as an explicit delay instruction. Times are
integer nanoseconds. The schedule is fixed and documented:

* per round, each auxiliary couples to its left code neighbor first, then its
  right, with the gates packed into two barrier-aligned layers so no qubit is
  in two cx gates at once;
* auxiliaries are measured simultaneously after the second layer, each
  followed by an unconditional reset;
* the optional extra delay sits between the two rounds as its own delay
  instruction on every qubit.

The builder places the gates layer by layer. Each gate starts where its
qubits' timelines end: at the last barrier, or for a reset where its own
measure ends. Each layer ends with a barrier at its latest end, and the
extra delay is the window between two barriers. A barrier fills every
qubit's timeline up to its time with one delay. With an echo scope, each
in-scope window of at least 2*x + 4 ns becomes delay(t'/4), x, delay(t'/2),
x, delay(t'/4) with t' = t - 2*x, the integer remainder in the middle,
every sub-delay flagged echoed. The instructions are sorted once, by
(start, end, qubits, kind), which orders a circuit's instructions totally.

The phase-flip encoding is the bit-flip circuit with one h layer on the code
qubits right after preparation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
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

# the timeline's sort key; at equal starts, duration orders as end does
_timeline_order = attrgetter("start", "duration", "qubits", "kind")


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

    def text(self) -> str:
        echoed = " echoed" if self.kind == "delay" and self.echoed else ""
        qubits = ",".join(str(q) for q in self.qubits)
        return f"{self.start:>10d} {self.kind:<10s} q[{qubits}] dur={self.duration}{echoed}"


@dataclass(frozen=True)
class Circuit:
    line: tuple[int, ...]
    instructions: tuple[Instruction, ...]
    encoding: str
    logical_value: int

    @property
    def duration(self) -> int:
        return max(ins.end for ins in self.instructions)

    @cached_property
    def per_qubit(self) -> dict[int, tuple[Instruction, ...]]:
        by_qubit: dict[int, list[Instruction]] = {q: [] for q in self.line}
        for ins in self.instructions:
            for q in ins.qubits:
                by_qubit[q].append(ins)
        return {q: tuple(v) for q, v in by_qubit.items()}

    def timeline_text(self) -> str:
        """Deterministic plain-text dump, one line per instruction."""
        return "\n".join(ins.text() for ins in self.instructions) + "\n"


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
    for a, b in zip(qubits, qubits[1:]):
        if canonical_edge(a, b) not in cal.edges:
            raise CircuitBuildError(f"({a}, {b}) is not an edge of the device graph")
    if encoding not in ENCODINGS:
        raise CircuitBuildError(f"unknown encoding {encoding!r}")
    if logical_value not in (0, 1):
        raise CircuitBuildError(f"logical value must be 0 or 1, got {logical_value}")
    if extra_delay_ns < 0:
        raise CircuitBuildError(f"extra delay must be nonnegative, got {extra_delay_ns}")
    if dd_scope not in DD_SCOPES:
        raise CircuitBuildError(f"unknown dd_scope {dd_scope!r}")

    code = qubits[0::2]
    aux = qubits[1::2]
    x_dur = {q: max(1, round(cal.qubits[q].x_ns)) for q in qubits}
    ro_dur = {q: max(1, round(cal.qubits[q].readout_ns)) for q in qubits}
    echo = set(qubits if dd_scope == "all_qubits" else code if dd_scope == "code_only" else ())

    instrs = [Instruction("prepare_z0", (q,), 0, 0) for q in qubits]
    cursor = dict.fromkeys(qubits, 0)  # where each qubit's timeline is filled to

    def barrier(time: int) -> None:
        # fill every qubit's timeline up to `time` with one delay, or with
        # the echo pair when the qubit is in scope and the window fits it
        for q, lo in cursor.items():
            x = x_dur[q]
            if q in echo and time - lo >= 2 * x + _MIN_ECHO_SUBDELAY_NS:
                quarter = (time - lo - 2 * x) // 4
                middle = time - lo - 2 * x - 2 * quarter
                instrs.extend(
                    (
                        Instruction("delay", (q,), lo, quarter, echoed=True),
                        Instruction("x", (q,), lo + quarter, x),
                        Instruction("delay", (q,), lo + quarter + x, middle, echoed=True),
                        Instruction("x", (q,), time - quarter - x, x),
                        Instruction("delay", (q,), time - quarter, quarter, echoed=True),
                    )
                )
            elif time > lo:
                instrs.append(Instruction("delay", (q,), lo, time - lo))
            cursor[q] = time

    def layer(gates) -> None:
        # a gate (kind, qubits, duration) starts where its qubits all
        # stand: at the last barrier, or for a reset at its own measure's end;
        # the layer ends with a barrier at its latest end
        for kind, qs, duration in gates:
            start = cursor[qs[0]]
            instrs.append(Instruction(kind, qs, start, duration))
            for q in qs:
                cursor[q] = start + duration
        barrier(max(cursor.values()))

    # each auxiliary couples to its left code neighbor, then its right
    cx_layers = [
        [("cx", (c, a), max(1, round(cal.edge_duration(c, a)))) for c, a in zip(cs, aux)]
        for cs in (code, code[1:])
    ]
    if logical_value == 1:
        layer(("x", (q,), x_dur[q]) for q in code)
    if encoding == "phase_flip":
        layer(("h", (q,), x_dur[q]) for q in code)
    for r in range(1, ROUNDS + 1):
        for gates in cx_layers:
            layer(gates)
        # simultaneous auxiliary readout, each followed by unconditional reset
        layer(
            gate
            for a in aux
            for gate in (("measure", (a,), ro_dur[a]), ("reset", (a,), x_dur[a]))
        )
        # the extra delay is one window on every qubit, between the rounds
        if r < ROUNDS:
            barrier(max(cursor.values()) + extra_delay_ns)

    return Circuit(
        line=qubits,
        instructions=tuple(sorted(instrs, key=_timeline_order)),
        encoding=encoding,
        logical_value=logical_value,
    )


def idle_exposure(circuit: Circuit, qubit: int) -> int:
    """Summed delay ns on `qubit` from the start of round 1's auxiliary
    measurements, the circuit's first, to the qubit's next non-idle
    instruction (its round-2 cx for code qubits; echo x pulses do not end
    the window)."""
    if qubit not in circuit.line:
        raise KeyError(f"qubit {qubit} is not in this circuit")
    own = circuit.per_qubit[qubit]
    meas_start = min(ins.start for ins in circuit.instructions if ins.kind == "measure")
    boundary = min(ins.start for ins in own if ins.kind in _IDLE_BOUNDARY_KINDS and ins.start >= meas_start)
    return sum(ins.duration for ins in own if ins.kind == "delay" and ins.start >= meas_start and ins.end <= boundary)
