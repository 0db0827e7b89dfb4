"""Timed circuits for repetition-code syndrome benchmarks.

Every circuit is a distance-3 repetition code on a five-qubit line with two
syndrome rounds. Circuits are flat, time-ordered instruction lists over
physical qubits, with every idle gap materialized as an explicit delay
instruction. Times are integer nanoseconds. The schedule is fixed and
documented:

* per round, each auxiliary couples to its left code neighbor first, then its
  right, with the gates packed into two barrier-aligned layers so no qubit is
  in two cx gates at once;
* auxiliaries are measured simultaneously after the second layer, each
  followed by an unconditional reset;
* the optional extra delay sits after each measurement round as its own delay
  instruction on every qubit.

The builder places the instructions in time order and fills each qubit's
idle gap as it reaches the qubit's next instruction, one delay per window
between round-structure barriers. With an echo scope, each in-scope window
of at least 2*x + 4 ns becomes delay(t'/4), x, delay(t'/2), x, delay(t'/4)
with t' = t - 2*x, the integer remainder in the middle, every sub-delay
flagged echoed. The instructions are sorted once, by (start, end, qubits,
kind), which orders a circuit's instructions totally.

The phase-flip encoding is the bit-flip circuit conjugated on code qubits:
an h right after preparation and another right before the final transversal
readout, with the instruction list otherwise unchanged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    slot: int | None = None  # measure only
    echoed: bool = False  # delay only: True once wrapped by an echo pair

    @property
    def end(self) -> int:
        return self.start + self.duration

    def text(self) -> str:
        slot = f" slot={self.slot}" if self.slot is not None else ""
        echoed = " echoed" if self.kind == "delay" and self.echoed else ""
        qubits = ",".join(str(q) for q in self.qubits)
        return f"{self.start:>10d} {self.kind:<10s} q[{qubits}] dur={self.duration}{slot}{echoed}"


@dataclass(frozen=True)
class FaultSite:
    """A deterministic Pauli error marker at a point on a qubit's timeline."""

    qubit: int
    time_ns: int
    pauli: str  # X | Y | Z


@dataclass(frozen=True)
class Circuit:
    line: tuple[int, ...]
    instructions: tuple[Instruction, ...]
    encoding: str
    logical_value: int
    dd_scope: str
    extra_delay_ns: int
    aux_slots: dict[tuple[int, int], int]  # (aux qubit, round 1..ROUNDS) -> slot
    final_slots: dict[int, int]  # code qubit -> slot
    x_durations: dict[int, int]  # per-qubit x gate duration, ns
    faults: tuple[FaultSite, ...] = ()

    @property
    def code_qubits(self) -> tuple[int, ...]:
        return self.line[0::2]

    @property
    def aux_qubits(self) -> tuple[int, ...]:
        return self.line[1::2]

    @property
    def n_slots(self) -> int:
        return len(self.aux_slots) + len(self.final_slots)

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
    cx_dur = {
        (a, b): max(1, round(cal.edge_duration(a, b))) for a, b in zip(qubits, qubits[1:])
    }
    cx_dur.update({(b, a): d for (a, b), d in list(cx_dur.items())})
    echo = set(qubits if dd_scope == "all_qubits" else code if dd_scope == "code_only" else ())

    instrs: list[Instruction] = []
    cuts = [0]  # round-structure barrier times, ascending
    cursor = dict.fromkeys(qubits, 0)  # where each qubit's timeline is filled to
    aux_slots: dict[tuple[int, int], int] = {}
    final_slots: dict[int, int] = {}
    slot = 0

    def barrier(time: int) -> None:
        if time > cuts[-1]:
            cuts.append(time)

    def idle(q: int, stop: int) -> None:
        # every barrier before `stop` is already known, since instructions
        # are placed in time order and each starts at or after its barrier
        lo, x = cursor[q], x_dur[q]
        for hi in cuts[bisect_right(cuts, lo) : bisect_left(cuts, stop)] + [stop]:
            if q in echo and hi - lo >= 2 * x + _MIN_ECHO_SUBDELAY_NS:
                quarter = (hi - lo - 2 * x) // 4
                middle = hi - lo - 2 * x - 2 * quarter
                instrs.extend(
                    (
                        Instruction("delay", (q,), lo, quarter, echoed=True),
                        Instruction("x", (q,), lo + quarter, x),
                        Instruction("delay", (q,), lo + quarter + x, middle, echoed=True),
                        Instruction("x", (q,), hi - quarter - x, x),
                        Instruction("delay", (q,), hi - quarter, quarter, echoed=True),
                    )
                )
            else:
                instrs.append(Instruction("delay", (q,), lo, hi - lo))
            lo = hi

    def place(kind: str, qs: tuple[int, ...], start: int, duration: int, slot: int | None = None) -> None:
        for q in qs:
            if start > cursor[q]:
                idle(q, start)
            cursor[q] = start + duration
        instrs.append(Instruction(kind, qs, start, duration, slot))

    for q in qubits:
        place("prepare_z0", (q,), 0, 0)
    t = 0
    if logical_value == 1:
        for q in code:
            place("x", (q,), 0, x_dur[q])
        t = max(x_dur[q] for q in code)
        barrier(t)
    if encoding == "phase_flip":
        for q in code:
            place("h", (q,), t, x_dur[q])
        t = t + max(x_dur[q] for q in code)
        barrier(t)

    for r in range(1, ROUNDS + 1):
        # layer 1: each auxiliary with its left code neighbor
        layer_end = t
        for k, a in enumerate(aux):
            c = qubits[2 * k]
            place("cx", (c, a), t, cx_dur[(c, a)])
            layer_end = max(layer_end, t + cx_dur[(c, a)])
        barrier(layer_end)
        # layer 2: each auxiliary with its right code neighbor
        t2 = layer_end
        layer_end = t2
        for k, a in enumerate(aux):
            c = qubits[2 * k + 2]
            place("cx", (c, a), t2, cx_dur[(c, a)])
            layer_end = max(layer_end, t2 + cx_dur[(c, a)])
        barrier(layer_end)
        # simultaneous auxiliary readout, each followed by unconditional reset
        t_meas = layer_end
        round_end = t_meas
        for a in aux:
            place("measure", (a,), t_meas, ro_dur[a], slot=slot)
            aux_slots[(a, r)] = slot
            slot += 1
            place("reset", (a,), t_meas + ro_dur[a], x_dur[a])
            round_end = max(round_end, t_meas + ro_dur[a] + x_dur[a])
        barrier(round_end)
        # the extra delay is the structural window between two barriers,
        # which the idle fill turns into one delay per qubit
        t = round_end + extra_delay_ns
        barrier(t)

    if encoding == "phase_flip":
        for q in code:
            place("h", (q,), t, x_dur[q])
        t = t + max(x_dur[q] for q in code)
        barrier(t)
    end = t
    for q in code:
        place("measure", (q,), t, ro_dur[q], slot=slot)
        final_slots[q] = slot
        slot += 1
        end = max(end, t + ro_dur[q])
    barrier(end)
    for q in qubits:
        if end > cursor[q]:
            idle(q, end)

    return Circuit(
        line=qubits,
        instructions=tuple(sorted(instrs, key=_timeline_order)),
        encoding=encoding,
        logical_value=logical_value,
        dd_scope=dd_scope,
        extra_delay_ns=extra_delay_ns,
        aux_slots=aux_slots,
        final_slots=final_slots,
        x_durations=x_dur,
    )


def idle_exposure(circuit: Circuit, qubit: int) -> int:
    """Summed delay ns on `qubit` from the start of round 1's auxiliary
    measurements to the qubit's next non-idle instruction (its round-2 cx
    for code qubits; echo x pulses do not end the window)."""
    if qubit not in circuit.line:
        raise KeyError(f"qubit {qubit} is not in this circuit")
    own = circuit.per_qubit[qubit]
    slots = {circuit.aux_slots[(a, 1)] for a in circuit.aux_qubits}
    meas_start = min(ins.start for ins in circuit.instructions if ins.kind == "measure" and ins.slot in slots)
    boundary = min(ins.start for ins in own if ins.kind in _IDLE_BOUNDARY_KINDS and ins.start >= meas_start)
    return sum(ins.duration for ins in own if ins.kind == "delay" and ins.start >= meas_start and ins.end <= boundary)
