"""Timed circuits for repetition-code syndrome benchmarks.

Circuits are flat, time-ordered instruction lists over physical qubits, with
every idle gap materialized as an explicit delay instruction. Times are
integer nanoseconds. The schedule is fixed and documented:

* per round, each auxiliary couples to its left code neighbor first, then its
  right, with the gates packed into two barrier-aligned layers so no qubit is
  in two cx gates at once;
* auxiliaries are measured simultaneously after the second layer, each
  followed by an unconditional reset;
* the optional extra delay sits after each measurement round as its own delay
  instruction on every qubit.

The phase-flip encoding is the bit-flip circuit conjugated on code qubits:
an h right after preparation and another right before the final transversal
readout, with the instruction list otherwise unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .device import BenchLine, DeviceCalibration, canonical_edge

ENCODINGS = ("bit_flip", "phase_flip")
DD_SCOPES = ("none", "all_qubits", "code_only")

# kinds that end an idle window when walking a qubit's timeline; x is absent
# on purpose so echo pulses inside a window do not terminate it
_IDLE_BOUNDARY_KINDS = frozenset({"prepare_z0", "cx", "measure", "reset", "h"})

# a delay shorter than 2*x + 4 ns cannot host the echo pair with nonzero
# quarter segments and is left untouched
_MIN_ECHO_SUBDELAY_NS = 4


class CircuitBuildError(ValueError):
    """Invalid inputs to the circuit builder."""


@dataclass(frozen=True)
class Instruction:
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
    rounds: int
    encoding: str
    logical_value: int
    dd_scope: str
    extra_delay_ns: int
    aux_slots: dict[tuple[int, int], int]  # (aux qubit, round 1..T) -> slot
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

    def neighbors_in_line(self, qubit: int) -> tuple[int, ...]:
        i = self.line.index(qubit)
        nbrs = []
        if i > 0:
            nbrs.append(self.line[i - 1])
        if i < len(self.line) - 1:
            nbrs.append(self.line[i + 1])
        return tuple(nbrs)

    def timeline_text(self) -> str:
        """Deterministic plain-text dump, one line per instruction."""
        return "\n".join(ins.text() for ins in self.instructions) + "\n"


def _sorted_instructions(instrs: list[Instruction]) -> tuple[Instruction, ...]:
    return tuple(sorted(instrs, key=lambda i: (i.start, i.end, i.qubits, i.kind)))


def build_repetition_circuit(
    line: BenchLine | tuple[int, ...],
    cal: DeviceCalibration,
    encoding: str = "bit_flip",
    logical_value: int = 0,
    rounds: int = 2,
    extra_delay_ns: int = 0,
    dd_scope: str = "none",
) -> Circuit:
    """Build a distance-(n+1)/2 repetition-code benchmark circuit on `line`.

    `line` is a BenchLine or an odd-length qubit path (>= 5) whose consecutive
    pairs are device edges; even positions are code qubits, odd positions
    auxiliaries. A reset lasts as long as the qubit's x gate.
    """
    qubits = tuple(line.qubits) if isinstance(line, BenchLine) else tuple(line)
    if len(qubits) < 5 or len(qubits) % 2 == 0:
        raise CircuitBuildError(f"line must have odd length >= 5, got {qubits}")
    if len(set(qubits)) != len(qubits):
        raise CircuitBuildError(f"line has repeated qubits: {qubits}")
    for a, b in zip(qubits, qubits[1:]):
        if canonical_edge(a, b) not in cal.edges:
            raise CircuitBuildError(f"({a}, {b}) is not an edge of the device graph")
    if encoding not in ENCODINGS:
        raise CircuitBuildError(f"unknown encoding {encoding!r}")
    if logical_value not in (0, 1):
        raise CircuitBuildError(f"logical value must be 0 or 1, got {logical_value}")
    if rounds < 2:
        raise CircuitBuildError(f"at least 2 syndrome rounds are required, got {rounds}")
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

    instrs: list[Instruction] = []
    barriers: set[int] = {0}
    aux_slots: dict[tuple[int, int], int] = {}
    final_slots: dict[int, int] = {}
    slot = 0

    for q in qubits:
        instrs.append(Instruction("prepare_z0", (q,), 0, 0))
    t = 0
    if logical_value == 1:
        for q in code:
            instrs.append(Instruction("x", (q,), 0, x_dur[q]))
        t = max(x_dur[q] for q in code)
        barriers.add(t)
    if encoding == "phase_flip":
        for q in code:
            instrs.append(Instruction("h", (q,), t, x_dur[q]))
        t = t + max(x_dur[q] for q in code)
        barriers.add(t)

    for rnd in range(1, rounds + 1):
        # layer 1: each auxiliary with its left code neighbor
        layer_end = t
        for k, a in enumerate(aux):
            c = qubits[2 * k]
            instrs.append(Instruction("cx", (c, a), t, cx_dur[(c, a)]))
            layer_end = max(layer_end, t + cx_dur[(c, a)])
        barriers.add(layer_end)
        # layer 2: each auxiliary with its right code neighbor
        t2 = layer_end
        layer_end = t2
        for k, a in enumerate(aux):
            c = qubits[2 * k + 2]
            instrs.append(Instruction("cx", (c, a), t2, cx_dur[(c, a)]))
            layer_end = max(layer_end, t2 + cx_dur[(c, a)])
        barriers.add(layer_end)
        # simultaneous auxiliary readout, each followed by unconditional reset
        t_meas = layer_end
        round_end = t_meas
        for a in aux:
            instrs.append(Instruction("measure", (a,), t_meas, ro_dur[a], slot=slot))
            aux_slots[(a, rnd)] = slot
            slot += 1
            instrs.append(Instruction("reset", (a,), t_meas + ro_dur[a], x_dur[a]))
            round_end = max(round_end, t_meas + ro_dur[a] + x_dur[a])
        barriers.add(round_end)
        t = round_end
        if extra_delay_ns > 0:
            for q in qubits:
                instrs.append(Instruction("delay", (q,), t, extra_delay_ns))
            t += extra_delay_ns
            barriers.add(t)

    if encoding == "phase_flip":
        for q in code:
            instrs.append(Instruction("h", (q,), t, x_dur[q]))
        t = t + max(x_dur[q] for q in code)
        barriers.add(t)
    end = t
    for q in code:
        instrs.append(Instruction("measure", (q,), t, ro_dur[q], slot=slot))
        final_slots[q] = slot
        slot += 1
        end = max(end, t + ro_dur[q])
    barriers.add(end)

    _fill_gaps(instrs, qubits, end, barriers)

    circuit = Circuit(
        line=qubits,
        instructions=_sorted_instructions(instrs),
        rounds=rounds,
        encoding=encoding,
        logical_value=logical_value,
        dd_scope="none",
        extra_delay_ns=extra_delay_ns,
        aux_slots=aux_slots,
        final_slots=final_slots,
        x_durations=x_dur,
    )
    if dd_scope != "none":
        circuit = insert_dynamical_decoupling(circuit, dd_scope)
    return circuit


def _fill_gaps(instrs: list[Instruction], qubits, end: int, barriers: set[int]) -> None:
    """Materialize every per-qubit idle gap as delay instructions, split at
    the round-structure barrier times so each structural window is its own
    delay."""
    cuts = sorted(barriers)
    by_qubit: dict[int, list[Instruction]] = {q: [] for q in qubits}
    for ins in instrs:
        for q in ins.qubits:
            by_qubit[q].append(ins)
    for q in qubits:
        spans = sorted((ins.start, ins.end) for ins in by_qubit[q])
        cursor = 0
        for start, stop in spans + [(end, end)]:
            if start > cursor:
                lo = cursor
                for cut in cuts:
                    if lo < cut < start:
                        instrs.append(Instruction("delay", (q,), lo, cut - lo))
                        lo = cut
                if start > lo:
                    instrs.append(Instruction("delay", (q,), lo, start - lo))
            cursor = max(cursor, stop)


def insert_dynamical_decoupling(circuit: Circuit, scope: str) -> Circuit:
    """Wrap in-scope delays with a symmetric echo pair.

    delay(t) becomes delay(t'/4), x, delay(t'/2), x, delay(t'/4) with
    t' = t - 2*x_duration; remainders from the integer split go to the middle
    segment so the total timeline length is preserved exactly. Sub-delays are
    flagged echoed. Delays too short for the pair pass through untouched, as
    do delays already echoed.
    """
    if scope not in ("all_qubits", "code_only"):
        raise CircuitBuildError(f"unknown dd scope {scope!r}")
    in_scope = set(circuit.line if scope == "all_qubits" else circuit.code_qubits)
    out: list[Instruction] = []
    for ins in circuit.instructions:
        q = ins.qubits[0]
        if (
            ins.kind != "delay"
            or ins.echoed
            or q not in in_scope
            or ins.duration < 2 * circuit.x_durations[q] + _MIN_ECHO_SUBDELAY_NS
        ):
            out.append(ins)
            continue
        x = circuit.x_durations[q]
        remaining = ins.duration - 2 * x
        quarter = remaining // 4
        middle = remaining - 2 * quarter
        cursor = ins.start
        out.append(Instruction("delay", (q,), cursor, quarter, echoed=True))
        cursor += quarter
        out.append(Instruction("x", (q,), cursor, x))
        cursor += x
        out.append(Instruction("delay", (q,), cursor, middle, echoed=True))
        cursor += middle
        out.append(Instruction("x", (q,), cursor, x))
        cursor += x
        out.append(Instruction("delay", (q,), cursor, quarter, echoed=True))
    return replace(circuit, instructions=_sorted_instructions(out), dd_scope=scope)


def idle_exposure(circuit: Circuit, qubit: int) -> list[int]:
    """Summed delay ns on `qubit` per syndrome round, from the start of that
    round's auxiliary measurements to the qubit's next non-idle instruction
    (its next-round cx for code qubits; echo x pulses do not end a window)."""
    if qubit not in circuit.line:
        raise KeyError(f"qubit {qubit} is not in this circuit")
    own = circuit.per_qubit[qubit]
    exposures = []
    for rnd in range(1, circuit.rounds + 1):
        meas_start = min(
            ins.start
            for ins in circuit.instructions
            if ins.kind == "measure" and ins.slot in {circuit.aux_slots[(a, rnd)] for a in circuit.aux_qubits}
        )
        boundary = min(
            (ins.start for ins in own if ins.kind in _IDLE_BOUNDARY_KINDS and ins.start >= meas_start),
            default=circuit.duration,
        )
        exposures.append(
            sum(
                ins.duration
                for ins in own
                if ins.kind == "delay" and ins.start >= meas_start and ins.end <= boundary
            )
        )
    return exposures
