"""Shared construction helpers for tests."""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter

import numpy as np

from synbench.circuits import Circuit, Instruction
from synbench.device import DeviceCalibration, QubitCalibration, canonical_edge
from synbench.noise import CHANNEL_NAMES, NoiseOptions
from synbench.simulator import compile_program, pair_distribution, run_shots
from oracles import grouped_records, reference_record_distribution

# every channel off: a circuit's outcomes are then deterministic
ZERO_NOISE_OPTIONS = NoiseOptions(disable=frozenset(CHANNEL_NAMES))


def code_qubits(circuit: Circuit) -> tuple[int, ...]:
    """The line's even positions: the outer code qubits and the centre."""
    return circuit.line[0::2]


def aux_qubits(circuit: Circuit) -> tuple[int, ...]:
    """The line's odd positions: the two auxiliaries."""
    return circuit.line[1::2]


def make_line_cal(
    n: int = 5,
    t1_ns: float = 100_000.0,
    t2_ns: float = 80_000.0,
    t2_star_ns: float | None = None,
    p0: float = 1.0,
    readout_error: float = 0.0,
    readout_ns: float = 20.0,
    x_ns: float = 10.0,
    cx_error: float = 0.0,
    cx_ns: float = 20.0,
) -> DeviceCalibration:
    """A path-graph device 0-1-...-(n-1) with uniform calibration; the tiny
    instrument durations keep idle windows dominated by whatever delay a test
    adds."""
    qubit = QubitCalibration(
        t1_ns=t1_ns,
        t2_ns=t2_ns,
        t2_star_ns=t2_star_ns if t2_star_ns is not None else 0.5 * t2_ns,
        p0=p0,
        readout_error=readout_error,
        readout_ns=readout_ns,
        x_ns=x_ns,
    )
    edges = frozenset(canonical_edge(i, i + 1) for i in range(n - 1))
    return DeviceCalibration(
        qubits=tuple([qubit] * n),
        cx_error={e: cx_error for e in edges},
        cx_duration_ns={e: cx_ns for e in edges},
        name=f"line{n}",
    )


def line_calibration_doc() -> dict:
    """A five-qubit line calibration with every optional field present."""
    qubit = {"t1_ns": 100_000.0, "t2_ns": 80_000.0, "t2_star_ns": 40_000.0, "p0": 0.98,
             "readout_error": 0.02, "readout_ns": 700.0, "x_ns": 35.0}
    return {
        "name": "line5",
        "qubits": [{"id": q, **qubit, "position": [float(q), 0.0]} for q in range(5)],
        "cx_gates": [{"qubits": [q, q + 1], "error": 0.01, "duration_ns": 300.0} for q in range(4)],
    }


def make_graph_cal(
    n: int,
    edges,
    cx_errors: dict | None = None,
    **qubit_kwargs,
) -> DeviceCalibration:
    """Arbitrary-graph device with uniform qubit calibration and per-edge cx
    errors (default 0.01)."""
    defaults = dict(
        t1_ns=100_000.0,
        t2_ns=80_000.0,
        t2_star_ns=40_000.0,
        p0=1.0,
        readout_error=0.01,
        readout_ns=700.0,
        x_ns=35.0,
    )
    defaults.update(qubit_kwargs)
    qubit = QubitCalibration(**defaults)
    canon = frozenset(canonical_edge(a, b) for a, b in edges)
    errors = {e: 0.01 for e in canon}
    if cx_errors:
        errors.update({canonical_edge(a, b): v for (a, b), v in cx_errors.items()})
    return DeviceCalibration(
        qubits=tuple([qubit] * n),
        cx_error=errors,
        cx_duration_ns={e: 300.0 for e in canon},
    )


def random_graph_edges(seed: int, max_vertices: int = 12) -> tuple[int, set]:
    """Seeded Erdos-Renyi-style graph for oracle comparisons."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, max_vertices + 1))
    density = rng.uniform(0.15, 0.5)
    edges = {
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    }
    return n, edges


def sample_shots(circuit, noise, shots: int, seed) -> np.ndarray:
    """`shots` (shots, 2) round-2 detector-pair bits of one circuit, drawn
    from its exact pair distribution as the pipeline draws them."""
    (pi,) = pair_distribution(compile_program(circuit, noise))
    return run_shots(pi, shots, seed)


def sample_records(circuit, noise, shots: int, seed) -> np.ndarray:
    """`shots` (shots, slots) full records of one circuit, slots as
    `oracles.record_slots` numbers them, drawn from the oracle's exact
    record distribution."""
    pi = reference_record_distribution(circuit, compile_program(circuit, noise))
    return grouped_records(pi, shots, seed)


# a Pauli as zero-duration gates: Z = HXH, and Y is X then Z up to a phase
_PAULI_GATES = {"X": ("x",), "Z": ("h", "x", "h"), "Y": ("x", "h", "x", "h")}


def insert_fault(circuit: Circuit, qubit: int, time_ns: int, pauli: str) -> Circuit:
    """`circuit` with a deterministic Pauli on `qubit` at `time_ns`, as
    zero-duration gates placed before the first instruction that starts at
    or after `time_ns`: the fault acts before every instruction at its time
    and flips the qubit's tracked bit iff it anticommutes with its basis."""
    fault = tuple(Instruction(kind, (qubit,), time_ns, 0) for kind in _PAULI_GATES[pauli])
    ins = circuit.instructions
    k = next((k for k, i in enumerate(ins) if i.start >= time_ns), len(ins))
    return replace(circuit, instructions=ins[:k] + fault + ins[k:])


def with_final_readout(circuit: Circuit, cal: DeviceCalibration) -> Circuit:
    """`circuit` followed by the transversal code readout the estimator does
    not read: after its end, an h on each code qubit (phase-flip encoding
    only), then each code qubit measured. As in the builder, a gate layer
    ends with its slowest gate, and every qubit idles up to there with one
    delay."""
    code = code_qubits(circuit)
    layers = [[("measure", q, cal.qubits[q].readout_ns) for q in code]]
    if circuit.encoding == "phase_flip":
        layers.insert(0, [("h", q, cal.qubits[q].x_ns) for q in code])
    added = []
    start = circuit.duration
    for layer in layers:
        busy = dict.fromkeys(circuit.line, start)  # where each qubit's gate ends
        for kind, q, ns in layer:
            added.append(Instruction(kind, (q,), start, max(1, round(ns))))
            busy[q] = added[-1].end
        end = max(busy.values())
        added += [Instruction("delay", (q,), t, end - t) for q, t in busy.items() if t < end]
        start = end
    added.sort(key=attrgetter("start", "duration", "qubits", "kind"))
    return replace(circuit, instructions=circuit.instructions + tuple(added))
