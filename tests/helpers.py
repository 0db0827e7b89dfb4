"""Shared construction helpers for tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from synbench import Circuit, DeviceCalibration, Instruction, QubitCalibration
from synbench.device import canonical_edge
from synbench.simulator import compile_program, record_distribution, run_shots


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
        qubit_count=n,
        edges=edges,
        qubits=tuple([qubit] * n),
        cx_error={e: cx_error for e in edges},
        cx_duration_ns={e: cx_ns for e in edges},
        name=f"line{n}",
    )


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
        qubit_count=n,
        edges=canon,
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
    """`shots` (shots, slots) records of one circuit, drawn from its exact
    record distribution as the pipeline draws them."""
    (pi,) = record_distribution(compile_program(circuit, noise))
    return run_shots(pi, shots, seed)


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
