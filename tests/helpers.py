"""Shared construction helpers for tests."""

from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from synbench.circuits import DD_SCOPES, ENCODINGS, Circuit, Instruction, _timeline_order, build_repetition_circuit
from synbench.cli import RunConfig, _extra_delay_ns
from synbench.device import DeviceCalibration, QubitCalibration, canonical_edge, plan_device
from synbench.noise import CHANNEL_NAMES, NoiseOptions
from synbench.simulator import compile_program, pair_distribution, run_shots
from oracles import grouped_records, insert_dynamical_decoupling, reference_record_distribution

# every channel off: a circuit's outcomes are then deterministic
ZERO_NOISE_OPTIONS = NoiseOptions(disable=frozenset(CHANNEL_NAMES))


def code_qubits(circuit: Circuit) -> tuple[int, ...]:
    """The line's even positions: the outer code qubits and the centre."""
    return circuit.line[0::2]


def aux_qubits(circuit: Circuit) -> tuple[int, ...]:
    """The line's odd positions: the two auxiliaries."""
    return circuit.line[1::2]


def per_qubit(circuit: Circuit) -> dict[int, tuple[Instruction, ...]]:
    """Each line qubit's instructions, in circuit order."""
    by_qubit: dict[int, list[Instruction]] = {q: [] for q in circuit.line}
    for ins in circuit.instructions:
        for q in ins.qubits:
            by_qubit[q].append(ins)
    return {q: tuple(v) for q, v in by_qubit.items()}


def assert_timeline_valid(circuit):
    """Per-qubit intervals are disjoint and tile [0, readout] gap-free, in
    integer nanoseconds, where readout is round 2's readout start; only the
    two round-2 measures start at or after it."""
    readout = max(i.start for i in circuit.instructions if i.kind == "measure")
    last = sorted((i.kind, i.qubits) for i in circuit.instructions if i.start >= readout)
    assert last == sorted(("measure", (a,)) for a in aux_qubits(circuit)), last
    for q in circuit.line:
        cursor = 0
        for ins in sorted(per_qubit(circuit)[q], key=lambda i: (i.start, i.end)):
            assert type(ins.start) is int and type(ins.duration) is int, (q, ins)
            if ins.start < readout:
                assert ins.start == cursor or ins.duration == 0, (q, ins)
                cursor = max(cursor, ins.end)
        assert cursor == readout, q


def timeline_text(circuit: Circuit) -> str:
    """Deterministic plain-text dump, one line per instruction."""
    lines = []
    for ins in circuit.instructions:
        echoed = " echoed" if ins.kind == "delay" and ins.echoed else ""
        qubits = ",".join(str(q) for q in ins.qubits)
        lines.append(f"{ins.start:>10d} {ins.kind:<10s} q[{qubits}] dur={ins.duration}{echoed}")
    return "\n".join(lines) + "\n"


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
        t2_star_ns=t2_star_ns,
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


@st.composite
def random_line_cases(draw) -> tuple[DeviceCalibration, NoiseOptions, dict]:
    """A random five-qubit line 0-1-2-3-4 with its noise options and one
    circuit's builder keywords, as (cal, options, kwargs). Per qubit: T1
    20-400 us, T2 <= 2 T1, T2* <= T2, p0, read-out error and the read-out
    and x durations; per edge a cx error and duration; then the crosstalk
    eta, encoding, logical value, dd_scope and extra delay."""
    qubits = []
    for _ in range(5):
        t1 = draw(st.floats(20_000.0, 400_000.0))
        t2 = draw(st.floats(0.1, 2.0)) * t1
        qubits.append(
            QubitCalibration(
                t1_ns=t1,
                t2_ns=t2,
                t2_star_ns=draw(st.floats(0.1, 1.0)) * t2,
                p0=draw(st.floats(0.8, 1.0)),
                readout_error=draw(st.floats(0.0, 0.1)),
                readout_ns=draw(st.floats(100.0, 2_000.0)),
                x_ns=draw(st.floats(10.0, 100.0)),
            )
        )
    edges = [canonical_edge(i, i + 1) for i in range(4)]
    cal = DeviceCalibration(
        qubits=tuple(qubits),
        cx_error={e: draw(st.floats(0.0, 0.05)) for e in edges},
        cx_duration_ns={e: draw(st.floats(100.0, 800.0)) for e in edges},
        name="random-line5",
    )
    options = NoiseOptions(crosstalk_eta=draw(st.floats(0.0, 1.0)))
    kwargs = dict(
        encoding=draw(st.sampled_from(ENCODINGS)),
        logical_value=draw(st.sampled_from((0, 1))),
        dd_scope=draw(st.sampled_from(DD_SCOPES)),
        extra_delay_ns=draw(st.integers(0, 100_000)),
    )
    return cal, options, kwargs


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


def load_bench_module(name: str, monkeypatch):
    """bench/<name>.py, loaded by path since bench is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def pipeline_circuits(cal):
    """Every circuit the pipeline builds for `cal` at each dd_scope, with
    the default config's extra delay."""
    config = RunConfig(calibration="")
    lines = {q: line for q, line in plan_device(cal).items() if line is not None}
    for scope, (q, line), encoding, lv in itertools.product(DD_SCOPES, sorted(lines.items()), ENCODINGS, (0, 1)):
        extra = _extra_delay_ns(config, cal, q, encoding)
        yield scope, build_repetition_circuit(line, cal, encoding, lv, extra_delay_ns=extra, dd_scope=scope)


def sample_shots(circuit, noise, shots: int, seed) -> np.ndarray:
    """`shots` (shots, 2) round-2 detector-pair bits of one circuit, drawn
    from its exact pair distribution as the pipeline draws them."""
    (pi,) = pair_distribution([compile_program(circuit, noise)])
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


def with_round_two_tail(circuit: Circuit, cal: DeviceCalibration, dd_scope: str) -> Circuit:
    """A builder circuit with the tail its circuits once had after round
    2's measures: each auxiliary's reset at its measure's end, then every
    qubit idling up to the latest reset's end with one delay, echoed at
    `dd_scope` as the builder echoes a window."""
    m1, m2 = circuit.instructions[-2:]
    resets = [Instruction("reset", m.qubits, m.end, max(1, round(cal.qubits[m.qubits[0]].x_ns))) for m in (m1, m2)]
    end = max(r.end for r in resets)
    cursor = {q: m1.start for q in circuit.line} | {r.qubits[0]: r.end for r in resets}
    tail = resets + [Instruction("delay", (q,), t, end - t) for q, t in cursor.items() if t < end]
    tailed = replace(circuit, instructions=tuple(sorted(circuit.instructions + tuple(tail), key=_timeline_order)))
    return tailed if dd_scope == "none" else insert_dynamical_decoupling(tailed, cal, dd_scope)


def with_final_readout(circuit: Circuit, cal: DeviceCalibration) -> Circuit:
    """`circuit` followed by the transversal code readout the estimator does
    not read: after its end, an h on each code qubit that an odd number of
    h gates left in the X basis (every code qubit of a phase-flip circuit,
    whose injected faults add h gates in pairs), then each code qubit
    measured. Each qubit first idles with one delay from its own end to the
    circuit's; as in the builder, a gate layer ends with its slowest gate,
    and every qubit idles up to there with one delay."""
    code = code_qubits(circuit)
    layers = [[("measure", q, cal.qubits[q].readout_ns) for q in code]]
    in_x = [q for q in code if sum(ins.kind == "h" and ins.qubits == (q,) for ins in circuit.instructions) % 2]
    if in_x:
        layers.insert(0, [("h", q, cal.qubits[q].x_ns) for q in in_x])
    start = max(ins.end for ins in circuit.instructions)
    ends = {q: max(ins.end for ins in own) for q, own in per_qubit(circuit).items()}
    added = [Instruction("delay", (q,), t, start - t) for q, t in ends.items() if t < start]
    for layer in layers:
        busy = dict.fromkeys(circuit.line, start)  # where each qubit's gate ends
        for kind, q, ns in layer:
            added.append(Instruction(kind, (q,), start, max(1, round(ns))))
            busy[q] = added[-1].end
        end = max(busy.values())
        added += [Instruction("delay", (q,), t, end - t) for q, t in busy.items() if t < end]
        start = end
    added.sort(key=_timeline_order)
    return replace(circuit, instructions=circuit.instructions + tuple(added))
