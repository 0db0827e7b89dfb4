"""Independent oracles the tests check the library against.

Everything here is deliberately kept free of the library's algorithms: path
enumeration by raw permutation search, channel composition by explicit 2x2
Markov chains walked over a circuit's instruction list, fault-model
moments by enumerating all configurations, measurement records by
Monte Carlo frame tracking of every shot through every compiled op, and the
force-directed layout with its spring forces added edge by edge.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def brute_force_lines(edges: set[tuple[int, int]], n: int, center: int) -> set[tuple[int, ...]]:
    """All five-qubit simple paths centered on `center`, by checking every
    ordered 5-permutation of vertices; reversals deduplicated by smaller
    endpoint first."""
    adjacent = {tuple(sorted(e)) for e in edges}
    found = set()
    for perm in itertools.permutations(range(n), 5):
        if perm[2] != center:
            continue
        if all(tuple(sorted(p)) in adjacent for p in zip(perm, perm[1:])):
            found.add(perm if perm[0] < perm[-1] else perm[::-1])
    return found


def shared_fault_moments(p: float, q_i: float, q_j: float) -> tuple[float, float, float]:
    """Exact (v_i, v_j, <d_i d_j>) for d_i = e ^ e_i, d_j = e ^ e_j with a
    shared fault e ~ Bern(p) and independent singles, by enumerating the 8
    configurations."""
    v_i = v_j = joint = 0.0
    for e, e_i, e_j in itertools.product((0, 1), repeat=3):
        prob = (
            (p if e else 1.0 - p)
            * (q_i if e_i else 1.0 - q_i)
            * (q_j if e_j else 1.0 - q_j)
        )
        d_i, d_j = e ^ e_i, e ^ e_j
        v_i += prob * d_i
        v_j += prob * d_j
        joint += prob * d_i * d_j
    return v_i, v_j, joint


def relax_step(dist: tuple[float, float], t_ns: float, t1_ns: float, p0: float) -> tuple[float, float]:
    """One Markov step of the relaxation channel on a (P[bit=0], P[bit=1])
    distribution."""
    f = 1.0 - math.exp(-t_ns / t1_ns) if t_ns > 0 else 0.0
    p0_, p1_ = dist
    p_1to0 = p0 * f
    p_0to1 = (1.0 - p0) * f
    return (
        p0_ * (1.0 - p_0to1) + p1_ * p_1to0,
        p1_ * (1.0 - p_1to0) + p0_ * p_0to1,
    )


def flip_step(dist: tuple[float, float]) -> tuple[float, float]:
    return dist[1], dist[0]


def composed_relaxation_flip(
    segments: list[tuple[str, float]], t1_ns: float, p0: float, start_bit: int
) -> float:
    """Net flip probability (final bit != noise-free final bit) for a
    sequence of ('delay', t) and ('x', _) steps, composed exactly."""
    dist = (1.0, 0.0) if start_bit == 0 else (0.0, 1.0)
    ideal = start_bit
    for kind, t in segments:
        if kind == "delay":
            dist = relax_step(dist, t, t1_ns, p0)
        elif kind == "x":
            dist = flip_step(dist)
            ideal ^= 1
        else:
            raise ValueError(kind)
    return dist[0] if ideal == 1 else dist[1]


def window_segments(circuit, qubit: int, rnd: int = 1) -> list[tuple[str, float]]:
    """Walk a built circuit's timeline for `qubit` between round `rnd`'s
    auxiliary measurement start and the qubit's next coupling gate, returning
    the ('delay'/'x', duration) steps inside the window.

    Independent of the library's exposure computation: reads instruction
    tuples only.
    """
    aux_slots = {circuit.aux_slots[(a, rnd)] for a in circuit.aux_qubits}
    meas_start = min(
        ins.start for ins in circuit.instructions if ins.kind == "measure" and ins.slot in aux_slots
    )
    own = sorted(
        (ins for ins in circuit.instructions if qubit in ins.qubits),
        key=lambda ins: ins.start,
    )
    steps: list[tuple[str, float]] = []
    for ins in own:
        if ins.start < meas_start:
            continue
        if ins.kind == "delay":
            steps.append(("delay", float(ins.duration)))
        elif ins.kind == "x":
            steps.append(("x", 0.0))
        else:
            break
    return steps


def window_flip_probability(circuit, cal, qubit: int, start_bit: int, rnd: int = 1) -> float:
    """Closed-form net bit-flip probability over the qubit's idle window of
    round `rnd`, from exact Markov composition of the actual segment
    sequence (echo pulses included)."""
    qc = cal.qubits[qubit]
    return composed_relaxation_flip(
        window_segments(circuit, qubit, rnd), qc.t1_ns, qc.p0, start_bit
    )


def window_phase_flip_probability(circuit, cal, qubit: int, rnd: int = 1) -> float:
    """Closed-form phase-flip probability over the qubit's idle window: XOR
    composition of per-segment echoed/unechoed dephasing.

    Uses the echoed flag of each delay instruction directly.
    """
    qc = cal.qubits[qubit]
    aux_slots = {circuit.aux_slots[(a, rnd)] for a in circuit.aux_qubits}
    meas_start = min(
        ins.start for ins in circuit.instructions if ins.kind == "measure" and ins.slot in aux_slots
    )
    own = sorted(
        (ins for ins in circuit.instructions if qubit in ins.qubits),
        key=lambda ins: ins.start,
    )
    p_net = 0.0
    for ins in own:
        if ins.start < meas_start:
            continue
        if ins.kind == "delay":
            scale = qc.t2_ns if ins.echoed else qc.t2_star_ns
            p = (1.0 - math.exp(-ins.duration / scale)) / 2.0
            p_net = p_net * (1.0 - p) + p * (1.0 - p_net)
        elif ins.kind == "x":
            continue
        else:
            break
    return p_net


def spring_layout(n: int, edges) -> np.ndarray:
    """The seeded force-directed layout, (n, 2) coordinates, with each
    edge's spring force added in a Python loop over `edges`."""
    rng = np.random.default_rng(0)
    pos = rng.random((n, 2)) * math.sqrt(n)
    for _ in range(300):
        forces = np.zeros_like(pos)
        delta = pos[:, None, :] - pos[None, :, :]
        dist2 = (delta**2).sum(axis=2) + 1e-9
        forces += (delta / dist2[:, :, None]).sum(axis=1) * 0.2
        for a, b in edges:
            d = pos[a] - pos[b]
            forces[a] -= 0.5 * d
            forces[b] += 0.5 * d
        pos += 0.05 * forces
    return pos - pos.min(axis=0)


def _run_chunk(program, n: int, rng: np.random.Generator) -> np.ndarray:
    """n shots of a compiled FrameProgram by per-shot frame tracking, as a
    (slots, n) bool array: every op draws its channel's randomness for
    every shot."""
    bits = np.zeros((program.n_qubits, n), dtype=bool)
    out = np.zeros((program.n_slots, n), dtype=bool)
    tokens: dict[int, np.ndarray] = {}  # relax token -> shots whose bit decayed
    for op in program.ops:
        tag = op[0]
        if tag in ("channel", "relax"):
            i, up, down = op[1:4]
            u = rng.random(n)
            flips = np.where(bits[i], u < down, u < up)
            if tag == "relax":
                tokens[op[4]] = bits[i] & flips
            bits[i] ^= flips
        elif tag == "cx":
            _, ci, ti, eps, flips_c, flips_t = op
            bits[ti] ^= bits[ci]
            if eps == 0.0:
                continue
            hit = rng.random(n) < eps
            pauli = rng.integers(0, 15, size=n)
            bits[ci] ^= hit & flips_c[pauli]
            bits[ti] ^= hit & flips_t[pauli]
        elif tag == "measure":
            _, i, slot, p = op
            if p > 0.0:
                out[slot] = bits[i] ^ (rng.random(n) < p)
            else:
                out[slot] = bits[i]
        elif tag == "prep":
            _, i, p = op
            if p > 0.0:
                bits[i] = rng.random(n) < p
            else:
                bits[i] = False
        elif tag == "xtalk":
            _, i, entries = op
            for token, eta in entries:
                bits[i] ^= tokens[token] & (rng.random(n) < eta)
        else:  # pragma: no cover - compile emits only the tags above
            raise RuntimeError(f"unknown op {tag!r}")
    return out


def frame_shots(program, shots: int, seed: int) -> np.ndarray:
    """Monte Carlo (shots, slots) uint8 records of a compiled program, in
    chunks of 8192 shots with chunk k's generator seeded by (seed, k)."""
    parts = []
    for k, start in enumerate(range(0, shots, 8192)):
        rng = np.random.default_rng((seed, k))
        parts.append(_run_chunk(program, min(8192, shots - start), rng).T)
    return np.concatenate(parts).astype(np.uint8)


def record_table(n_slots: int) -> np.ndarray:
    """All 2**n_slots records as rows of bits, slot 0 most significant."""
    return np.array(list(itertools.product((0, 1), repeat=n_slots)), dtype=np.uint8)
