"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with `pytest -v -s tests/test_acceptance.py`).

Statistical criteria run the full stated shot counts, so this module is the
slow part of the suite (about 11 s end to end on a 2-vCPU Xeon KVM guest).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from synbench.analysis import detection_events, estimate_from_moments, extract_idle_rates
from synbench.circuits import build_repetition_circuit
from synbench.cli import RunConfig, _extra_delay_ns, benchmark_qubit, run_benchmark
from synbench.device import canonical_edge, enumerate_lines, load_calibration, plan_device, select_line
from synbench.noise import IdleChannel, NoiseOptions, compile_noise
from conftest import FALCON_LEAVES, falcon_bytes
from helpers import (
    ZERO_NOISE_OPTIONS,
    insert_fault,
    make_graph_cal,
    make_line_cal,
    random_graph_edges,
    sample_records,
    sample_shots,
    with_final_readout,
)
from oracles import (
    bincount_pair_counts,
    brute_force_lines,
    shared_fault_moments,
    stacked_detection_events,
    window_flip_probability,
    window_phase_flip_probability,
)

LINE = (0, 1, 2, 3, 4)
T1_NS = 100_000.0
T2_NS = 80_000.0
MILLION = 1_000_000


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cal5():
    # near-instant instrument durations keep the idle window within a fraction
    # of a percent of the added delay
    return make_line_cal(t1_ns=T1_NS, t2_ns=T2_NS, readout_ns=20.0, x_ns=10.0, cx_ns=20.0)


@pytest.fixture(scope="module")
def falcon():
    return load_calibration(falcon_bytes())


def _only(channels: set[str]) -> NoiseOptions:
    return NoiseOptions(disable=frozenset({"cx", "readout", "relaxation", "dephasing", "crosstalk"} - channels))


def _sym_estimate(estimates):
    mean = sum(e.estimate for e in estimates) / len(estimates)
    stderr = math.sqrt(sum(e.stderr**2 for e in estimates)) / len(estimates)
    return mean, stderr


def test_criterion_1_guide_value_reproduction(cal5):
    noise_relax = compile_noise(cal5, _only({"relaxation"}))
    noise_dephase = compile_noise(cal5, _only({"dephasing"}))
    cases = []

    # 1a: relaxation without echoes, logical 1 -> 1 - exp(-t/T1) ~ 11.8%
    circuit = build_repetition_circuit(LINE, cal5, "bit_flip", 1, extra_delay_ns=12_500)
    est = extract_idle_rates(
        detection_events(sample_shots(circuit, noise_relax, MILLION, seed=101)),
        seed=201,
    )
    closed = window_flip_probability(circuit, cal5, 2, start_bit=1)
    cases.append(("P_1to0 no-echo", est.estimate, est.stderr, closed, 0.1175))

    # 1b: relaxation under the echo pair, both logical values -> ~6.1%
    per_lv = []
    for lv in (0, 1):
        circuit = build_repetition_circuit(
            LINE, cal5, "bit_flip", lv, extra_delay_ns=12_500, dd_scope="code_only"
        )
        per_lv.append(
            extract_idle_rates(
                detection_events(sample_shots(circuit, noise_relax, MILLION, seed=110 + lv)),
                seed=210 + lv,
            )
        )
    sym, sym_se = _sym_estimate(per_lv)
    closed = 0.5 * (
        window_flip_probability(circuit, cal5, 2, start_bit=0)
        + window_flip_probability(circuit, cal5, 2, start_bit=1)
    )
    cases.append(("P_01 echoed", sym, sym_se, closed, 1.0 - math.exp(-1.0 / 16.0)))

    # 1c: dephasing with echoed idles -> (1 - exp(-t/T2))/2 ~ 5.9%
    circuit = build_repetition_circuit(
        LINE, cal5, "phase_flip", 0, extra_delay_ns=10_000, dd_scope="code_only"
    )
    est = extract_idle_rates(
        detection_events(sample_shots(circuit, noise_dephase, MILLION, seed=120)),
        seed=220,
    )
    closed = window_phase_flip_probability(circuit, cal5, 2)
    cases.append(("P_phase echoed", est.estimate, est.stderr, closed, 0.058752))

    details = []
    ok = True
    for name, estimate, stderr, closed, guide in cases:
        within_se = abs(estimate - closed) <= 3.0 * stderr
        within_guide = abs(estimate - guide) <= 0.05 * guide
        ok = ok and within_se and within_guide
        details.append(
            f"{name}={100 * estimate:.2f}% (closed {100 * closed:.2f}%, guide {100 * guide:.2f}%, "
            f"3SE {3 * 100 * stderr:.3f}pp)"
        )
    _verdict("criterion 1 (guide values)", ok, "; ".join(details))


def test_criterion_2_estimator_oracle():
    grid = [round(0.01 * k, 2) for k in range(31)]
    worst = 0.0
    for p in grid:
        for q_i in grid:
            for q_j in grid:
                v_i, v_j, joint = shared_fault_moments(p, q_i, q_j)
                worst = max(worst, abs(estimate_from_moments(v_i, v_j, joint) - p))
    exact_ok = worst <= 1e-12

    failures = 0
    trials = 100
    for trial in range(trials):
        p = (0.01, 0.05, 0.1)[trial % 3]
        rng = np.random.default_rng((2024, trial))
        e = rng.random(MILLION) < p
        d_i = (e ^ (rng.random(MILLION) < 0.02)).astype(np.uint8)
        d_j = (e ^ (rng.random(MILLION) < 0.03)).astype(np.uint8)
        est = extract_idle_rates(bincount_pair_counts(d_i, d_j), seed=(3030, trial))
        if abs(est.estimate - p) > 4.0 * est.stderr:
            failures += 1
    sampled_ok = failures <= trials - 95
    _verdict(
        "criterion 2 (estimator oracle)",
        exact_ok and sampled_ok,
        f"max exact-moment error {worst:.2e}; sampled coverage {trials - failures}/{trials}",
    )


def test_criterion_3_line_selection_fixtures(falcon):
    q7 = enumerate_lines(falcon, 7)
    q7_ok = [ln.qubits for ln in q7] == [(1, 4, 7, 10, 12)]
    q22 = {ln.qubits for ln in enumerate_lines(falcon, 22)}
    q22_ok = q22 == {
        (16, 19, 22, 25, 24),
        (16, 19, 22, 25, 26),
        (20, 19, 22, 25, 24),
        (20, 19, 22, 25, 26),
    }
    leaves_ok = all(enumerate_lines(falcon, leaf) == [] for leaf in FALCON_LEAVES)

    # a 0.51-error cx is never selected: poison one branch, then every branch
    poisoned = replace(falcon, cx_error={**falcon.cx_error, canonical_edge(16, 19): 0.51})
    chosen = select_line(poisoned, enumerate_lines(poisoned, 22))
    never_selected = chosen is not None and 16 not in chosen.qubits
    poisoned_all = replace(falcon, cx_error={**falcon.cx_error, canonical_edge(19, 22): 0.51})
    none_left = select_line(poisoned_all, enumerate_lines(poisoned_all, 22)) is None

    mismatches = 0
    for seed in range(1000, 1100):
        n, edges = random_graph_edges(seed)
        cal = make_graph_cal(n, edges)
        for center in range(n):
            got = {ln.qubits for ln in enumerate_lines(cal, center)}
            if got != brute_force_lines(edges, n, center):
                mismatches += 1
    _verdict(
        "criterion 3 (line selection)",
        q7_ok and q22_ok and leaves_ok and never_selected and none_left and mismatches == 0,
        f"q7 unique={q7_ok}, q22 four={q22_ok}, leaves empty={leaves_ok}, "
        f"0.51 never selected={never_selected and none_left}, oracle mismatches={mismatches}/100 graphs",
    )


def _phase_medians(falcon, crosstalk: bool, shots: int) -> dict[str, tuple[float, float]]:
    """Median phase-flip rate and an approximate median SE per dd scope."""
    plan = {q: line for q, line in plan_device(falcon).items() if line is not None}
    out = {}
    for scope in ("all_qubits", "code_only"):
        config = RunConfig(
            calibration="in-memory",
            shots=shots,
            seed=4040 if crosstalk else 5050,
            encodings=("phase_flip",),
            logical_values=(0,),
            dd_scope=scope,
            noise=NoiseOptions(
                crosstalk_eta=1.0, disable=frozenset() if crosstalk else frozenset({"crosstalk"})
            ),
        )
        noise = compile_noise(falcon, config.noise)
        estimates = []
        for q, line in sorted(plan.items()):
            delays = {"phase_flip": _extra_delay_ns(config, falcon, q, "phase_flip")}
            estimates.append(benchmark_qubit(q, line, falcon, noise, config, delays).rates["p_phase"])
        values = [e.estimate for e in estimates]
        ses = [e.stderr for e in estimates]
        # normal-approximation SE of a sample median
        med_se = 1.2533 * math.sqrt(float(np.mean(np.square(ses))) / len(ses))
        out[scope] = (float(np.median(values)), med_se)
    return out


def test_criterion_4_dd_scope_anomaly(falcon):
    shots = 100_000
    with_ct = _phase_medians(falcon, crosstalk=True, shots=shots)
    all_med, _ = with_ct["all_qubits"]
    code_med, _ = with_ct["code_only"]
    ordered = all_med > code_med
    ratio = all_med / code_med if code_med > 0 else math.inf
    ratio_ok = ratio >= 1.5

    without_ct = _phase_medians(falcon, crosstalk=False, shots=shots)
    diff = abs(without_ct["all_qubits"][0] - without_ct["code_only"][0])
    sigma = math.sqrt(without_ct["all_qubits"][1] ** 2 + without_ct["code_only"][1] ** 2)
    agree_ok = diff <= 3.0 * sigma
    _verdict(
        "criterion 4 (dd-scope anomaly)",
        ordered and ratio_ok and agree_ok,
        f"crosstalk on: medians {100 * all_med:.2f}% vs {100 * code_med:.2f}% (ratio {ratio:.2f}); "
        f"crosstalk off: diff {100 * diff:.3f}pp vs 3-sigma {100 * 3 * sigma:.3f}pp",
    )


def test_criterion_5_noise_free_soundness(cal5):
    zero = compile_noise(cal5, ZERO_NOISE_OPTIONS)
    checked = 0
    nonzero = []
    for encoding in ("bit_flip", "phase_flip"):
        for lv in (0, 1):
            for scope in ("none", "all_qubits", "code_only"):
                circuit = build_repetition_circuit(
                    LINE, cal5, encoding, lv, extra_delay_ns=2_000, dd_scope=scope
                )
                # the final code readout gives the oracle its round-3 detectors
                read = with_final_readout(circuit, cal5)
                records = sample_records(read, zero, 10_000, seed=60)
                # the oracle's six detectors, and the pipeline's pair counts
                if stacked_detection_events(read, records)[0].any() or (
                    detection_events(sample_shots(circuit, zero, 10_000, seed=60)).tolist() != [10_000, 0, 0, 0]
                ):
                    nonzero.append((encoding, lv, scope))
                checked += 1
    _verdict(
        "criterion 5 (noise-free soundness)",
        not nonzero,
        f"all-zero detection matrices for {checked - len(nonzero)}/{checked} variants "
        f"(10^4 shots each){'; failing: ' + str(nonzero) if nonzero else ''}",
    )


def test_criterion_6_fault_injection_sensitivity(cal5):
    zero = compile_noise(cal5, ZERO_NOISE_OPTIONS)
    results = []
    for encoding, pauli in (("bit_flip", "X"), ("phase_flip", "Z")):
        circuit = build_repetition_circuit(LINE, cal5, encoding, 0, extra_delay_ns=1_000)
        meas_start = min(i.start for i in circuit.instructions if i.kind == "measure")
        faulted = insert_fault(circuit, qubit=2, time_ns=meas_start + 100, pauli=pauli)
        # the final code readout gives the oracle its round-3 detectors
        read = with_final_readout(faulted, cal5)
        data, detectors = stacked_detection_events(read, sample_records(read, zero, 2_000, seed=61))
        fired = {det for det, col in zip(detectors, data.T) if col.all()}
        silent = {det for det, col in zip(detectors, data.T) if not col.any()}
        exact = (
            fired == {(1, 2), (3, 2)}
            and silent == set(detectors) - fired
            and detection_events(sample_shots(faulted, zero, 2_000, seed=61)).tolist() == [0, 0, 0, 2_000]
        )
        results.append((encoding, pauli, exact))
    _verdict(
        "criterion 6 (fault injection)",
        all(r[2] for r in results),
        "; ".join(f"{enc}+{p}: round-2 pair only={ok}" for enc, p, ok in results),
    )


def test_criterion_7_determinism(falcon, tmp_path):
    config_doc = {
        "calibration": str(tmp_path / "falcon27.json"),
        "shots": 2_000,
        "seed": 77,
        "output_dir": str(tmp_path / "a"),
    }
    (tmp_path / "falcon27.json").write_bytes(falcon_bytes())
    artifacts = {}
    for label, out in (("first", "a"), ("second", "b")):
        doc = dict(config_doc, output_dir=str(tmp_path / out))
        _, paths = run_benchmark(RunConfig.from_dict(doc))
        artifacts[label] = {k: p.read_bytes() for k, p in paths.items()}
    identical = artifacts["first"] == artifacts["second"]
    _verdict(
        "criterion 7 (determinism)",
        identical,
        f"rerun byte-identical={identical} (report JSON, CSV, and SVG artifacts)",
    )


def test_criterion_8_unit_identities():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(2_000):
        t1 = rng.uniform(1e3, 1e7)
        t2 = rng.uniform(1e3, 2 * t1)
        p0 = rng.uniform(0.0, 1.0)
        t = rng.uniform(0.0, 1e7)
        ch = IdleChannel(t1_ns=t1, t2_ns=t2, t2_star_ns=0.5 * t2, p0=p0)
        f = -math.expm1(-t / t1)
        worst = max(worst, abs(ch.p_0to1(t) + ch.p_1to0(t) - f))
        if ch.p_1to0(t) > 0:
            worst = max(
                worst, abs(ch.p_0to1(t) / ch.p_1to0(t) - (1.0 - p0) / p0) * min(1.0, p0)
            )
        worst = max(worst, abs(ch.p_phaseflip(t, True) - (-math.expm1(-t / t2) / 2.0)))
    huge = 1e15
    ch = IdleChannel(t1_ns=1e4, t2_ns=1e4, t2_star_ns=5e3, p0=0.93)
    limits_ok = (
        abs(ch.p_1to0(huge) - 0.93) < 1e-9
        and abs(ch.p_0to1(huge) - 0.07) < 1e-9
        and abs(ch.p_phaseflip(huge, True) - 0.5) < 1e-9
    )
    _verdict(
        "criterion 8 (unit identities)",
        worst <= 1e-12 and limits_ok,
        f"max identity residual {worst:.2e}; equilibrium and 1/2 limits reached={limits_ok}",
    )
