from __future__ import annotations

import json

import numpy as np
import pytest

from synbench.analysis import (
    RATES,
    AntiCorrelationError,
    EstimationError,
    QubitBenchmark,
    RateEstimate,
    aggregate_device,
    detection_events,
    estimate_from_moments,
    extract_idle_rates,
)
from synbench.circuits import build_repetition_circuit
from synbench.cli import RunConfig, run_benchmark
from helpers import aux_qubits, line_calibration_doc, make_line_cal, with_final_readout
from oracles import bincount_pair_counts, record_slots, shared_fault_moments, stacked_detection_events

LINE = (0, 1, 2, 3, 4)


def read_out(lv: int):
    """The bit-flip circuit of logical value `lv` with the final code
    readout that round 3's detectors read."""
    cal = make_line_cal()
    return with_final_readout(build_repetition_circuit(LINE, cal, "bit_flip", lv), cal)


def oracle_columns(circuit, shots) -> dict:
    """The oracle's detection events by (auxiliary, round), rounds 1-3."""
    data, detectors = stacked_detection_events(circuit, shots)
    return dict(zip(detectors, data.T))


def oracle_pairs(col: dict) -> np.ndarray:
    """The oracle's round-2 detector columns as a (shots, 2) pair table."""
    return np.stack([col[(1, 2)], col[(3, 2)]], axis=1)


def test_all_zero_shots_give_all_zero_matrix():
    shots = np.zeros((100, 2), dtype=np.uint8)
    assert detection_events(shots).tolist() == [100, 0, 0, 0]


def test_detector_columns_follow_xor_rules():
    circuit = read_out(0)
    slots = record_slots(circuit)
    shots = np.zeros((1, len(slots)), dtype=np.uint8)
    # left aux fires in round 2 only: detectors (1,2) and (1,3) fire
    shots[0, slots[1, 2]] = 1
    col = oracle_columns(circuit, shots)
    assert col[(1, 1)][0] == 0
    assert col[(1, 2)][0] == 1
    assert col[(1, 3)][0] == 1
    assert not col[(3, 1)][0] and not col[(3, 2)][0] and not col[(3, 3)][0]
    assert detection_events(oracle_pairs(col)).tolist() == [0, 0, 1, 0]


def test_final_round_parity_under_logical_one():
    circuit = read_out(1)
    slots = record_slots(circuit)
    shots = np.zeros((1, len(slots)), dtype=np.uint8)
    # clean syndromes but final readout 101: both final-round detectors fire
    shots[0, slots[0, 1]] = 1
    shots[0, slots[2, 1]] = 0
    shots[0, slots[4, 1]] = 1
    col = oracle_columns(circuit, shots)
    assert col[(1, 3)][0] == 1 and col[(3, 3)][0] == 1
    assert col[(1, 1)][0] == 0 and col[(1, 2)][0] == 0


def test_final_round_parity_cancels_equal_bits():
    circuit = read_out(1)
    slots = record_slots(circuit)
    shots = np.ones((1, len(slots)), dtype=np.uint8)
    shots[0, [slots[a, r] for a in aux_qubits(circuit) for r in (1, 2)]] = 0
    assert not stacked_detection_events(circuit, shots)[0].any()


def test_detector_chain_parity_is_invariant_under_even_aux_flips():
    circuit = read_out(0)
    slots = record_slots(circuit)
    flipped = np.zeros((64, len(slots)), dtype=np.uint8)
    flipped[:, slots[1, 1]] ^= 1
    flipped[:, slots[1, 2]] ^= 1
    col = oracle_columns(circuit, flipped)
    parity = np.zeros(64, dtype=np.uint8)
    for r in (1, 2, 3):
        parity ^= col[(1, r)]
    assert not parity.any()
    assert col[(1, 1)].all() and col[(1, 3)].all() and not col[(1, 2)].any()


def test_detection_events_rejects_slot_mismatch():
    # a table of anything but the pair's two detector columns is refused
    for shape in ((10, 3), (10, 1), (10,), (10, 2, 1)):
        with pytest.raises(ValueError, match="\\(shots, 2\\) table"):
            detection_events(np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize(
    "bad,dtype",
    [(2, np.uint8), (0.9, np.float64), (-1, np.int64)],
)
def test_detection_events_rejects_entries_other_than_zero_and_one(bad, dtype):
    # a 2 or a 0.9 would shift the detector counts; both must be refused,
    # naming the value
    shots = np.zeros((10, 2), dtype=dtype)
    shots[3, 0] = bad
    with pytest.raises(ValueError, match=f"got {bad}$"):
        detection_events(shots)


def _layouts(bits: np.ndarray) -> dict[str, np.ndarray]:
    """`bits` in C, F and non-contiguous memory order, and as bool, int64
    and float64 arrays."""
    padded = np.zeros((2 * bits.shape[0], 3 * bits.shape[1]), dtype=bits.dtype)
    padded[::2, ::3] = bits
    return {
        "C": np.ascontiguousarray(bits),
        "F": np.asfortranarray(bits),
        "strided": padded[::2, ::3],
        "bool": bits.astype(bool),
        "int64": bits.astype(np.int64),
        "float64": bits.astype(np.float64),
    }


@pytest.mark.parametrize("layout", ["C", "F", "strided", "bool", "int64", "float64"])
def test_detection_events_match_stacked_oracle_in_any_layout(layout):
    # the popcount cells of the oracle's round-2 columns equal their
    # bincount, cell 2 d_left + d_right, whatever the pair table's memory
    # order and dtype
    for lv in (0, 1):
        circuit = read_out(lv)
        bits = (np.random.default_rng(21).random((3_000, len(record_slots(circuit)))) < 0.3).astype(np.uint8)
        col = oracle_columns(circuit, bits)
        counts = detection_events(_layouts(oracle_pairs(col))[layout])
        expected = bincount_pair_counts(col[(1, 2)], col[(3, 2)])
        assert counts.dtype == np.int64 and np.array_equal(counts, expected)
        assert expected.sum() == 3_000 and expected.min() > 0


@pytest.mark.parametrize("layout", ["C", "F", "strided", "bool", "int64"])
def test_pair_counts_match_bincount_oracle_in_any_layout(layout):
    # correlated detector columns: the popcount cells are their bincount
    rng = np.random.default_rng(22)
    e = rng.random(5_000) < 0.1
    d_i = (e ^ (rng.random(5_000) < 0.2)).astype(np.uint8)
    d_j = (e ^ (rng.random(5_000) < 0.3)).astype(np.uint8)
    expected = bincount_pair_counts(d_i, d_j)
    assert np.array_equal(detection_events(_layouts(np.stack([d_i, d_j], axis=1))[layout]), expected)
    assert expected.sum() == 5_000 and expected.min() > 0


@pytest.mark.parametrize(
    "counts,problem",
    [
        (np.zeros(4, dtype=np.int64), "no shots"),  # detection_events of zero shots
        (np.array([10, -1, 0, 0]), "non-negative"),
        (np.array([10, 0, 0]), "four cells"),
        (np.array([10.0, 0.0, 0.0, 0.0]), "integers"),
    ],
    ids=["zero-total", "negative-cell", "three-cells", "float"],
)
def test_extract_refuses_malformed_counts(counts, problem):
    with pytest.raises(ValueError, match=problem):
        extract_idle_rates(counts)


def test_estimator_recovers_p_from_exact_moments():
    grid = [round(0.01 * k, 2) for k in range(0, 31)]
    worst = 0.0
    for p in grid:
        for q_i in grid[::6]:
            for q_j in grid[::6]:
                v_i, v_j, joint = shared_fault_moments(p, q_i, q_j)
                worst = max(worst, abs(estimate_from_moments(v_i, v_j, joint) - p))
    assert worst <= 1e-12


def test_estimator_matches_documented_example():
    v_i, v_j, joint = shared_fault_moments(0.05, 0.02, 0.03)
    assert v_i == pytest.approx(0.068)
    assert v_j == pytest.approx(0.077)
    assert estimate_from_moments(v_i, v_j, joint) == pytest.approx(0.05, abs=1e-15)


def test_estimator_zero_covariance_is_zero():
    assert estimate_from_moments(0.1, 0.2, 0.1 * 0.2) == pytest.approx(0.0, abs=1e-15)


def test_estimator_rejects_rates_at_one_half():
    with pytest.raises(EstimationError):
        estimate_from_moments(0.5, 0.1, 0.05)


def test_estimator_flags_excess_anticorrelation():
    with pytest.raises(AntiCorrelationError):
        estimate_from_moments(0.4, 0.4, 0.0)


def test_extract_idle_rates_on_synthetic_columns():
    rng = np.random.default_rng(12)
    n = 200_000
    p, q_i, q_j = 0.05, 0.02, 0.03
    e = rng.random(n) < p
    d_i = e ^ (rng.random(n) < q_i)
    d_j = e ^ (rng.random(n) < q_j)
    est = extract_idle_rates(bincount_pair_counts(d_i, d_j), seed=5)
    assert est.stderr > 0
    assert est.estimate == pytest.approx(p, abs=4 * est.stderr)
    assert est.shots == n and type(est.shots) is int


def test_extract_idle_rates_zero_data_is_zero():
    est = extract_idle_rates(np.array([2_000, 0, 0, 0]), seed=5)
    assert est.estimate == 0.0
    assert not est.anticorrelated


def test_extract_idle_rates_anticorrelated_columns_flagged():
    # detectors fire on disjoint shot sets: covariance below the model bound
    n = 4_000
    d_i = np.zeros(n, dtype=np.uint8)
    d_j = np.zeros(n, dtype=np.uint8)
    d_i[: int(0.3 * n)] = 1
    d_j[int(0.3 * n) : int(0.6 * n)] = 1
    est = extract_idle_rates(bincount_pair_counts(d_i, d_j), seed=5)
    assert est.estimate == 0.0
    assert est.anticorrelated


def test_extract_idle_rates_rejects_half_rate_detectors():
    n = 4_000
    d_i = np.tile([0, 1], n // 2).astype(np.uint8)
    with pytest.raises(EstimationError):
        extract_idle_rates(bincount_pair_counts(d_i, 1 - d_i), seed=5)


def test_extract_idle_rates_warns_below_recommended_shots():
    # the warning names the code that asked for the estimate
    with pytest.warns(UserWarning, match="only 12 shots") as record:
        extract_idle_rates(np.array([12, 0, 0, 0]), seed=5)
    assert [w.filename for w in record] == [__file__]


def test_extract_idle_rates_bootstrap_is_seeded():
    rng = np.random.default_rng(3)
    col = (rng.random(20_000) < 0.04).astype(np.uint8)
    counts = bincount_pair_counts(col, col)
    a = extract_idle_rates(counts, seed=7)
    b = extract_idle_rates(counts, seed=7)
    c = extract_idle_rates(counts, seed=8)
    assert a == b
    assert a.stderr != c.stderr


@pytest.mark.parametrize(
    "counts",
    [
        (1900, 40, 50, 10),  # correlated
        (1000, 500, 500, 0),  # anti-correlated: resamples map to 0.0
        (262, 240, 240, 258),  # rates near 1/2: resamples map to 0.5
    ],
    ids=["counts0-exact", "counts1-exact", "counts2-exact"],  # the exact inversion
)
def test_extract_idle_rates_bootstrap_matches_scalar_loop(counts):
    # the vectorized bootstrap reproduces the per-resample scalar estimator
    # bit for bit, failure mapping included
    n = sum(counts)
    est = extract_idle_rates(np.array(counts), seed=9)
    rng = np.random.default_rng(9)
    values = []
    for c in rng.multinomial(n, np.array(counts) / n, size=200):
        total = float(c.sum())
        try:
            values.append(
                estimate_from_moments((c[2] + c[3]) / total, (c[1] + c[3]) / total, c[3] / total)
            )
        except AntiCorrelationError:
            values.append(0.0)
        except EstimationError:
            values.append(0.5)
    assert est.stderr == float(np.std(values))


def test_estimator_consistency_on_sampled_fault_model():
    failures = 0
    trials = 20
    n = 100_000
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        e = rng.random(n) < 0.05
        d_i = (e ^ (rng.random(n) < 0.02)).astype(np.uint8)
        d_j = (e ^ (rng.random(n) < 0.03)).astype(np.uint8)
        est = extract_idle_rates(bincount_pair_counts(d_i, d_j), seed=trial)
        if abs(est.estimate - 0.05) > 4 * est.stderr:
            failures += 1
    assert failures <= 1


def test_extract_labels_by_encoding_and_logical_value(tmp_path):
    # a run reports each RATES key whose encoding and some logical value it
    # measured; a key over one logical value is that estimate, bit for bit
    cal_path = tmp_path / "line.json"
    cal_path.write_text(json.dumps(line_calibration_doc()), encoding="utf-8")
    for encoding, lv, keys in [
        ("bit_flip", 1, {"p_1to0", "p_01"}),
        ("bit_flip", 0, {"p_0to1", "p_01"}),
        ("phase_flip", 0, {"p_phase"}),
        ("phase_flip", 1, {"p_phase"}),
    ]:
        config = RunConfig(
            str(cal_path), shots=2_000, encodings=(encoding,), logical_values=(lv,), output_dir=str(tmp_path / "out")
        )
        (result,) = run_benchmark(config)[0].results
        assert set(result.rates) == set(result.guides) == keys
        assert len({result.rates[key] for key in keys}) == 1
        assert all(RATES[key][0] == encoding for key in keys)


def _qb(q, value, rate="p_phase"):
    est = RateEstimate(value, 0.001, 1000)
    return QubitBenchmark(qubit=q, line=(0, 1, q, 3, 4), rates={rate: est}, guides={}, exposure_ns={})


def test_aggregate_median_odd_and_single():
    report = aggregate_device([_qb(1, 0.1), _qb(2, 0.2), _qb(3, 0.4)])
    assert report.medians["p_phase"] == pytest.approx(0.2)
    assert aggregate_device([_qb(5, 0.3)]).medians["p_phase"] == pytest.approx(0.3)


def test_aggregate_median_even_is_mean_of_central_pair():
    report = aggregate_device([_qb(1, 0.1), _qb(2, 0.3)])
    assert report.medians["p_phase"] == pytest.approx(0.2)


def test_aggregate_is_permutation_invariant():
    qubits = [_qb(q, v) for q, v in [(1, 0.1), (2, 0.5), (3, 0.2), (4, 0.4)]]
    a = aggregate_device(qubits)
    b = aggregate_device(list(reversed(qubits)))
    assert a.medians == b.medians
    assert [r.qubit for r in a.results] == [r.qubit for r in b.results]


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_device([])


def test_estimator_sampled_vs_exact_moments_match_closed_form():
    # estimate from a huge synthetic sample approaches the exact-moment value
    v_i, v_j, joint = shared_fault_moments(0.08, 0.05, 0.01)
    p_exact = estimate_from_moments(v_i, v_j, joint)
    assert p_exact == pytest.approx(0.08, abs=1e-12)
