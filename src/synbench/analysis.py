"""From the round-2 detector pair's shots to its counts and
syndrome-derived error rates.

A detection event is the XOR of an auxiliary's outcomes in consecutive
rounds of the two-round circuit. A fault on the central code qubit between
rounds 1 and 2 fires both auxiliaries' round-2 detectors, so the coincidence
statistics of that detector pair estimate the central qubit's idle error
probability. The simulator draws each shot's pair (d_left, d_right)
directly; the analysis layer's data is its 2x2 joint counts
(n00, n01, n10, n11).

The estimator inverts the shared/independent fault model: with detector
means v_i, v_j and covariance C, the shared-fault probability is

    p = 1/2 - 1/(2 * sqrt(1 + 4C / ((1 - 2 v_i)(1 - 2 v_j))))

which is algebraically exact for that model. Standard errors come from a
nonparametric bootstrap over shots, implemented as multinomial resampling of
the 2x2 joint counts. One elementwise inversion serves the point estimate
and every resample: the observed counts are row 0 above the resamples.
Where a detector mean reaches 1/2 it gives 0.5, and past the model's
anti-correlation bound 0.0, with a mask for each; at row 0 the first is an
`EstimationError` and the second the estimate's `anticorrelated` flag. The
estimate is a number from counts alone; `RATES` names each reported rate
once, with the encoding that measures it and the logical values whose
estimates it averages.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .device import warn_caller

MIN_RECOMMENDED_SHOTS = 1000
BOOTSTRAP_RESAMPLES = 200

# a row of joint counts times this is n times (v_i, v_j, <d_i d_j>): the
# cells with d_left = 1, with d_right = 1, and with both
_MOMENTS = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 1]], dtype=np.int64)

# report key -> (encoding, logical values averaged). The bit-flip encoding
# resolves the direction by logical value: logical 1 exposes 1->0 decay,
# logical 0 exposes 0->1 excitation. The phase-flip encoding measures the
# plus/minus flip rate at either logical value.
RATES: dict[str, tuple[str, tuple[int, ...]]] = {
    "p_0to1": ("bit_flip", (0,)),
    "p_1to0": ("bit_flip", (1,)),
    "p_01": ("bit_flip", (0, 1)),
    "p_phase": ("phase_flip", (0, 1)),
}


class EstimationError(ValueError):
    """Detector statistics outside what the fault model can describe."""


def detection_events(shots: np.ndarray) -> np.ndarray:
    """Joint counts (n00, n01, n10, n11) of the round-2 detector pair,
    cell 2 d_left + d_right, over a (shots, 2) table of its bits
    (d_left, d_right), as `run_shots` gives it. Noise-free circuits put
    every shot in n00 for either logical value.
    """
    shots = np.asarray(shots)
    if shots.ndim != 2 or shots.shape[1] != 2:
        raise ValueError(f"shots must be a (shots, 2) table of the detector pair's bits, got shape {shots.shape}")
    # bool and unsigned entries can only go wrong above 1
    if shots.size and (
        shots.max() > 1 if shots.dtype.kind in "bu" else ((shots != 0) & (shots != 1)).any()
    ):
        bad = shots[(shots != 0) & (shots != 1)].flat[0].item()
        raise ValueError(f"shot entries must be 0 or 1, got {bad!r}")
    left, right = shots[:, 0], shots[:, 1]
    n1_, n_1 = np.count_nonzero(left), np.count_nonzero(right)
    n11 = np.count_nonzero(np.logical_and(left, right))
    return np.array([shots.shape[0] - n1_ - n_1 + n11, n_1 - n11, n1_ - n11, n11], dtype=np.int64)


@dataclass(frozen=True)
class RateEstimate:
    estimate: float
    stderr: float
    shots: int
    anticorrelated: bool = field(default=False, kw_only=True)


def estimate_from_moments(v_i, v_j, joint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-fault probability from detector moments (exact inversion),
    elementwise over arrays of v_i, v_j and <d_i d_j>.

    Returns (values, at_half, anticorrelated). `at_half` marks a row with
    either detector mean at or past 1/2, which the model's means never
    reach (broken data), whose value is 0.5; `anticorrelated` marks a
    covariance more negative than the model allows (radicand <= 0), whose
    value is 0.0. Small negative values near p = 0 are ordinary sampling
    noise. Both masks are numpy bools, for Python floats as for arrays.
    """
    v_i, v_j, joint = np.asarray(v_i), np.asarray(v_j), np.asarray(joint)
    c = joint - v_i * v_j
    denom = (1.0 - 2.0 * v_i) * (1.0 - 2.0 * v_j)
    # mean by mean: two means past 1/2 give a positive denominator
    at_half = (v_i >= 0.5) | (v_j >= 0.5)
    # each masked row divides by, or takes the root of, 1.0 instead, so no
    # row warns, and its value is then written through its mask
    radicand = 1.0 + 4.0 * c / np.where(at_half, 1.0, denom)
    low = radicand <= 0.0
    values = np.asarray(0.5 - 0.5 / np.sqrt(np.where(low, 1.0, radicand)))
    values[low] = 0.0
    values[at_half] = 0.5
    return values, at_half, low & ~at_half


def extract_idle_rates(counts: np.ndarray, *, resamples: int = BOOTSTRAP_RESAMPLES, seed=0) -> RateEstimate:
    """Central-qubit idle error rate: the shared-fault probability of the
    round-2 detector pair's joint counts (n00, n01, n10, n11), as
    `detection_events` returns them, with bootstrap SE. The observed counts
    and their `resamples` multinomial resamples, at least 2, are inverted
    in one call; row 0 is the estimate, clamped at 0, and the rest give its
    SE.

    `seed` is anything `np.random.default_rng` takes; a `Generator` is drawn
    from in place, so the resamples continue its stream."""
    if isinstance(resamples, bool) or not isinstance(resamples, int) or resamples < 2:
        raise ValueError(f"resamples must be an integer >= 2, got {resamples!r}")
    counts = np.asarray(counts)
    if counts.shape != (4,):
        raise ValueError(f"counts must be the four cells (n00, n01, n10, n11), got shape {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
    cells = counts.tolist()
    if min(cells) < 0:
        raise ValueError(f"counts must be non-negative, got {cells}")
    n = sum(cells)
    if n < 1:
        raise ValueError("counts hold no shots")
    if n < MIN_RECOMMENDED_SHOTS:
        warn_caller(f"only {n} shots for the round-2 detector pair; estimates will be noisy")
    # every row, the counts' and each resample's, holds n shots
    rows = np.empty((resamples + 1, 4), dtype=np.int64)
    rows[0] = cells
    rows[1:] = np.random.default_rng(seed).multinomial(n, counts / n, size=resamples)
    v_i, v_j, joint = (rows @ _MOMENTS / n).T
    values, at_half, anticorrelated = estimate_from_moments(v_i, v_j, joint)
    if at_half[0]:
        raise EstimationError(
            f"detector rates v_i={v_i[0]:.4f}, v_j={v_j[0]:.4f} reach 1/2; data is outside the fault model"
        )
    # np.std's arithmetic: the mean square deviation from the mean
    spread = values[1:] - np.add.reduce(values[1:]) / resamples
    stderr = math.sqrt(np.add.reduce(spread * spread) / resamples)
    return RateEstimate(max(0.0, float(values[0])), stderr, n, anticorrelated=bool(anticorrelated[0]))


@dataclass(frozen=True)
class QubitBenchmark:
    """Everything measured for one benchmarked qubit."""

    qubit: int
    line: tuple[int, ...]
    rates: dict[str, RateEstimate]
    guides: dict[str, float]
    exposure_ns: dict[str, int]  # per encoding
    p0_estimate: float | None = None


@dataclass(frozen=True)
class BenchmarkReport:
    results: tuple[QubitBenchmark, ...]
    medians: dict[str, float]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # each qubit and rate entry copies its object's fields, their names the
        # JSON keys, and every container down to the numbers
        return {
            "schema": "synbench-report@1",
            "metadata": copy.deepcopy(self.metadata),
            "medians": dict(self.medians),
            "qubits": [
                {
                    **vars(r),
                    "line": list(r.line),
                    "rates": {key: {**vars(est)} for key, est in r.rates.items()},
                    "guides": dict(r.guides),
                    "exposure_ns": dict(r.exposure_ns),
                }
                for r in self.results
            ],
        }


def _median(values: list[float]) -> float:
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def aggregate_device(results: list[QubitBenchmark], metadata: dict | None = None) -> BenchmarkReport:
    """Assemble per-qubit estimates into a device report with medians.

    Medians are recomputed per rate key over the qubits that measured it.
    They are computed in Python by `np.median`'s rules (the mean of the
    central pair for an even count, nan if any estimate is nan), so that a
    run does not import `numpy.ma`.
    """
    if not results:
        raise ValueError("no benchmarked qubits to aggregate")
    ordered = tuple(sorted(results, key=lambda r: r.qubit))
    rate_keys = sorted({key for r in ordered for key in r.rates})
    medians = {key: _median([r.rates[key].estimate for r in ordered if key in r.rates]) for key in rate_keys}
    return BenchmarkReport(results=ordered, medians=medians, metadata=metadata or {})
