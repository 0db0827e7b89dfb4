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
the 2x2 joint counts. The estimate is a number from counts alone; `RATES`
names each reported rate once, with the encoding that measures it and the
logical values whose estimates it averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .device import warn_caller

MIN_RECOMMENDED_SHOTS = 1000
BOOTSTRAP_RESAMPLES = 200

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


class AntiCorrelationError(EstimationError):
    """Anti-correlation stronger than the shared-fault model allows."""


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


def estimate_from_moments(v_i: float, v_j: float, joint: float) -> float:
    """Shared-fault probability from detector moments (exact inversion).

    Raises EstimationError when a detector mean reaches 1/2 (the model's
    denominator vanishes: broken data) and AntiCorrelationError when the
    covariance is more negative than the model allows (radicand <= 0). Small
    negative returns near p = 0 are ordinary sampling noise.
    """
    c = joint - v_i * v_j
    denom = (1.0 - 2.0 * v_i) * (1.0 - 2.0 * v_j)
    if denom <= 0.0:
        raise EstimationError(
            f"detector rates v_i={v_i:.4f}, v_j={v_j:.4f} reach 1/2; data is "
            "outside the fault model"
        )
    radicand = 1.0 + 4.0 * c / denom
    if radicand <= 0.0:
        raise AntiCorrelationError(
            f"covariance {c:.3e} exceeds the model's anti-correlation bound"
        )
    return 0.5 - 0.5 / math.sqrt(radicand)


def _bootstrap_values(counts: np.ndarray) -> np.ndarray:
    """estimate_from_moments over rows of (n00, n01, n10, n11) counts, in
    the same operation order, with failed resamples mapped to 0.5 (rate at
    1/2) or 0.0 (anti-correlated)."""
    total = counts.sum(axis=1).astype(np.float64)
    v_i = (counts[:, 2] + counts[:, 3]) / total
    v_j = (counts[:, 1] + counts[:, 3]) / total
    c = counts[:, 3] / total - v_i * v_j
    denom = (1.0 - 2.0 * v_i) * (1.0 - 2.0 * v_j)
    with np.errstate(divide="ignore", invalid="ignore"):
        radicand = 1.0 + 4.0 * c / denom
        values = np.where(radicand <= 0.0, 0.0, 0.5 - 0.5 / np.sqrt(radicand))
    return np.where(denom <= 0.0, 0.5, values)


def extract_idle_rates(counts: np.ndarray, *, resamples: int = BOOTSTRAP_RESAMPLES, seed=0) -> RateEstimate:
    """Central-qubit idle error rate: the shared-fault probability of the
    round-2 detector pair's joint counts (n00, n01, n10, n11), as
    `detection_events` returns them, with bootstrap SE."""
    counts = np.asarray(counts)
    if counts.shape != (4,):
        raise ValueError(f"counts must be the four cells (n00, n01, n10, n11), got shape {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
    if counts.min() < 0:
        raise ValueError(f"counts must be non-negative, got {counts.tolist()}")
    n = int(counts.sum())
    if n < 1:
        raise ValueError("counts hold no shots")
    if n < MIN_RECOMMENDED_SHOTS:
        warn_caller(f"only {n} shots for the round-2 detector pair; estimates will be noisy")
    total = float(n)
    v_i, v_j = (counts[2] + counts[3]) / total, (counts[1] + counts[3]) / total
    anticorrelated = False
    try:
        point = estimate_from_moments(v_i, v_j, counts[3] / total)
    except AntiCorrelationError:
        point = 0.0
        anticorrelated = True
    rng = np.random.default_rng(seed if isinstance(seed, int) else list(seed))
    resampled = rng.multinomial(n, counts / n, size=resamples)
    stderr = float(np.std(_bootstrap_values(resampled)))
    return RateEstimate(max(0.0, point), stderr, n, anticorrelated=anticorrelated)


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
        return {
            "schema": "synbench-report@1",
            "metadata": self.metadata,
            "medians": self.medians,
            "qubits": [
                {
                    "qubit": r.qubit,
                    "line": list(r.line),
                    "exposure_ns": r.exposure_ns,
                    "p0_estimate": r.p0_estimate,
                    "rates": {
                        key: {
                            "estimate": est.estimate,
                            "stderr": est.stderr,
                            "shots": est.shots,
                            "anticorrelated": est.anticorrelated,
                        }
                        for key, est in r.rates.items()
                    },
                    "guides": r.guides,
                }
                for r in self.results
            ],
        }


def aggregate_device(results: list[QubitBenchmark], metadata: dict | None = None) -> BenchmarkReport:
    """Assemble per-qubit estimates into a device report with medians.

    Medians use the usual even-count rule (mean of the central pair) and are
    recomputed per rate key over the qubits that measured it.
    """
    if not results:
        raise ValueError("no benchmarked qubits to aggregate")
    ordered = tuple(sorted(results, key=lambda r: r.qubit))
    rate_keys = sorted({key for r in ordered for key in r.rates})
    medians = {
        key: float(np.median([r.rates[key].estimate for r in ordered if key in r.rates]))
        for key in rate_keys
    }
    return BenchmarkReport(results=ordered, medians=medians, metadata=metadata or {})
