"""Stochastic error channels compiled from device calibration.

Idle channels follow the standard relaxation/dephasing picture: over an idle
time t, the two bit-flip directions sum to 1 - exp(-t/T1) and split according
to the equilibrium population p0, while the phase-flip probability is
(1 - exp(-t/T2)) / 2 for echoed idles and uses the shorter free-induction
time T2* when no echo is present. A cx with calibrated error rate eps applies
one of the 15 non-identity two-qubit Paulis uniformly at random with
probability eps; readout flips the recorded bit with the calibrated error.

Cross-talk is modeled phenomenologically: a relaxation event (1 -> 0) during
a delay segment inflicts a phase flip with probability eta on each coupled
neighbor that is idling in the X basis during an overlapping segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .device import DeviceCalibration, Edge, canonical_edge

CHANNEL_NAMES = ("cx", "readout", "relaxation", "dephasing", "crosstalk")


@dataclass(frozen=True)
class IdleChannel:
    """Idle-time error probabilities for one qubit (pure, mask-free)."""

    t1_ns: float
    t2_ns: float
    t2_star_ns: float
    p0: float

    def decay_fraction(self, t_ns: float) -> float:
        """Total relaxation weight 1 - exp(-t/T1); both flip directions sum
        to this."""
        if t_ns <= 0:
            return 0.0
        return -math.expm1(-t_ns / self.t1_ns)

    def p_1to0(self, t_ns: float) -> float:
        return self.p0 * self.decay_fraction(t_ns)

    def p_0to1(self, t_ns: float) -> float:
        return (1.0 - self.p0) * self.decay_fraction(t_ns)

    def p_phaseflip(self, t_ns: float, echoed: bool) -> float:
        if t_ns <= 0:
            return 0.0
        timescale = self.t2_ns if echoed else self.t2_star_ns
        return -math.expm1(-t_ns / timescale) / 2.0


@dataclass(frozen=True)
class NoiseOptions:
    """Knobs for controlled experiments; `disable` names whole channels."""

    crosstalk_eta: float = 1.0
    enable_crosstalk: bool = True
    prep_error: float = 0.0
    disable: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("crosstalk_eta", "prep_error"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.enable_crosstalk, bool):
            raise ValueError(f"enable_crosstalk must be true or false, got {self.enable_crosstalk!r}")
        if not isinstance(self.disable, frozenset) or not self.disable <= set(CHANNEL_NAMES):
            raise ValueError(
                f"disable must be a list of names from {list(CHANNEL_NAMES)}, got {self.disable!r}"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> NoiseOptions:
        keys = {f.name for f in fields(cls)}
        if not isinstance(doc, dict) or not set(doc) <= keys:
            raise ValueError(f"expected an object with keys from {sorted(keys)}, got {doc!r}")
        disable = doc.get("disable")
        if isinstance(disable, list) and all(isinstance(name, str) for name in disable):
            doc = dict(doc, disable=frozenset(disable))
        return cls(**doc)


ZERO_NOISE_OPTIONS = NoiseOptions(
    enable_crosstalk=False, disable=frozenset(CHANNEL_NAMES)
)


@dataclass(frozen=True)
class NoiseModel:
    """Per-instruction channels for one device, immutable after compilation.

    All accessors apply the disable masks, so a fully masked model is the
    zero-noise model.
    """

    channels: dict[int, IdleChannel]
    cx_errors: dict[Edge, float]
    readout_errors: dict[int, float]
    prep_error: float = 0.0
    crosstalk_eta: float = 1.0
    crosstalk_enabled: bool = True
    disabled: frozenset[str] = frozenset()

    def _on(self, name: str) -> bool:
        return name not in self.disabled

    def cx_error(self, a: int, b: int) -> float:
        if not self._on("cx"):
            return 0.0
        return self.cx_errors[canonical_edge(a, b)]

    def readout_flip(self, qubit: int) -> float:
        if not self._on("readout"):
            return 0.0
        return self.readout_errors[qubit]

    def preparation_flip(self) -> float:
        return self.prep_error

    def relax_probs(self, qubit: int, t_ns: float) -> tuple[float, float]:
        """(p_1to0, p_0to1) over an idle of t_ns."""
        if not self._on("relaxation"):
            return (0.0, 0.0)
        ch = self.channels[qubit]
        return (ch.p_1to0(t_ns), ch.p_0to1(t_ns))

    def dephase_prob(self, qubit: int, t_ns: float, echoed: bool) -> float:
        if not self._on("dephasing"):
            return 0.0
        return self.channels[qubit].p_phaseflip(t_ns, echoed)

    def crosstalk(self) -> float:
        if not self.crosstalk_enabled or not self._on("crosstalk"):
            return 0.0
        return self.crosstalk_eta


def compile_noise(cal: DeviceCalibration, options: NoiseOptions | None = None) -> NoiseModel:
    """Deterministically bind calibration data to channels."""
    options = options or NoiseOptions()
    channels = {
        q: IdleChannel(
            t1_ns=qc.t1_ns, t2_ns=qc.t2_ns, t2_star_ns=qc.t2_star_ns, p0=qc.p0
        )
        for q, qc in enumerate(cal.qubits)
    }
    return NoiseModel(
        channels=channels,
        cx_errors=dict(cal.cx_error),
        readout_errors={q: qc.readout_error for q, qc in enumerate(cal.qubits)},
        prep_error=options.prep_error,
        crosstalk_eta=options.crosstalk_eta,
        crosstalk_enabled=options.enable_crosstalk,
        disabled=options.disable,
    )


@dataclass(frozen=True)
class GuideValues:
    """Analytic expectations for idle errors over a delay of t.

    Without echoing, relaxation acts on a resting state: p_1to0 = p0 * (1 -
    exp(-t/T1)) and p_0to1 its p0-complement, with p_flip their average (what
    a both-logical-values protocol measures). With echoing the state spends
    half the delay flipped, so both directions collapse onto the symmetrized
    1 - exp(-(t/2)/T1). The phase guide uses T2 when echoed and T2* when not.
    """

    p_1to0: float
    p_0to1: float
    p_flip: float
    p_phase: float


def guide_values(
    cal: DeviceCalibration, qubit: int, t_delay_ns: float, dd: bool
) -> GuideValues:
    qc = cal.qubits[qubit]
    ch = IdleChannel(qc.t1_ns, qc.t2_ns, qc.t2_star_ns, qc.p0)
    if t_delay_ns <= 0:
        return GuideValues(0.0, 0.0, 0.0, 0.0)
    if dd:
        sym = ch.decay_fraction(t_delay_ns / 2.0)
        p_1to0 = p_0to1 = p_flip = sym
    else:
        p_1to0 = ch.p_1to0(t_delay_ns)
        p_0to1 = ch.p_0to1(t_delay_ns)
        p_flip = 0.5 * (p_1to0 + p_0to1)
    return GuideValues(
        p_1to0=p_1to0,
        p_0to1=p_0to1,
        p_flip=p_flip,
        p_phase=ch.p_phaseflip(t_delay_ns, echoed=dd),
    )
