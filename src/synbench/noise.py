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

`compile_noise` applies the run's options once: the `NoiseModel` it returns
is only tables (each qubit's idle channel and readout flip, each coupled
pair's cx error, the preparation flip and eta), with every disabled channel
already zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .device import DeviceCalibration, Edge, QubitCalibration

CHANNEL_NAMES = ("cx", "readout", "relaxation", "dephasing", "crosstalk")


@dataclass(frozen=True)
class IdleChannel:
    """Idle-time error probabilities for one qubit (pure, mask-free)."""

    t1_ns: float
    t2_ns: float
    t2_star_ns: float
    p0: float

    @classmethod
    def of(cls, qc: QubitCalibration) -> IdleChannel:
        return cls(qc.t1_ns, qc.t2_ns, qc.t2_star_ns, qc.p0)

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
    prep_error: float = 0.0
    disable: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("crosstalk_eta", "prep_error"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
            object.__setattr__(self, name, float(value))
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


@dataclass(frozen=True)
class NoiseModel:
    """One device's channels as tables, read per instruction by
    `compile_program`: `idle` and `readout` indexed by qubit, `cx` by the
    ordered pair in both orders."""

    idle: tuple[IdleChannel, ...]
    cx: dict[Edge, float]
    readout: tuple[float, ...]
    prep: float
    crosstalk: float


def compile_noise(cal: DeviceCalibration, options: NoiseOptions | None = None) -> NoiseModel:
    """Bind calibration data to channels, applying the options once: the
    model is its tables. A disabled channel reads as 0, or for relaxation
    and dephasing as an infinite T1, or T2 and T2*, under which every
    probability the idle channel gives is exactly 0; a fully disabled model
    is the zero-noise model."""
    options = options or NoiseOptions()
    off = options.disable
    idle = tuple(
        IdleChannel(
            math.inf if "relaxation" in off else qc.t1_ns,
            math.inf if "dephasing" in off else qc.t2_ns,
            math.inf if "dephasing" in off else qc.t2_star_ns,
            qc.p0,
        )
        for qc in cal.qubits
    )
    cx = {}
    for (a, b), eps in cal.cx_error.items():
        cx[a, b] = cx[b, a] = 0.0 if "cx" in off else eps
    return NoiseModel(
        idle=idle,
        cx=cx,
        readout=tuple(0.0 if "readout" in off else qc.readout_error for qc in cal.qubits),
        prep=options.prep_error,
        crosstalk=0.0 if "crosstalk" in off else options.crosstalk_eta,
    )


@dataclass(frozen=True)
class GuideValues:
    """Analytic expectations for idle errors over a delay of t.

    Without echoing, relaxation acts on a resting state: p_1to0 = p0 * (1 -
    exp(-t/T1)) and p_0to1 its p0-complement, with p_01 their average (what
    a both-logical-values protocol measures). With echoing the state spends
    half the delay flipped, so both directions collapse onto the symmetrized
    1 - exp(-(t/2)/T1). The phase guide uses T2 when echoed and T2* when
    not. Each field is named as the report key it guides.
    """

    p_1to0: float
    p_0to1: float
    p_01: float
    p_phase: float


def guide_values(
    cal: DeviceCalibration, qubit: int, t_delay_ns: float, dd: bool
) -> GuideValues:
    ch = IdleChannel.of(cal.qubits[qubit])
    if t_delay_ns <= 0:
        return GuideValues(0.0, 0.0, 0.0, 0.0)
    if dd:
        sym = ch.decay_fraction(t_delay_ns / 2.0)
        p_1to0 = p_0to1 = p_01 = sym
    else:
        p_1to0 = ch.p_1to0(t_delay_ns)
        p_0to1 = ch.p_0to1(t_delay_ns)
        p_01 = 0.5 * (p_1to0 + p_0to1)
    return GuideValues(
        p_1to0=p_1to0,
        p_0to1=p_0to1,
        p_01=p_01,
        p_phase=ch.p_phaseflip(t_delay_ns, echoed=dd),
    )
