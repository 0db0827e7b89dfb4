"""Stochastic error channels compiled from device calibration.

Idle channels follow the standard relaxation/dephasing picture, defined
once in `IdleChannel.channel`: over an idle time t in the Z basis, the two
bit-flip directions sum to 1 - exp(-t/T1) and split by the equilibrium
population p0; in the X basis both are the phase flip (1 - exp(-t/T2)) / 2
when echoed, over the shorter free-induction time T2* when not. A cx with
calibrated error rate eps applies one of the 15 non-identity two-qubit
Paulis uniformly at random with probability eps; readout flips the
recorded bit with the calibrated error.

Cross-talk is modeled phenomenologically: a relaxation event (1 -> 0) during
a delay inflicts a phase flip with probability eta, once per neighbour, at
the decay, on each line neighbour idling in the X basis during an
overlapping delay.

`NoiseOptions` checks the run's options, and `compile_noise` applies them
once: the `NoiseModel` it returns is only tables (each qubit's idle channel
and readout flip, each coupled pair's cx error, the preparation flip and
eta), with every disabled channel already zeroed.

`guide_values` is the T1/T2 prediction for one circuit, read from the
calibration alone; a run averages the guides over logical values as it
averages the estimates they guide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .device import DeviceCalibration, Edge, QubitCalibration, json_float

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

    def p_phaseflip(self, t_ns: float, echoed: bool) -> float:
        if t_ns <= 0:
            return 0.0
        timescale = self.t2_ns if echoed else self.t2_star_ns
        return -math.expm1(-t_ns / timescale) / 2.0

    def channel(self, t_ns: float, x_basis: bool, echoed: bool = False) -> tuple[float, float]:
        """One idle delay's (P(0->1), P(1->0)): the phase flip both ways in
        the X basis, the relaxation split by p0 in the Z basis."""
        if x_basis:
            p = self.p_phaseflip(t_ns, echoed)
            return p, p
        f = self.decay_fraction(t_ns)
        return (1.0 - self.p0) * f, self.p0 * f


@dataclass(frozen=True)
class NoiseOptions:
    """Knobs for controlled experiments; `disable`, any list, tuple or set of
    channel names, becomes a frozenset."""

    crosstalk_eta: float = 1.0
    prep_error: float = 0.0
    disable: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("crosstalk_eta", "prep_error"):
            value = getattr(self, name)
            if not 0.0 <= (number := json_float(value)) <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
            object.__setattr__(self, name, number)
        # `in` compares by equality, so an unhashable entry is refused too
        disable = self.disable
        if not isinstance(disable, (list, tuple, set, frozenset)) or not all(name in CHANNEL_NAMES for name in disable):
            raise ValueError(f"disable must be a list of names from {list(CHANNEL_NAMES)}, got {disable!r}")
        object.__setattr__(self, "disable", frozenset(disable))


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


def guide_values(
    cal: DeviceCalibration, qubit: int, encoding: str, logical_value: int, t_delay_ns: float, dd: bool
) -> float:
    """The T1/T2 prediction for one circuit's idle error over a delay of t,
    to set beside that circuit's estimate.

    The guide is the logical value's direction of the delay's
    `IdleChannel.channel`: the phase flip over T2 when echoed and T2* when
    not, or unechoed relaxation from rest, p0 * (1 - exp(-t/T1)) at logical
    1 and its p0-complement at logical 0. An echoed bit-flip state spends
    half the delay flipped, so both directions collapse onto the
    symmetrized 1 - exp(-(t/2)/T1). Every channel gives 0 for t <= 0.
    """
    ch = IdleChannel.of(cal.qubits[qubit])
    if dd and encoding == "bit_flip":
        return ch.decay_fraction(t_delay_ns / 2.0)
    return ch.channel(t_delay_ns, encoding == "phase_flip", dd)[logical_value]
