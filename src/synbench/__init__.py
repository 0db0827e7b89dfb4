"""synbench: syndrome-derived idle error rates on simulated quantum devices.

Pipeline: plan benchmark lines on a device's coupling graph, build minimal
repetition-code syndrome circuits around each feasible qubit, sample them
under a calibration-derived stochastic noise model, and estimate per-qubit
idle bit-flip and phase-flip probabilities from detection-event correlations,
next to the analytic values their relaxation and dephasing times predict.
"""

from .analysis import (
    AntiCorrelationError,
    BenchmarkReport,
    EstimationError,
    QubitBenchmark,
    RateEstimate,
    aggregate_device,
    detection_events,
    estimate_from_moments,
    extract_idle_rates,
)
from .circuits import (
    Circuit,
    CircuitBuildError,
    Instruction,
    build_repetition_circuit,
    idle_exposure,
)
from .device import (
    BenchLine,
    CalibrationError,
    DeviceCalibration,
    QubitCalibration,
    enumerate_lines,
    load_calibration,
    plan_device,
    select_line,
)
from .noise import (
    GuideValues,
    IdleChannel,
    NoiseModel,
    NoiseOptions,
    ZERO_NOISE_OPTIONS,
    compile_noise,
    guide_values,
)
from .simulator import BasisContractError

__version__ = "0.1.0"

__all__ = [
    "AntiCorrelationError",
    "BasisContractError",
    "BenchLine",
    "BenchmarkReport",
    "CalibrationError",
    "Circuit",
    "CircuitBuildError",
    "DeviceCalibration",
    "EstimationError",
    "GuideValues",
    "IdleChannel",
    "Instruction",
    "NoiseModel",
    "NoiseOptions",
    "QubitBenchmark",
    "QubitCalibration",
    "RateEstimate",
    "ZERO_NOISE_OPTIONS",
    "aggregate_device",
    "build_repetition_circuit",
    "compile_noise",
    "detection_events",
    "enumerate_lines",
    "estimate_from_moments",
    "extract_idle_rates",
    "guide_values",
    "idle_exposure",
    "load_calibration",
    "plan_device",
    "select_line",
]
