"""synbench: syndrome-derived idle error rates on simulated quantum devices.

Pipeline: plan benchmark lines on a device's coupling graph, build minimal
repetition-code syndrome circuits around each feasible qubit, sample them
under a calibration-derived stochastic noise model, and estimate per-qubit
idle bit-flip and phase-flip probabilities from detection-event correlations,
next to the analytic values their relaxation and dephasing times predict.

The root exports the run and what it reads and returns; the stages live in
their modules (`synbench.device`, `.noise`, `.circuits`, `.simulator`,
`.analysis`, `.render`).
"""

# defined before the imports: `cli` reads it
__version__ = "0.1.0"

from .analysis import BenchmarkReport, QubitBenchmark, RateEstimate  # noqa: E402
from .cli import ConfigError, RunConfig, run_benchmark  # noqa: E402
from .device import CalibrationError, load_calibration, plan_device  # noqa: E402
from .noise import NoiseOptions  # noqa: E402

__all__ = [
    "BenchmarkReport",
    "CalibrationError",
    "ConfigError",
    "NoiseOptions",
    "QubitBenchmark",
    "RateEstimate",
    "RunConfig",
    "load_calibration",
    "plan_device",
    "run_benchmark",
]
