"""Benchmark orchestration and the `synbench` command line.

A run is described by one JSON config file; every field has a default so a
bare calibration path is enough. For each feasible qubit the pipeline picks
its line, builds one circuit per (encoding, logical value), samples it,
extracts the round-2 idle rate, and aggregates everything into a report
(JSON + CSV) with device-map figures. Identical config and seed give
byte-identical artifacts for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .analysis import (
    BenchmarkReport,
    EstimationError,
    QubitBenchmark,
    RateEstimate,
    aggregate_device,
    detection_events,
    extract_idle_rates,
)
from .circuits import build_repetition_circuit, idle_exposure
from .device import BenchLine, CalibrationError, DeviceCalibration, load_calibration, plan_device
from .noise import NoiseOptions, compile_noise, guide_values
from .render import render_device_map
from .simulator import run_shots

RATE_CSV_HEADER = ("qubit", "encoding", "rate_type", "estimate", "stderr", "guide", "exposure_ns")


class ConfigError(ValueError):
    """Bad run configuration or calibration reference."""


def _typed(doc: dict, key: str, default, convert):
    raw = doc.get(key, default)
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value for {key!r}: {raw!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    calibration: str
    shots: int = 20_000
    seed: int = 7
    rounds: int = 2
    encodings: tuple[str, ...] = ("bit_flip", "phase_flip")
    logical_values: tuple[int, ...] = (0, 1)
    dd_scope: str = "code_only"
    extra_delay_mode: str = "fraction"  # or "none"
    extra_delay_fraction: float = 0.125
    noise: NoiseOptions = field(default_factory=NoiseOptions)
    output_dir: str = "synbench_out"
    bootstrap_resamples: int = 200

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.rounds < 2:
            raise ConfigError("rounds must be >= 2")
        if self.extra_delay_mode not in ("fraction", "none"):
            raise ConfigError(f"unknown extra_delay mode {self.extra_delay_mode!r}")
        if self.extra_delay_fraction < 0:
            raise ConfigError("extra_delay fraction must be >= 0")
        bad = set(self.encodings) - {"bit_flip", "phase_flip"}
        if bad or not self.encodings:
            raise ConfigError(f"encodings must be a nonempty subset of bit_flip/phase_flip, got {self.encodings}")
        if set(self.logical_values) - {0, 1} or not self.logical_values:
            raise ConfigError(f"logical_values must be a nonempty subset of {{0, 1}}")
        if self.dd_scope not in ("none", "all_qubits", "code_only"):
            raise ConfigError(f"unknown dd_scope {self.dd_scope!r}")

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> RunConfig:
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "calibration", "shots", "seed", "rounds", "encodings", "logical_values",
            "dd_scope", "extra_delay", "noise", "output_dir", "bootstrap_resamples",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "calibration" not in doc:
            raise ConfigError("config needs a 'calibration' path")
        extra = doc.get("extra_delay", {"mode": "fraction", "fraction": 0.125})
        if isinstance(extra, str):
            extra = {"mode": extra}
        if not isinstance(extra, dict):
            raise ConfigError(f"extra_delay must be a mode name or an object, got {extra!r}")
        calibration = str(doc["calibration"])
        if base_dir is not None and not Path(calibration).is_absolute():
            calibration = str(base_dir / calibration)
        try:
            noise = NoiseOptions.from_dict(doc.get("noise", {}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad noise options: {exc}") from exc
        return cls(
            calibration=calibration,
            shots=_typed(doc, "shots", 20_000, int),
            seed=_typed(doc, "seed", 7, int),
            rounds=_typed(doc, "rounds", 2, int),
            encodings=_typed(doc, "encodings", ("bit_flip", "phase_flip"), lambda v: tuple(map(str, v))),
            logical_values=_typed(doc, "logical_values", (0, 1), lambda v: tuple(map(int, v))),
            dd_scope=str(doc.get("dd_scope", "code_only")),
            extra_delay_mode=str(extra.get("mode", "fraction")),
            extra_delay_fraction=_typed(extra, "fraction", 0.125, float),
            noise=noise,
            output_dir=str(doc.get("output_dir", "synbench_out")),
            bootstrap_resamples=_typed(doc, "bootstrap_resamples", 200, int),
        )

    @classmethod
    def from_file(cls, path) -> RunConfig:
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc, base_dir=path.parent)

    def describe(self) -> dict:
        return {
            "calibration": self.calibration,
            "shots": self.shots,
            "seed": self.seed,
            "rounds": self.rounds,
            "encodings": list(self.encodings),
            "logical_values": list(self.logical_values),
            "dd_scope": self.dd_scope,
            "extra_delay": {"mode": self.extra_delay_mode, "fraction": self.extra_delay_fraction},
            "noise": {
                "crosstalk_eta": self.noise.crosstalk_eta,
                "enable_crosstalk": self.noise.enable_crosstalk,
                "prep_error": self.noise.prep_error,
                "disable": sorted(self.noise.disable),
            },
            "version": __version__,
        }


def _extra_delay_ns(config: RunConfig, cal: DeviceCalibration, qubit: int, encoding: str) -> int:
    if config.extra_delay_mode == "none":
        return 0
    qc = cal.qubits[qubit]
    timescale = qc.t1_ns if encoding == "bit_flip" else qc.t2_ns
    return int(round(config.extra_delay_fraction * timescale))


def _combine(estimates: list[RateEstimate], rate_type: str) -> RateEstimate:
    if len(estimates) == 1:
        est = estimates[0]
        return RateEstimate(
            est.estimate, est.stderr, est.shots, est.detector_pair, rate_type,
            est.encoding, est.anticorrelated,
        )
    mean = sum(e.estimate for e in estimates) / len(estimates)
    stderr = math.sqrt(sum(e.stderr**2 for e in estimates)) / len(estimates)
    return RateEstimate(
        mean, stderr, sum(e.shots for e in estimates), estimates[0].detector_pair,
        rate_type, estimates[0].encoding, any(e.anticorrelated for e in estimates),
    )


def benchmark_qubit(
    qubit: int,
    line: BenchLine,
    cal: DeviceCalibration,
    noise,
    config: RunConfig,
) -> QubitBenchmark:
    """The per-qubit pipeline: build, sample, and extract for every
    configured (encoding, logical value)."""
    rates: dict[str, RateEstimate] = {}
    guides: dict[str, float] = {}
    exposures: dict[str, int] = {}
    dd = config.dd_scope != "none"
    for enc_idx, encoding in enumerate(config.encodings):
        extra = _extra_delay_ns(config, cal, qubit, encoding)
        estimates = []
        circuit = None
        for lv in config.logical_values:
            circuit = build_repetition_circuit(
                line,
                cal,
                encoding,
                lv,
                rounds=config.rounds,
                extra_delay_ns=extra,
                dd_scope=config.dd_scope,
            )
            shots = run_shots(circuit, noise, config.shots, seed=(config.seed, qubit, enc_idx, lv))
            try:
                est = extract_idle_rates(
                    circuit,
                    detection_events(circuit, shots),
                    resamples=config.bootstrap_resamples,
                    seed=(config.seed, qubit, enc_idx, lv, 1),
                )
            except EstimationError as exc:
                # degenerate statistics (e.g. single-shot runs) stay in the
                # report at the model boundary rather than failing the device
                warnings.warn(
                    f"qubit {qubit} {encoding} logical {lv}: {exc}; recording 0.5",
                    stacklevel=2,
                )
                rate_type = "p_phase" if encoding == "phase_flip" else ("p_1to0" if lv == 1 else "p_0to1")
                left_aux, right_aux = circuit.aux_qubits
                est = RateEstimate(
                    0.5, 0.5, config.shots, ((left_aux, 2), (right_aux, 2)), rate_type, encoding
                )
            estimates.append(est)
        exposure = idle_exposure(circuit, qubit)[0]
        exposures[encoding] = exposure
        g = guide_values(cal, qubit, exposure, dd)
        if encoding == "bit_flip":
            for est in estimates:
                rates[est.rate_type] = est
                guides[est.rate_type] = g.p_1to0 if est.rate_type == "p_1to0" else g.p_0to1
            rates["p_01"] = _combine(estimates, "p_01")
            guides["p_01"] = g.p_flip
        else:
            rates["p_phase"] = _combine(estimates, "p_phase")
            guides["p_phase"] = g.p_phase
    # the direction ratio identifies the equilibrium population, but only
    # when no echo pulses symmetrize the two directions
    p0_estimate = None
    if not dd and "p_0to1" in rates and "p_1to0" in rates:
        total = rates["p_0to1"].estimate + rates["p_1to0"].estimate
        if total > 0:
            p0_estimate = rates["p_1to0"].estimate / total
    return QubitBenchmark(
        qubit=qubit,
        line=line.qubits,
        rates=rates,
        guides=guides,
        exposure_ns=exposures,
        p0_estimate=p0_estimate,
    )


def default_workers() -> int:
    """Per-qubit worker count from SYNBENCH_WORKERS (default 1)."""
    value = os.environ.get("SYNBENCH_WORKERS", "1")
    if not value.strip().isdecimal() or int(value) < 1:
        raise ConfigError(f"SYNBENCH_WORKERS must be an integer >= 1, got {value!r}")
    return int(value)


def run_benchmark(config: RunConfig, workers: int | None = None) -> tuple[BenchmarkReport, dict]:
    """Full device benchmark; writes report JSON, CSV, and figures under
    config.output_dir and returns (report, artifact paths)."""
    workers = workers if workers is not None else default_workers()
    try:
        cal = load_calibration(Path(config.calibration))
    except OSError as exc:
        raise ConfigError(f"cannot read calibration {config.calibration}: {exc}") from exc
    noise = compile_noise(cal, config.noise)
    plan = plan_device(cal)
    chosen = {q: line for q, line in plan.items() if line is not None}
    if not chosen:
        raise RuntimeError("no benchmarkable qubits on this device")

    def task(item):
        q, line = item
        try:
            return benchmark_qubit(q, line, cal, noise, config)
        except Exception as exc:
            raise RuntimeError(f"qubit {q}: {exc}") from exc

    items = sorted(chosen.items())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, items))
    else:
        results = [task(item) for item in items]

    metadata = config.describe()
    metadata["device"] = cal.name
    report = aggregate_device(results, metadata)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out_dir / "report.json",
        "csv": out_dir / "report.csv",
        "rates_map": out_dir / "rates.svg",
        "calibration_map": out_dir / "calibration.svg",
    }
    paths["report"].write_text(report_json(report), encoding="utf-8")
    paths["csv"].write_text(report_csv(report), encoding="utf-8")
    paths["rates_map"].write_text(render_device_map(report, cal, "rates"), encoding="utf-8")
    paths["calibration_map"].write_text(
        render_device_map(report, cal, "calibration"), encoding="utf-8"
    )
    return report, paths


def report_json(report: BenchmarkReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def report_csv(report: BenchmarkReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RATE_CSV_HEADER)
    for result in report.results:
        for rate_type in sorted(result.rates):
            est = result.rates[rate_type]
            encoding = "phase_flip" if rate_type == "p_phase" else "bit_flip"
            writer.writerow(
                (
                    result.qubit,
                    encoding,
                    rate_type,
                    repr(est.estimate),
                    repr(est.stderr),
                    repr(result.guides.get(rate_type, "")),
                    result.exposure_ns.get(encoding, ""),
                )
            )
    return buffer.getvalue()


def _cmd_plan(args) -> int:
    cal = load_calibration(Path(args.cal))
    plan = plan_device(cal)
    print(f"device {cal.name}: {cal.qubit_count} qubits, {len(cal.edges)} cx edges")
    for q in range(cal.qubit_count):
        line = plan[q]
        if line is None:
            print(f"  q{q:<3d} -")
        else:
            path = "-".join(str(v) for v in line.qubits)
            print(
                f"  q{q:<3d} {path:<20s} max_cx_center={line.max_cx_center:.4f} "
                f"max_cx_all={line.max_cx_all:.4f}"
            )
    return 0


def _cmd_run(args) -> int:
    if args.config is None and args.cal is None:
        raise ConfigError("pass --config FILE or --cal FILE")
    if args.config is not None:
        config = RunConfig.from_file(args.config)
    else:
        config = RunConfig(calibration=args.cal)
    overrides = {"seed": args.seed, "shots": args.shots, "output_dir": args.output}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    report, paths = run_benchmark(config)
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    for rate_type in sorted(report.medians):
        print(f"median {rate_type}: {100 * report.medians[rate_type]:.2f}%")
    return 0


def _cmd_render(args) -> int:
    try:
        doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"report {args.report} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"report {args.report} is not a JSON object")
    cal_path = args.cal or doc.get("metadata", {}).get("calibration")
    if not cal_path:
        raise ConfigError("report has no calibration path; pass --cal")
    cal = load_calibration(Path(cal_path))
    svg = render_device_map(doc, cal, args.mode)
    out = Path(args.out) if args.out else Path(args.report).with_suffix(f".{args.mode}.svg")
    out.write_text(svg, encoding="utf-8")
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synbench",
        description="Syndrome-derived idle error rates on a simulated device.",
    )
    parser.add_argument("--version", action="version", version=f"synbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="show the benchmark line chosen for every qubit")
    p_plan.add_argument("--cal", required=True, help="calibration JSON file")

    p_run = sub.add_parser("run", help="run the full benchmark from a config file")
    p_run.add_argument("--config", default=None, help="run config JSON file")
    p_run.add_argument("--cal", default=None, help="calibration JSON; runs with all defaults")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--shots", type=int, default=None, help="override shots per circuit")
    p_run.add_argument("--output", default=None, help="override the output directory")

    p_render = sub.add_parser("render", help="draw a device map from a report")
    p_render.add_argument("--report", required=True, help="report JSON file")
    p_render.add_argument("--mode", choices=("rates", "calibration"), default="rates")
    p_render.add_argument("--cal", default=None, help="calibration JSON (default: from report)")
    p_render.add_argument("--out", default=None, help="output SVG path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"plan": _cmd_plan, "run": _cmd_run, "render": _cmd_render}
    try:
        return handlers[args.command](args)
    except (ConfigError, CalibrationError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
