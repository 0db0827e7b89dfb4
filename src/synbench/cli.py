"""Benchmark orchestration and the `synbench` command line.

A run is described by one JSON config file; every field has a default so a
bare calibration path is enough. For each feasible qubit the pipeline picks
its line, builds one circuit per (encoding, logical value), walks each
encoding's circuits together for the exact distributions of their round-2
detector pair, samples each, extracts the round-2 idle rate, and aggregates
everything into a report (JSON + CSV) with device-map figures. Identical
config and seed give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .analysis import (
    BOOTSTRAP_RESAMPLES,
    RATES,
    BenchmarkReport,
    EstimationError,
    QubitBenchmark,
    RateEstimate,
    aggregate_device,
    detection_events,
    extract_idle_rates,
)
from .circuits import DD_SCOPES, ENCODINGS, build_repetition_circuit, idle_exposure
from .device import BenchLine, CalibrationError, DeviceCalibration, load_calibration, plan_device, warn_caller
from .noise import NoiseOptions, compile_noise, guide_values
from .render import render_device_map
from .simulator import compile_program, pair_distribution, run_shots

RATE_CSV_HEADER = ("qubit", "encoding", "rate_type", "estimate", "stderr", "guide", "exposure_ns")

# the multinomial draws each cell's count as an int64
MAX_SHOTS = 2**63 - 1


class ConfigError(ValueError):
    """Bad run configuration or calibration reference."""


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _flag_value(text: str):
    # a --seed or --shots flag is the JSON value it spells, checked by
    # RunConfig as a file value is; other text passes through to be refused
    try:
        return json.loads(text)
    except ValueError:
        return text


def _integer(name: str, value, minimum: int) -> int:
    """A JSON number with an integral value such as 1e5 counts as an
    integer; a bool or a fraction does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _distinct(name: str, values, allowed: tuple) -> None:
    # repr tells True and 1.0 from 1, and works on unhashable values
    names = [repr(v) for v in values] if isinstance(values, tuple) else []
    if not names or len(set(names)) < len(names) or not set(names) <= set(map(repr, allowed)):
        raise ConfigError(f"{name} must be one or more distinct values from {list(allowed)}, got {values!r}")


@dataclass(frozen=True)
class RunConfig:
    calibration: str
    shots: int = 20_000
    seed: int = 7
    encodings: tuple[str, ...] = ENCODINGS
    logical_values: tuple[int, ...] = (0, 1)
    dd_scope: str = "code_only"
    extra_delay_fraction: float = 0.125
    noise: NoiseOptions = field(default_factory=NoiseOptions)
    output_dir: str = "synbench_out"

    def __post_init__(self) -> None:
        if not isinstance(self.calibration, str) or not isinstance(self.output_dir, str):
            raise ConfigError("calibration and output_dir must be path strings")
        for name, minimum in (("shots", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if self.shots > MAX_SHOTS:
            raise ConfigError(f"shots must be at most 2**63 - 1, got {self.shots}")
        fraction = self.extra_delay_fraction
        if type(fraction) not in (int, float) or not 0 <= fraction < math.inf:
            raise ConfigError(f"extra_delay_fraction must be a finite number >= 0, got {fraction!r}")
        object.__setattr__(self, "extra_delay_fraction", float(fraction))
        _distinct("encodings", self.encodings, ENCODINGS)
        _distinct("logical_values", self.logical_values, (0, 1))
        if self.dd_scope not in DD_SCOPES:
            raise ConfigError(f"unknown dd_scope {self.dd_scope!r}")

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> RunConfig:
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "calibration" not in doc:
            raise ConfigError("config needs a 'calibration' path")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
        calibration = kwargs["calibration"]
        if base_dir is not None and isinstance(calibration, str) and not Path(calibration).is_absolute():
            kwargs["calibration"] = str(base_dir / calibration)
        if "noise" in doc:
            try:
                kwargs["noise"] = NoiseOptions.from_dict(doc["noise"])
            except ValueError as exc:
                raise ConfigError(f"bad noise options: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> RunConfig:
        path = Path(path)
        return cls.from_dict(_read_json(path, "config"), base_dir=path.parent)

    def describe(self) -> dict:
        return {
            "calibration": self.calibration,
            "shots": self.shots,
            "seed": self.seed,
            "encodings": list(self.encodings),
            "logical_values": list(self.logical_values),
            "dd_scope": self.dd_scope,
            "extra_delay_fraction": self.extra_delay_fraction,
            "noise": {**asdict(self.noise), "disable": sorted(self.noise.disable)},
            "version": __version__,
        }


def _extra_delay_ns(config: RunConfig, cal: DeviceCalibration, qubit: int, encoding: str) -> int:
    qc = cal.qubits[qubit]
    delay = config.extra_delay_fraction * (qc.t1_ns if encoding == "bit_flip" else qc.t2_ns)
    if not math.isfinite(delay):
        raise ConfigError(f"extra_delay_fraction {config.extra_delay_fraction!r} overflows qubit {qubit}'s delay")
    return int(round(delay))


def _combine(estimates: list[RateEstimate]) -> RateEstimate:
    if len(estimates) == 1:
        return estimates[0]
    mean = sum(e.estimate for e in estimates) / len(estimates)
    stderr = math.sqrt(sum(e.stderr**2 for e in estimates)) / len(estimates)
    shots = sum(e.shots for e in estimates)
    return RateEstimate(mean, stderr, shots, anticorrelated=any(e.anticorrelated for e in estimates))


def benchmark_qubit(
    qubit: int,
    line: BenchLine,
    cal: DeviceCalibration,
    noise,
    config: RunConfig,
    extra_delays: dict[str, int],
) -> QubitBenchmark:
    """The per-qubit pipeline: build, compile, walk, sample, and extract
    for every configured (encoding, logical value), with each encoding's
    extra delay from `extra_delays`; then report every `RATES` key whose
    encoding and some logical value were configured."""
    estimates: dict[tuple[str, int], RateEstimate] = {}
    exposures: dict[str, int] = {}
    predicted = {}
    dd = config.dd_scope != "none"
    for enc_idx, encoding in enumerate(config.encodings):
        extra = extra_delays[encoding]
        circuits = [
            build_repetition_circuit(line, cal, encoding, lv, extra_delay_ns=extra, dd_scope=config.dd_scope)
            for lv in config.logical_values
        ]
        # a qubit's logical values compile to programs of one structure,
        # walked together
        pis = pair_distribution(*(compile_program(circuit, noise) for circuit in circuits))
        for lv, pi in zip(config.logical_values, pis):
            shots = run_shots(pi, config.shots, seed=(config.seed, qubit, enc_idx, lv))
            try:
                est = extract_idle_rates(
                    detection_events(shots),
                    resamples=BOOTSTRAP_RESAMPLES,
                    seed=(config.seed, qubit, enc_idx, lv, 1),
                )
            except EstimationError as exc:
                # degenerate statistics (e.g. single-shot runs) stay in the
                # report at the model boundary rather than failing the device
                warn_caller(f"qubit {qubit} {encoding} logical {lv}: {exc}; recording 0.5")
                est = RateEstimate(0.5, 0.5, config.shots)
            estimates[encoding, lv] = est
        exposures[encoding] = idle_exposure(circuits[-1], qubit)
        predicted[encoding] = guide_values(cal, qubit, exposures[encoding], dd)
    rates: dict[str, RateEstimate] = {}
    guides: dict[str, float] = {}
    for key, (encoding, lvs) in RATES.items():
        measured = [estimates[encoding, lv] for lv in lvs if (encoding, lv) in estimates]
        if measured:
            rates[key] = _combine(measured)
            guides[key] = getattr(predicted[encoding], key)
    # the direction ratio identifies the equilibrium population, but only
    # when no echo pulses symmetrize the two directions
    p0_estimate = None
    if not dd and "p_0to1" in rates and "p_1to0" in rates:
        total = rates["p_0to1"].estimate + rates["p_1to0"].estimate
        if total > 0:
            p0_estimate = rates["p_1to0"].estimate / total
    return QubitBenchmark(qubit, line.qubits, rates, guides, exposures, p0_estimate)


def run_benchmark(config: RunConfig) -> tuple[BenchmarkReport, dict]:
    """Full device benchmark; writes report JSON, CSV, and figures under
    config.output_dir and returns (report, artifact paths)."""
    cal = load_calibration(Path(config.calibration))
    noise = compile_noise(cal, config.noise)
    plan = plan_device(cal)
    chosen = {q: line for q, line in plan.items() if line is not None}
    if not chosen:
        raise RuntimeError("no benchmarkable qubits on this device")
    # computed before the qubit loop, which re-raises any error as a runtime
    # error (exit 2)
    delays = {q: {enc: _extra_delay_ns(config, cal, q, enc) for enc in config.encodings} for q in chosen}
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    results = []
    for q, line in sorted(chosen.items()):
        try:
            results.append(benchmark_qubit(q, line, cal, noise, config, delays[q]))
        except Exception as exc:
            raise RuntimeError(f"qubit {q}: {exc}") from exc

    metadata = config.describe()
    metadata["device"] = cal.name
    report = aggregate_device(results, metadata)

    paths = {
        "report": out_dir / "report.json",
        "csv": out_dir / "report.csv",
        "rates_map": out_dir / "rates.svg",
        "calibration_map": out_dir / "calibration.svg",
    }
    _write(paths["report"], report_json(report))
    _write(paths["csv"], report_csv(report))
    _write(paths["rates_map"], render_device_map(report, cal, "rates"))
    _write(paths["calibration_map"], render_device_map(report, cal, "calibration"))
    return report, paths


def report_json(report: BenchmarkReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def report_csv(report: BenchmarkReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RATE_CSV_HEADER)
    for result in report.results:
        for key in sorted(result.rates):
            est = result.rates[key]
            encoding, _ = RATES[key]
            writer.writerow(
                (
                    result.qubit,
                    encoding,
                    key,
                    repr(est.estimate),
                    repr(est.stderr),
                    repr(result.guides.get(key, "")),
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
    if (args.config is None) == (args.cal is None):
        raise ConfigError("pass exactly one of --config FILE and --cal FILE")
    config = RunConfig.from_file(args.config) if args.config is not None else RunConfig(calibration=args.cal)
    overrides = {k: v for k, v in vars(args).items() if k in ("seed", "shots", "output_dir")}
    config = replace(config, **overrides)
    report, paths = run_benchmark(config)
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    for key in sorted(report.medians):
        print(f"median {key}: {100 * report.medians[key]:.2f}%")
    return 0


def _cmd_render(args) -> int:
    doc = _read_json(Path(args.report), "report")
    if not isinstance(doc, dict):
        raise ConfigError(f"report {args.report} is not a JSON object")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ConfigError(f"report {args.report}: metadata must be an object, got {metadata!r}")
    cal_path = args.cal or metadata.get("calibration")
    if not cal_path or not isinstance(cal_path, str):
        raise ConfigError(f"report {args.report} has no calibration path; pass --cal")
    cal = load_calibration(Path(cal_path))
    try:
        svg = render_device_map(doc, cal, args.mode)
    except ValueError as exc:
        raise ConfigError(f"report {args.report}: {exc}") from exc
    out = Path(args.out) if args.out else Path(args.report).with_suffix(f".{args.mode}.svg")
    _write(out, svg)
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
    p_run.add_argument("--cal", default=None, help="calibration JSON; runs with every default")
    p_run.add_argument("--seed", type=_flag_value, default=argparse.SUPPRESS, help="override the config seed")
    p_run.add_argument("--shots", type=_flag_value, default=argparse.SUPPRESS, help="override shots per circuit")
    p_run.add_argument("--output", dest="output_dir", default=argparse.SUPPRESS, help="override the output directory")

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
    except (ConfigError, CalibrationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return 2
