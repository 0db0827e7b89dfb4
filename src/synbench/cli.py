"""Benchmark orchestration and the `synbench` command line.

A run is one JSON config file, or the same fields in a library call, each
checked and normalised by `RunConfig`; every field has a default so a bare
calibration path is enough. A usage error exits 1 like any config error. The
pipeline picks each feasible qubit's line and runs in three stages over the
device: it builds one logical-0 circuit per (qubit, encoding) and compiles
it once for every configured logical value, qubit by qubit; one walk over
every program gives the exact distribution of each (encoding, logical
value) circuit's round-2 detector pair; then, qubit by qubit, it
samples each circuit, extracts the round-2 idle rates and assembles the qubit's
result. Everything aggregates into a report (JSON + CSV) with device-map
figures. Identical config and seed give byte-identical artifacts. The maps
are drawn before any file is written, because a map is the only artifact a
run can refuse, and `report.json` is streamed into its file by `json.dump`,
so no run holds the report's text.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

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
from .circuits import DD_SCOPES, ENCODINGS, build_repetition_circuit, idle_exposure, logical_prelude
from .device import BenchLine, CalibrationError, DeviceCalibration, json_float, load_calibration, plan_device, warn_caller
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


@contextlib.contextmanager
def _writing(path: Path):
    """`path` opened for UTF-8 text; failing to open or write it is a
    config error."""
    try:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write(path: Path, text: str) -> None:
    with _writing(path) as fp:
        fp.write(text)


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


def _distinct(name: str, values, allowed: tuple) -> tuple:
    # repr tells True and 1.0 from 1, and works on unhashable values
    names = [repr(v) for v in values] if isinstance(values, (list, tuple)) else []
    if not names or len(set(names)) < len(names) or not set(names) <= set(map(repr, allowed)):
        raise ConfigError(f"{name} must be one or more distinct values from {list(allowed)}, got {values!r}")
    return tuple(values)


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
        fraction = json_float(self.extra_delay_fraction)
        if not 0 <= fraction < math.inf:
            raise ConfigError(f"extra_delay_fraction must be a finite number >= 0, got {self.extra_delay_fraction!r}")
        object.__setattr__(self, "extra_delay_fraction", fraction)
        for name, allowed in (("encodings", ENCODINGS), ("logical_values", (0, 1))):
            object.__setattr__(self, name, _distinct(name, getattr(self, name), allowed))
        if self.dd_scope not in DD_SCOPES:
            raise ConfigError(f"unknown dd_scope {self.dd_scope!r}")
        if isinstance(self.noise, dict):
            try:
                object.__setattr__(self, "noise", NoiseOptions(**self.noise))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad noise options: {exc}") from exc
        if not isinstance(self.noise, NoiseOptions):
            raise ConfigError(f"bad noise options: expected an object, got {self.noise!r}")

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> RunConfig:
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if unknown := set(doc) - {f.name for f in fields(cls)}:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "calibration" not in doc:
            raise ConfigError("config needs a 'calibration' path")
        if base_dir is not None and isinstance(cal := doc["calibration"], str) and not Path(cal).is_absolute():
            doc = dict(doc, calibration=str(base_dir / cal))
        return cls(**doc)

    @classmethod
    def from_file(cls, path) -> RunConfig:
        path = Path(path)
        return cls.from_dict(_read_json(path, "config"), base_dir=path.parent)

    def describe(self) -> dict:
        doc = asdict(self)
        # relative to the report's directory, so the report does not depend on where its tree sits
        doc["calibration"] = os.path.relpath(self.calibration, doc.pop("output_dir"))
        doc["noise"]["disable"] = sorted(self.noise.disable)
        return {**doc, "version": __version__}


def _extra_delay_ns(config: RunConfig, cal: DeviceCalibration, qubit: int, encoding: str) -> int:
    qc = cal.qubits[qubit]
    delay = config.extra_delay_fraction * (qc.t1_ns if encoding == "bit_flip" else qc.t2_ns)
    if not math.isfinite(delay):
        raise ConfigError(f"extra_delay_fraction {config.extra_delay_fraction!r} overflows qubit {qubit}'s delay")
    return int(round(delay))


def _mean(values) -> float:
    return sum(values) / len(values)


def _combine(measured: list[tuple[RateEstimate, float]]) -> tuple[RateEstimate, float]:
    """The mean over the measured logical values, of their estimates and of
    their guides alike; its stderr is the mean's, for independent
    estimates. One logical value gives its estimate and guide unchanged."""
    estimates, guides = zip(*measured)
    stderr = math.sqrt(sum(e.stderr**2 for e in estimates)) / len(estimates)
    shots = sum(e.shots for e in estimates)
    anticorrelated = any(e.anticorrelated for e in estimates)
    mean = RateEstimate(_mean([e.estimate for e in estimates]), stderr, shots, anticorrelated=anticorrelated)
    return mean, _mean(guides)


def benchmark_qubit(
    qubit: int,
    line: BenchLine,
    cal: DeviceCalibration,
    config: RunConfig,
    cells: dict[tuple[str, int], np.ndarray],
    exposures: dict[str, int],
) -> QubitBenchmark:
    """One qubit's draw, estimate and assembly: sample and estimate each
    configured (encoding, logical value) from its exact `cells`, beside that
    circuit's guide over its encoding's `exposures`, then report every
    `RATES` key whose encoding and some logical value were configured,
    combining the estimates and the guides alike."""
    measured: dict[tuple[str, int], tuple[RateEstimate, float]] = {}
    dd = config.dd_scope != "none"
    for enc_idx, encoding in enumerate(config.encodings):
        for lv in config.logical_values:
            # one stream per circuit: its shots, then its bootstrap resamples
            rng = np.random.default_rng((config.seed, qubit, enc_idx, lv))
            shots = run_shots(cells[encoding, lv], config.shots, seed=rng)
            try:
                est = extract_idle_rates(detection_events(shots), resamples=BOOTSTRAP_RESAMPLES, seed=rng)
            except EstimationError as exc:
                # degenerate statistics (e.g. single-shot runs) stay in the
                # report at the model boundary rather than failing the device
                warn_caller(f"qubit {qubit} {encoding} logical {lv}: {exc}; recording 0.5")
                est = RateEstimate(0.5, 0.5, config.shots)
            measured[encoding, lv] = est, guide_values(cal, qubit, encoding, lv, exposures[encoding], dd)
    rates: dict[str, RateEstimate] = {}
    guides: dict[str, float] = {}
    for key, (encoding, lvs) in RATES.items():
        circuits = [measured[encoding, lv] for lv in lvs if (encoding, lv) in measured]
        if circuits:
            rates[key], guides[key] = _combine(circuits)
    # the direction ratio identifies the equilibrium population, but only
    # when no echo pulses symmetrize the two directions
    p0_estimate = None
    if not dd and "p_0to1" in rates and "p_1to0" in rates:
        total = rates["p_0to1"].estimate + rates["p_1to0"].estimate
        if total > 0:
            p0_estimate = rates["p_1to0"].estimate / total
    return QubitBenchmark(qubit, line.qubits, rates, guides, exposures, p0_estimate)


@contextlib.contextmanager
def _output_dir(path: Path):
    """Create `path` and its missing parents; if the block raises, remove
    the ones this made, leaf first, that are still empty."""
    try:
        created = [d for d in (path, *path.parents) if not d.exists()]
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    try:
        yield path
    except BaseException:
        for made in created:
            with contextlib.suppress(OSError):  # not empty
                made.rmdir()
        raise


def run_benchmark(config: RunConfig) -> tuple[BenchmarkReport, dict]:
    """Full device benchmark; writes report JSON, CSV, and figures under
    config.output_dir and returns (report, artifact paths)."""
    cal = load_calibration(Path(config.calibration))
    noise = compile_noise(cal, config.noise)
    plan = plan_device(cal)
    chosen = {q: line for q, line in sorted(plan.items()) if line is not None}
    if not chosen:
        raise RuntimeError("no benchmarkable qubits on this device")
    # computed before the qubit stages, which re-raise any error as a
    # runtime error (exit 2)
    delays = {q: {enc: _extra_delay_ns(config, cal, q, enc) for enc in config.encodings} for q in chosen}
    with _output_dir(Path(config.output_dir)) as out_dir:
        exposures: dict[int, dict[str, int]] = {q: {} for q in chosen}

        def programs():
            # one logical-0 circuit per (qubit, encoding), built and compiled
            # once for every logical value, qubit by qubit as the walk reads it
            for q, line in chosen.items():
                try:
                    preludes = tuple(logical_prelude(line, cal, lv, config.dd_scope) for lv in config.logical_values)
                    for encoding, extra in delays[q].items():
                        circuit = build_repetition_circuit(line, cal, encoding, 0, extra, config.dd_scope)
                        yield compile_program(circuit, noise, preludes)
                        exposures[q][encoding] = idle_exposure(circuit, q)
                except Exception as exc:
                    raise RuntimeError(f"qubit {q}: {exc}") from exc

        cells = iter(pair_distribution(programs()))
        results = []
        for q, line in chosen.items():
            mine = {(encoding, lv): next(cells) for encoding in config.encodings for lv in config.logical_values}
            try:
                results.append(benchmark_qubit(q, line, cal, config, mine, exposures[q]))
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
        doc = report.to_dict()
        # a map is the only artifact a run can refuse, so both are drawn before any file is written
        maps = {
            "rates_map": render_device_map(doc, cal, "rates"),
            "calibration_map": render_device_map(doc, cal, "calibration"),
        }
        report_json(doc, paths["report"])
        _write(paths["csv"], report_csv(report))
        for key, svg in maps.items():
            _write(paths[key], svg)
        return report, paths


def report_json(doc: dict, path: Path) -> None:
    """Write `json.dumps(doc, sort_keys=True, indent=2) + "\\n"` to `path`,
    streamed chunk by chunk so that the text is never held whole; a failed
    write is a `ConfigError`."""
    with _writing(path) as fp:
        json.dump(doc, fp, sort_keys=True, indent=2)
        fp.write("\n")


def report_csv(report: BenchmarkReport) -> str:
    # no field can hold a comma, quote or line break (ints, fixed names and
    # float reprs), so each row is its fields joined by commas
    rows = [",".join(RATE_CSV_HEADER)]
    for result in report.results:
        for key in sorted(result.rates):
            est = result.rates[key]
            encoding, _ = RATES[key]
            rows.append(
                f"{result.qubit},{encoding},{key},{est.estimate!r},{est.stderr!r},"
                f"{result.guides[key]!r},{result.exposure_ns[encoding]}"
            )
    return "\n".join(rows) + "\n"


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
    recorded = metadata.get("calibration")
    if not args.cal and (not recorded or not isinstance(recorded, str)):
        raise ConfigError(f"report {args.report} has no calibration path; pass --cal")
    # a report records its calibration relative to its own directory
    cal = load_calibration(Path(args.cal) if args.cal else Path(args.report).parent / recorded)
    try:
        svg = render_device_map(doc, cal, args.mode)
    except ValueError as exc:
        raise ConfigError(f"report {args.report}: {exc}") from exc
    out = Path(args.out) if args.out else Path(args.report).with_suffix(f".{args.mode}.svg")
    _write(out, svg)
    print(out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # each subcommand's parser is a _Parser too
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


# every character str.splitlines breaks at, as its escape, so that an error
# naming a path or device with a line break in it is still one line
_ESCAPED_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def main(argv=None) -> int:
    handlers = {"plan": _cmd_plan, "run": _cmd_run, "render": _cmd_render}
    # a shown warning is one line; filtering and recording stay as they were
    formatwarning, warnings.formatwarning = warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ConfigError, CalibrationError) as exc:
        print(f"config error: {str(exc).translate(_ESCAPED_LINE_BREAKS)}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"error: {str(exc).translate(_ESCAPED_LINE_BREAKS)}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning
