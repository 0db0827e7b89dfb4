"""synbench's benchmark: closed-loop device runs, timed from outside.

    python3 bench/run.py --workload falcon27_default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, one child process each

One run of a workload, in one process:

1. writes the workload's calibration and config from the seed;
2. with `--trace 0`, times `setup_s` in fresh interpreters (import, config,
   calibration load);
3. makes one untimed warm-up call of `synbench.cli.run_benchmark`, whose
   report is the reference for every later call;
4. calls `run_benchmark` in a closed loop, each call starting when the last
   returned, for `--seconds`; with `--trace 1`, untraced calls alternate
   with traced ones, which give the per-layer metrics;
5. makes one more untimed call at the other worker count (1 vs 2);
6. gates every report and prints the metrics; the last line is one JSON
   object with `correct`, `attempted`, `failed` and `metrics`.

Timings are medians over the calls, of wall time scaled by a reference
kernel (see REFERENCE_SECONDS); the raw wall-time medians are printed too.
`attempted` counts circuits (qubits x encodings x logical values, per call).
A circuit fails when its estimate fell back to 0.5 +- 0.5, when its qubit
task raised, or when its call failed the correctness gate. The command exits
1 when anything failed, and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# On a shared virtual machine, wall time drifts by up to 2x over tens of
# seconds as neighbours load the host, and no process-local clock sees it
# (CPU time drifts with wall time; steal time stays 0). Timings are
# therefore reported as wall time scaled by a reference kernel timed just
# before and just after each call, in as many threads as the call uses:
# scaled = wall * REFERENCE_SECONDS[threads] / reference time. The constants
# are the fastest kernel times seen on an idle 2-vCPU KVM guest (Xeon,
# 2.1 GHz), so scaled times read as that machine's idle wall times. Across
# five seeds, the quartile spread of run_s medians fell from 0.08-0.19 for
# wall time to 0.03-0.08 for scaled time.
REFERENCE_ROUNDS = 3000
REFERENCE_SECONDS = {1: 0.078, 2: 0.052}
SETUP_REPEATS = 9
MIN_CALLS = 3
# Device medians must sit within ABS + REL * guide of the guide medians. The
# estimator's bias and sampling noise stay far inside this on every workload
# (worst seen: unechoed p_0to1 on hh129_lowshot, 0.009 against 0.003); a
# broken channel or a lost factor of 2 does not.
MEDIAN_ABS_TOL = 0.01
MEDIAN_REL_TOL = 0.25
# p_01 and p_phase combine both logical values, so they carry twice the shots
COMBINED_RATES = {"p_01", "p_phase"}
FALLBACK_WARNING = "recording 0.5"

SETUP_CODE = """
import sys, time
start = time.perf_counter()
import synbench.cli as cli
from pathlib import Path
config = cli.RunConfig.from_file(sys.argv[1])
cli.load_calibration(Path(config.calibration))
print(repr(time.perf_counter() - start))
"""

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def environment() -> dict:
    """What a result set was measured on; a checkout outside git has no
    rev, so the sources' hash identifies the code too."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "synbench").rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def _reference_kernel(rounds: int) -> None:
    rng = np.random.default_rng(0)
    bits = np.zeros((5, 8192), dtype=bool)
    for k in range(rounds):
        bits[k % 5] ^= rng.random(8192) < 0.01
        table = {}
        for j in range(20):
            table[j] = (j, k)


def reference_seconds(threads: int) -> float:
    """Time of a fixed kernel of the benchmark's own that mixes small numpy
    operations with interpreter work, as synbench does, split over
    `threads` threads. It measures how fast the machine is right now;
    synbench's code never runs in it."""
    start = time.perf_counter()
    if threads == 1:
        _reference_kernel(REFERENCE_ROUNDS)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_reference_kernel, [REFERENCE_ROUNDS // threads] * threads))
    return time.perf_counter() - start


class Timings:
    """Wall times of repeated calls, each also scaled by the reference
    kernel timed just before and just after it."""

    def __init__(self, threads: int):
        self.threads = threads
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float, ref_before: float, ref_after: float) -> None:
        self.wall.append(seconds)
        self.scaled.append(seconds * REFERENCE_SECONDS[self.threads] / ((ref_before + ref_after) / 2))


def measure_setup(config_path: Path) -> Timings:
    """`setup_s`, the fixed cost of every synbench invocation, timed in
    fresh interpreters: `import synbench.cli`, the config, the calibration."""
    src = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src)))
    cmd = [sys.executable, "-c", SETUP_CODE, str(config_path)]
    times = Timings(1)
    # the first interpreter may write bytecode caches; it is not counted
    subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120, check=True)
    ref = reference_seconds(1)
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        after = reference_seconds(1)
        times.add(float(out.stdout.strip().splitlines()[-1]), ref, after)
        ref = after
    return times


class Gate:
    """Correctness checks over every report of one workload run. The first
    report is the reference that every later one must equal byte for byte;
    the checks themselves never pin a particular RNG stream."""

    def __init__(self, config, planned: list[int], workers: int):
        self.config = config
        self.workers = workers
        self.planned = planned
        self.reference: bytes | None = None
        self.circuits = len(planned) * len(config.encodings) * len(config.logical_values)
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}  # problem -> calls that had it

    def problems_in(self, doc: dict) -> list[str]:
        shots = self.config.shots
        found = []
        if doc["metadata"]["shots"] != shots:
            found.append(f"metadata shots {doc['metadata']['shots']} != {shots}")
        qubits = [entry["qubit"] for entry in doc["qubits"]]
        if qubits != self.planned:
            found.append(f"report qubits {qubits} != planned {self.planned}")
        guides: dict[str, list[float]] = {}
        for entry in doc["qubits"]:
            for key, rate in entry["rates"].items():
                where = f"q{entry['qubit']} {key}"
                want = shots * (len(self.config.logical_values) if key in COMBINED_RATES else 1)
                if rate["shots"] != want:
                    found.append(f"{where}: shots {rate['shots']} != {want}")
                if not (math.isfinite(rate["estimate"]) and 0.0 <= rate["estimate"] <= 0.5):
                    found.append(f"{where}: estimate {rate['estimate']} outside [0, 0.5]")
                if not (math.isfinite(rate["stderr"]) and rate["stderr"] > 0.0):
                    found.append(f"{where}: stderr {rate['stderr']} not finite and > 0")
                guides.setdefault(key, []).append(entry["guides"][key])
        for key, values in guides.items():
            guide = statistics.median(values)
            got = doc["medians"][key]
            if not abs(got - guide) <= MEDIAN_ABS_TOL + MEDIAN_REL_TOL * guide:
                found.append(f"median {key} {got:.5f} too far from guide median {guide:.5f}")
        return found

    def fail(self, problem: str, circuits: int | None = None) -> None:
        self.problems[problem] = self.problems.get(problem, 0) + 1
        self.failed += self.circuits if circuits is None else circuits

    def call(self, cli, config) -> float | None:
        """One closed-loop `run_benchmark` call, timed and then checked;
        returns its seconds, or None when it raised."""
        self.attempted += self.circuits
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                start = time.perf_counter()
                cli.run_benchmark(config)
                seconds = time.perf_counter() - start
            except Exception as exc:  # a raising qubit task fails the whole call
                self.fail(f"run_benchmark raised {type(exc).__name__}: {exc}")
                return None
        report = (Path(config.output_dir) / "report.json").read_bytes()
        if self.reference is None:
            self.reference = report
        found = [] if report == self.reference else ["report.json differs from the first call's"]
        found += self.problems_in(json.loads(report))
        for problem in found:
            self.fail(problem, 0)
        fallbacks = sum(1 for w in caught if FALLBACK_WARNING in str(w.message))
        if found:
            self.failed += self.circuits
        elif fallbacks:
            self.fail(f"{fallbacks} circuits fell back to 0.5 +- 0.5", fallbacks)
        return seconds

    def loop(self, cli, config, seconds: float, trace: bool) -> tuple[Timings, Timings, list]:
        """Closed loop: each call starts when the last returned, until
        `seconds` have passed and at least MIN_CALLS calls were made. With
        `trace`, untraced calls alternate with traced ones, each of these
        under a fresh Tracer; returns (untraced, traced, tracers)."""
        plain, traced, tracers = Timings(self.workers), Timings(self.workers), []
        kinds = [(plain, False), (traced, True)] if trace else [(plain, False)]
        deadline = time.perf_counter() + seconds
        ref = reference_seconds(self.workers)
        while len(traced.wall if trace else plain.wall) < MIN_CALLS or time.perf_counter() < deadline:
            for times, traced_call in kinds:
                if traced_call:
                    tracers.append(tracing.Tracer())
                    with tracers[-1].installed():
                        t = self.call(cli, config)
                else:
                    t = self.call(cli, config)
                after = reference_seconds(self.workers)
                if t is None:
                    del tracers[len(traced.wall):]
                    return plain, traced, tracers
                times.add(t, ref, after)
                ref = after
        return plain, traced, tracers


def describe(times: Timings) -> str:
    def spread(values: list[float]) -> str:
        if len(values) < 2:
            return f"median {statistics.median(values):.4f}"
        q1, median, q3 = statistics.quantiles(values, n=4)
        return f"median {median:.4f} (q1 {q1:.4f}, q3 {q3:.4f})"

    if not times.wall:
        return "no calls"
    return f"n={len(times.wall)} calls; scaled {spread(times.scaled)}; wall {spread(times.wall)}"


def unit_of(key: str) -> str:
    if key in END_TO_END_UNITS:
        return END_TO_END_UNITS[key]
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    return "ratio" if key.endswith("_util") else "count"


def traced_metrics(gate: Gate, tracers: list, traced: Timings, untraced: Timings, workers: int) -> dict:
    """Per-layer metrics over the traced calls: medians of the timings,
    and counts that must repeat exactly from call to call."""
    runs = [tracing.layer_metrics(t.spans, workers) for t in tracers]
    metrics = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if unit_of(key) != "count":
            metrics[key] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[key] = values[0]
        else:
            gate.fail(f"count {key} differs between traced calls: {values}")
    if workers == 1:
        # coverage: every span's self time, the root's included, must add up
        # to the call's wall time, so no blocking step goes unattributed
        for t, seconds in zip(tracers, traced.wall):
            gap = tracing.unattributed_seconds(t.spans)
            if abs(gap) > 1e-3 * seconds:
                gate.fail(f"spans leave {gap:.6f} s of a {seconds:.6f} s call unattributed")
    metrics["trace.overhead_s"] = statistics.median(traced.scaled) - statistics.median(untraced.scaled)
    metrics["trace.spans"] = len(tracers[0].spans)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import synbench.cli as cli
    from synbench.device import load_calibration, plan_device

    workload = WORKLOADS[name]
    env = environment()
    work = ROOT / ".bench_out" / name / f"seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    config_path = workload.prepare(ROOT, seed, work)
    os.environ["SYNBENCH_WORKERS"] = str(workload.workers)
    config = cli.RunConfig.from_file(config_path)
    plan = plan_device(load_calibration(Path(config.calibration)))
    gate = Gate(config, sorted(q for q, line in plan.items() if line is not None), workload.workers)

    setup_times = None if trace else measure_setup(config_path)
    gate.call(cli, config)  # warm-up and reference report, untimed
    run_times, traced_times, tracers = gate.loop(cli, config, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the report must not depend on the worker count: one untimed call at the other
    os.environ["SYNBENCH_WORKERS"] = str(1 if workload.workers > 1 else 2)
    gate.call(cli, config)
    os.environ["SYNBENCH_WORKERS"] = str(workload.workers)

    lines = [f"run_s: {describe(run_times)}"]
    metrics: dict[str, float] = {}
    if trace and traced_times.wall:
        metrics = traced_metrics(gate, tracers, traced_times, run_times, workload.workers)
        metrics["workload.qubits"] = len(gate.planned)
        metrics["workload.circuits"] = gate.circuits
        lines.append(f"traced run_s: {describe(traced_times)}")
        lines.append(f"cli.pool_util base: cli.qubit_task_s / (cli.pool_wall_s x {workload.workers} workers)")
        (work / "spans.json").write_text(
            json.dumps([tracing.spans_json(t.spans) for t in tracers]), encoding="utf-8"
        )
    elif not trace and run_times.wall:
        metrics = {
            "run_s": statistics.median(run_times.scaled),
            "setup_s": statistics.median(setup_times.scaled),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - gate.failed / gate.attempted,
        }
        lines.append(f"setup_s: {describe(setup_times)}")

    correct = not gate.problems
    env["loadavg_after"] = os.getloadavg()
    env.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), workers=workload.workers,
               benchmarkable_qubits=len(gate.planned))
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({**result, "environment": env}, indent=2), encoding="utf-8")
    for problem, calls in gate.problems.items():
        print(f"FAIL {name}: {problem} (in {calls} calls)")
    print(f"env: {json.dumps(env)}")
    for line in lines:
        print(f"{name} {line}")
    print(f"{name} fail_frac = {gate.failed / gate.attempted:.6g} ({gate.failed} of {gate.attempted} circuits)")
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit_of(key)}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, so that no workload's peak
    memory hides another's; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAIL {name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        status = status or proc.returncode
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "synbench" / "__init__.py").is_file():
        print(f"no synbench sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
