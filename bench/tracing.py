"""Outside-in tracing of a synbench run.

The tracer replaces the public functions of each `synbench` module with
timing wrappers, at every module that binds them (the defining module, the
modules that import the name, and the package itself), so calls made through
any of those names are recorded. Nothing under `src/` changes. Spans are
kept in memory and turned into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (layer, defining module, function) for every wrapped function. A span's
# count, when it has one, is derived from the call's arguments or result.
TRACED = (
    ("cli", "synbench.cli", "run_benchmark"),
    ("cli", "synbench.cli", "benchmark_qubit"),
    ("cli", "synbench.cli", "report_json"),
    ("cli", "synbench.cli", "report_csv"),
    ("device", "synbench.device", "load_calibration"),
    ("device", "synbench.device", "plan_device"),
    ("device", "synbench.device", "enumerate_lines"),
    ("noise", "synbench.noise", "compile_noise"),
    ("noise", "synbench.noise", "guide_values"),
    ("circuits", "synbench.circuits", "build_repetition_circuit"),
    ("circuits", "synbench.circuits", "idle_exposure"),
    ("simulator", "synbench.simulator", "run_shots"),
    ("simulator", "synbench.simulator", "compile_program"),
    ("analysis", "synbench.analysis", "detection_events"),
    ("analysis", "synbench.analysis", "extract_idle_rates"),
    ("analysis", "synbench.analysis", "aggregate_device"),
    ("render", "synbench.render", "render_device_map"),
)
ROOT_SPAN = "run_benchmark"


def _resamples(sig: inspect.Signature, args, kwargs, result) -> int:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments["resamples"])


COUNTS = {
    "enumerate_lines": lambda sig, args, kwargs, result: len(result),
    "build_repetition_circuit": lambda sig, args, kwargs, result: len(result.instructions),
    "compile_program": lambda sig, args, kwargs, result: len(result.ops),
    "run_shots": lambda sig, args, kwargs, result: int(result.shape[0]),
    "extract_idle_rates": _resamples,
}


@dataclass
class Span:
    name: str
    layer: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None  # index into Tracer.spans
    thread: int = 0
    count: int | None = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Tracer:
    """Collects spans; a span's parent is the innermost open span of its
    thread, or the open root span for work handed to a pool thread."""

    spans: list[Span] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)
    _root: int | None = None

    def wrap(self, layer: str, name: str, fn):
        sig = inspect.signature(fn)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            span = Span(name, layer, 0, parent=parent, thread=threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            if name == ROOT_SPAN:
                self._root = index
            stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                if name == ROOT_SPAN:
                    self._root = None
            if count is not None:
                span.count = count(sig, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED function at each synbench module that binds
        it; the originals are restored on exit."""
        patches = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "synbench" or n.startswith("synbench.")]
        for layer, home, name in TRACED:
            original = getattr(sys.modules.get(home), name, None)
            if original is None:
                raise LookupError(f"{home}.{name} is gone; update TRACED in bench/tracing.py")
            wrapper = self.wrap(layer, name, original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    patches.append((module, name, original))
                    setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, original in reversed(patches):
                setattr(module, name, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans
    cover (children in other threads may overlap each other)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(i, ()), key=lambda s: s.start_ns):
            lo, hi = max(child.start_ns, cursor), min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end_ns - span.start_ns - covered) / 1e9)
    return out


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (`_s` are summed seconds, the
    rest exact counts)."""
    selfs = self_seconds(spans)

    def total(*names: str) -> float:
        return sum(s.seconds for s in spans if s.name in names)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def counted(name: str) -> int:
        return sum(s.count or 0 for s in spans if s.name == name)

    tasks = [s for s in spans if s.name == "benchmark_qubit"]
    pool_wall = (max(s.end_ns for s in tasks) - min(s.start_ns for s in tasks)) / 1e9
    sample_s = sum(t for s, t in zip(spans, selfs) if s.name == "run_shots")
    return {
        "device.load_s": total("load_calibration"),
        "device.plan_s": total("plan_device"),
        "device.lines": counted("enumerate_lines"),
        "noise.compile_s": total("compile_noise"),
        "circuits.build_s": total("build_repetition_circuit"),
        "circuits.builds": calls("build_repetition_circuit"),
        "circuits.instructions": counted("build_repetition_circuit"),
        "simulator.compile_s": total("compile_program"),
        "simulator.compiles": calls("compile_program"),
        "simulator.ops": counted("compile_program"),
        "simulator.sample_s": sample_s,
        "simulator.shots": counted("run_shots"),
        "simulator.shots_per_s": counted("run_shots") / sample_s,
        "analysis.detect_s": total("detection_events"),
        "analysis.estimate_s": total("extract_idle_rates"),
        "analysis.resamples": counted("extract_idle_rates"),
        "analysis.fallbacks": sum(1 for s in spans if s.name == "extract_idle_rates" and s.error),
        "analysis.aggregate_s": total("aggregate_device"),
        "render.map_s": total("render_device_map"),
        "cli.qubit_task_s": total("benchmark_qubit"),
        "cli.serialize_s": total("report_json", "report_csv"),
        "cli.self_s": sum(t for s, t in zip(spans, selfs) if s.name == ROOT_SPAN),
        "cli.pool_wall_s": pool_wall,
        "cli.pool_util": total("benchmark_qubit") / (pool_wall * workers),
    }


def unattributed_seconds(spans: list[Span]) -> float:
    """Root wall time minus the sum of every span's self time. In a run
    without a thread pool spans nest, so this is zero up to rounding unless
    a span escapes its parent or overlaps a sibling."""
    root = [s for s in spans if s.name == ROOT_SPAN]
    return sum(s.seconds for s in root) - sum(self_seconds(spans))


def spans_json(spans: list[Span]) -> list[dict]:
    threads: dict[int, int] = {}
    return [
        {
            "name": s.name,
            "layer": s.layer,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "parent": s.parent,
            "thread": threads.setdefault(s.thread, len(threads)),
            "count": s.count,
            "error": s.error,
        }
        for s in spans
    ]
