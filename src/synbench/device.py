"""Device coupling graph, calibration data, and benchmark line selection.

A benchmark line is a path of five qubits on the coupling graph, centered on
the qubit under test: code qubits at the ends and middle, auxiliaries in
between. Lines are undirected placements; a path and its reverse are the same
candidate, stored with the smaller endpoint first.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path

Edge = tuple[int, int]

# cx gates above this error rate signal a broken calibration and disqualify
# any line containing them
CX_ERROR_CUTOFF = 0.5


class CalibrationError(ValueError):
    """Malformed calibration data or an invariant violation."""


def warn_caller(message: str) -> None:
    """Warn at the first frame outside synbench, so the warning names the
    code that called into the library."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def canonical_edge(a: int, b: int) -> Edge:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class QubitCalibration:
    """Per-qubit timing and error figures. Durations in ns; t2_star_ns
    defaults to 0.5 * t2_ns."""

    t1_ns: float
    t2_ns: float
    readout_ns: float
    t2_star_ns: float | None = None
    p0: float = 1.0
    readout_error: float = 0.01
    x_ns: float = 35.0

    def __post_init__(self) -> None:
        # a non-number reads nan and fails its check; T1 and T2 may be infinite
        for name in ("t1_ns", "t2_ns", "t2_star_ns", "readout_ns", "x_ns"):
            value = getattr(self, name)
            if not (value is None and name == "t2_star_ns" or json_float(value) > 0):
                raise CalibrationError(f"{name} must be a positive number, got {value!r}")
        if self.t2_star_ns is None:
            object.__setattr__(self, "t2_star_ns", 0.5 * self.t2_ns)
        for name in ("p0", "readout_error"):
            value = getattr(self, name)
            if not 0.0 <= json_float(value) <= 1.0:
                raise CalibrationError(f"{name} must be a number in [0, 1], got {value!r}")
        if self.t2_star_ns > self.t2_ns and math.isfinite(self.t2_ns):
            raise CalibrationError(
                f"t2_star_ns ({self.t2_star_ns}) must not exceed t2_ns ({self.t2_ns})"
            )


@dataclass(frozen=True)
class DeviceCalibration:
    """Coupling graph plus calibration data, immutable after load."""

    qubits: tuple[QubitCalibration, ...]
    cx_error: dict[Edge, float]  # its keys are the coupling graph's edges
    cx_duration_ns: dict[Edge, float]
    name: str = "device"
    positions: dict[int, tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if not self.qubits:
            raise CalibrationError("a device needs at least one qubit")
        if self.cx_error.keys() != self.cx_duration_ns.keys():
            raise CalibrationError("cx_error and cx_duration_ns must name the same edges")
        for a, b in self.edges:
            if a == b:
                raise CalibrationError(f"self-loop on qubit {a}")
            if (a, b) != canonical_edge(a, b):
                raise CalibrationError(f"edge ({a}, {b}) not in canonical order")
            if not (0 <= a < self.qubit_count and 0 <= b < self.qubit_count):
                raise CalibrationError(f"edge ({a}, {b}) references an unknown qubit")
        for edge in self.edges:
            if not 0.0 <= self.cx_error[edge] <= 1.0:
                raise CalibrationError(f"cx error on {edge} outside [0, 1]")
            if not self.cx_duration_ns[edge] > 0:
                raise CalibrationError(f"cx duration on {edge} must be positive")
        for q, qc in enumerate(self.qubits):
            if qc.t2_ns > 2.0 * qc.t1_ns:
                warn_caller(f"qubit {q}: t2 ({qc.t2_ns}) exceeds 2*t1 ({2.0 * qc.t1_ns})")

    @property
    def qubit_count(self) -> int:
        return len(self.qubits)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.cx_error)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {q: [] for q in range(self.qubit_count)}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {q: tuple(sorted(v)) for q, v in nbrs.items()}

    @cached_property
    def layout(self) -> dict[int, tuple[float, float]]:
        """Drawing coordinates: the committed positions, or breadth-first
        columns. Each connected component is walked from its lowest qubit and
        sits right of the last; a column holds its qubits in discovery order,
        centred on 0, and every edge of a bipartite graph spans one column."""
        if self.positions:
            return self.positions
        placed: set[int] = set()
        columns: list[list[int]] = []
        for root in range(self.qubit_count):
            column = [] if root in placed else [root]
            while column:
                placed.update(column)
                columns.append(column)
                column = list(dict.fromkeys(q for p in column for q in self.adjacency[p] if q not in placed))
        return {q: (float(x), row - (len(col) - 1) / 2) for x, col in enumerate(columns) for row, q in enumerate(col)}

    def edge_error(self, a: int, b: int) -> float:
        return self.cx_error[canonical_edge(a, b)]


@dataclass(frozen=True)
class BenchLine:
    """A five-qubit benchmarking path: code, aux, code, aux, code."""

    qubits: tuple[int, int, int, int, int]
    max_cx_center: float
    max_cx_all: float

    @property
    def center(self) -> int:
        return self.qubits[2]


def json_float(value) -> float:
    """A JSON number as a float to range-check: nan for a bool, a string or null, inf past the float range."""
    try:
        return float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        return math.inf


def _finite(value, what: str) -> float:
    """A finite JSON number: a bool, a string, null or an infinity is rejected, not converted."""
    if not math.isfinite(number := json_float(value)):
        raise CalibrationError(f"{what} must be a finite number, got {value!r}")
    return number


def load_calibration(source) -> DeviceCalibration:
    """Load and validate a calibration.

    A Path names the JSON file to read; a str or bytes is the JSON text
    itself, never a file name. Every numeric field and position coordinate
    must be a finite JSON number, cx qubit ids integers and the name a
    string; either every qubit has a position or none has. A missing
    optional field takes QubitCalibration's default.
    """
    if isinstance(source, Path):
        try:
            raw = source.read_bytes()
        except (OSError, ValueError) as exc:  # ValueError: a null byte in the path
            raise CalibrationError(f"cannot read calibration {source}: {exc}") from exc
    elif isinstance(source, (str, bytes)):
        raw = source
    else:
        raise CalibrationError(f"cannot read calibration from {type(source).__name__}")
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CalibrationError(f"calibration is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or "qubits" not in doc or "cx_gates" not in doc:
        raise CalibrationError("calibration must have top-level 'qubits' and 'cx_gates'")

    entries = doc["qubits"]
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise CalibrationError("calibration 'qubits' must be a list of objects")
    ids = [entry.get("id") for entry in entries]
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(len(entries))):
        raise CalibrationError("qubit ids must be exactly 0..n-1")

    qubit_fields = [(f.name, f.default is MISSING) for f in fields(QubitCalibration)]
    qubits: list[QubitCalibration | None] = [None] * len(entries)
    positions: dict[int, tuple[float, float]] = {}
    for entry in entries:
        q = entry["id"]
        try:
            values = {name: _finite(entry[name], name) for name, required in qubit_fields if required or name in entry}
            qubits[q] = QubitCalibration(**values)
            if "position" in entry:
                x, y = entry["position"]
                positions[q] = (_finite(x, "position x"), _finite(y, "position y"))
        except KeyError as exc:
            raise CalibrationError(f"qubit {q}: missing required field {exc}") from exc
        except (TypeError, ValueError) as exc:  # CalibrationError included
            raise CalibrationError(f"qubit {q}: {exc}") from exc

    if positions and len(positions) < len(entries):
        missing = min(set(range(len(entries))) - set(positions))
        raise CalibrationError(f"qubit {missing} has no position; give every qubit a position or none")

    gates = doc["cx_gates"]
    if not isinstance(gates, list):
        raise CalibrationError("calibration 'cx_gates' must be a list of objects")
    cx_error: dict[Edge, float] = {}
    cx_duration: dict[Edge, float] = {}
    for gate in gates:
        try:
            a, b = gate["qubits"]
            if type(a) is not int or type(b) is not int:
                raise CalibrationError(f"qubit ids must be integers, got {[a, b]!r}")
            edge = canonical_edge(a, b)
            error = _finite(gate["error"], "error")
            duration = _finite(gate["duration_ns"], "duration_ns")
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(f"bad cx_gates entry {gate!r}: {exc}") from exc
        if edge in cx_error:
            raise CalibrationError(f"duplicate cx edge {edge}")
        cx_error[edge] = error
        cx_duration[edge] = duration

    name = doc.get("name", "device")
    if not isinstance(name, str):
        raise CalibrationError(f"calibration name must be a string, got {name!r}")
    return DeviceCalibration(
        qubits=tuple(qubits),
        cx_error=cx_error,
        cx_duration_ns=cx_duration,
        name=name,
        positions=positions or None,
    )


def enumerate_lines(cal: DeviceCalibration, center: int) -> list[BenchLine]:
    """All simple five-qubit paths centered on `center`, as undirected
    placements in canonical order. Empty when the qubit cannot sit at the
    center of any line (leaf qubits, sparse corners)."""
    if not 0 <= center < cal.qubit_count:
        raise ValueError(f"qubit {center} is not on the device")
    paths: set[tuple[int, ...]] = set()
    nbrs = cal.adjacency
    for left in nbrs[center]:
        for right in nbrs[center]:
            if left == right:
                continue
            for a in nbrs[left]:
                if a in (center, right):
                    continue
                for d in nbrs[right]:
                    if d in (center, left, a):
                        continue
                    path = (a, left, center, right, d)
                    if path[-1] < path[0]:
                        path = path[::-1]
                    paths.add(path)
    lines = []
    for path in sorted(paths):
        errors = [cal.edge_error(a, b) for a, b in zip(path, path[1:])]
        lines.append(BenchLine(qubits=path, max_cx_center=max(errors[1:3]), max_cx_all=max(errors)))
    return lines


def select_line(cal: DeviceCalibration, candidates: list[BenchLine]) -> BenchLine | None:
    """Pick the line minimizing (max cx error at the center, max cx error
    overall), ties broken by smallest qubit sequence. Candidates containing a
    cx with error over 0.5 are discarded; returns None if nothing survives."""
    if not candidates:
        return None
    centers = {line.center for line in candidates}
    if len(centers) != 1:
        raise ValueError(f"candidates have mixed centers: {sorted(centers)}")
    surviving = [line for line in candidates if line.max_cx_all <= CX_ERROR_CUTOFF]
    if not surviving:
        return None
    return min(surviving, key=lambda ln: (ln.max_cx_center, ln.max_cx_all, ln.qubits))


def plan_device(cal: DeviceCalibration) -> dict[int, BenchLine | None]:
    """Selected benchmark line for every qubit (None where infeasible)."""
    return {q: select_line(cal, enumerate_lines(cal, q)) for q in range(cal.qubit_count)}
