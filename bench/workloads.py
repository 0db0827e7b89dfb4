"""The benchmark's workloads and the inputs each one generates from a seed.

Each workload writes a calibration file and a run config into a fresh
directory; synbench only ever sees those two files (plus the
SYNBENCH_WORKERS count). The seed reaches synbench as the config's `seed`
and, for the synthetic device, also fixes its calibration values.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

FALCON27 = Path("src/synbench/data/falcon27.json")

# Ranges of the committed falcon27 calibration; the synthetic device draws
# uniformly inside them so its physics stays in the same regime.
QUBIT_RANGES = {
    "t1_ns": (97_629.3, 172_963.5),
    "t2_ns": (50_697.4, 202_473.8),
    "p0": (0.962, 0.9944),
    "readout_error": (0.0121, 0.0345),
    "readout_ns": (686.6, 770.3),
}
CX_ERROR_RANGE = (0.00418, 0.02165)
CX_DURATION_RANGE = (290.7, 468.6)
X_NS = 36.0

HEAVY_HEX_ROWS = 7
HEAVY_HEX_COLS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # README-style run config without calibration/seed/output_dir
    workers: int

    def prepare(self, root: Path, seed: int, work: Path) -> Path:
        """Write this workload's calibration and config under `work`;
        returns the config path."""
        work.mkdir(parents=True, exist_ok=True)
        cal_path = work / "calibration.json"
        if self.name.startswith("falcon27"):
            shutil.copyfile(root / FALCON27, cal_path)
        else:
            cal_path.write_text(json.dumps(heavy_hex_calibration(seed), indent=1), encoding="utf-8")
        doc = {"calibration": cal_path.name, "seed": seed, "output_dir": str(work / "out"), **self.config}
        config_path = work / "config.json"
        config_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return config_path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "falcon27_default",
            "the README default run every user makes: 21 qubits x 4 circuits x 20k shots at 1 worker; "
            "every layer does some work",
            {},
            1,
        ),
        Workload(
            "falcon27_deep",
            "100k shots per circuit at 2 workers: sampler throughput, shot memory and the per-qubit "
            "thread pool decide the time; per-circuit costs are under 5%",
            {"shots": 100_000},
            2,
        ),
        Workload(
            "hh129_lowshot",
            "seeded 129-qubit heavy-hex device without positions, 2000 shots, no echo: per-circuit "
            "and per-device fixed costs (build, compile, bootstrap, plan, layout) dominate",
            {"shots": 2000, "dd_scope": "none"},
            1,
        ),
    )
}


def heavy_hex_edges() -> tuple[int, list[tuple[int, int]]]:
    """A heavy-hex lattice of 7 rows of 15 qubits joined by 4 bridge qubits
    between each pair of rows, numbered row by row; returns (qubit count,
    edges)."""
    edges: list[tuple[int, int]] = []
    rows: list[list[int]] = []
    next_id = 0
    for r in range(HEAVY_HEX_ROWS):
        row = list(range(next_id, next_id + HEAVY_HEX_COLS))
        next_id += HEAVY_HEX_COLS
        edges += list(zip(row, row[1:]))
        if rows:
            # bridge columns alternate so that every hexagon has 12 qubits
            offset = 0 if (r - 1) % 2 == 0 else 2
            for col in range(offset, HEAVY_HEX_COLS, 4):
                bridge = next_id
                next_id += 1
                edges += [(rows[-1][col], bridge), (bridge, row[col])]
        rows.append(row)
    return next_id, edges


def heavy_hex_calibration(seed: int) -> dict:
    """Seeded calibration document for the heavy-hex device, with values
    drawn from falcon27's ranges and no `position` fields."""
    rng = random.Random(f"hh129-{seed}")
    n, edges = heavy_hex_edges()

    def draw(lo: float, hi: float, digits: int) -> float:
        return round(rng.uniform(lo, hi), digits)

    qubits = []
    for q in range(n):
        t1 = draw(*QUBIT_RANGES["t1_ns"], 1)
        t2_lo, t2_hi = QUBIT_RANGES["t2_ns"]
        qubits.append(
            {
                "id": q,
                "t1_ns": t1,
                # t2 <= 2*t1 keeps the calibration free of physics warnings
                "t2_ns": draw(t2_lo, min(t2_hi, 2.0 * t1), 1),
                "p0": draw(*QUBIT_RANGES["p0"], 4),
                "readout_error": draw(*QUBIT_RANGES["readout_error"], 4),
                "readout_ns": draw(*QUBIT_RANGES["readout_ns"], 1),
                "x_ns": X_NS,
            }
        )
    gates = [
        {"qubits": [a, b], "error": draw(*CX_ERROR_RANGE, 5), "duration_ns": draw(*CX_DURATION_RANGE, 1)}
        for a, b in edges
    ]
    return {"name": f"hh129-seed{seed}", "qubits": qubits, "cx_gates": gates}
