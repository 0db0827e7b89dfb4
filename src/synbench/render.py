"""Deterministic SVG device maps.

Rates mode paints each benchmarked qubit with the bit-flip rate on the red
channel and the phase-flip rate on the blue channel, normalized so the
device maximum has full brightness, with both percentages printed beside the
qubit (bit flip first). Calibration mode paints the same quantities predicted
from each qubit's relaxation/dephasing times over its readout window, and
colors cx links green with full brightness at a 2% error rate; anything
noisier is drawn grey. Unbenchmarked qubits are hatched.
"""

from __future__ import annotations

from .device import DeviceCalibration
from .noise import guide_values

CX_FULL_GREEN_ERROR = 0.02
_SCALE = 90.0
_MARGIN = 55.0
_NODE_R = 16.0


def _fmt(value: float) -> str:
    return f"{value:.1f}"


def _is_rate(rate) -> bool:
    estimate = rate.get("estimate") if isinstance(rate, dict) else None
    return type(estimate) in (int, float) and 0.0 <= estimate <= 1.0


def _node_values(report: dict, cal: DeviceCalibration, mode: str) -> dict[int, tuple[float | None, float | None]]:
    """(bit, phase) value of every qubit, None where the report has no
    entry; each entry is checked for what the maps read."""
    qubits = report.get("qubits")
    if not isinstance(qubits, list) or not qubits:
        raise ValueError("report has no benchmarked qubits")
    values: dict[int, tuple[float | None, float | None]] = {q: (None, None) for q in range(cal.qubit_count)}
    dd = report.get("metadata", {}).get("dd_scope", "code_only") != "none"
    for entry in qubits:
        q = entry.get("qubit") if isinstance(entry, dict) else None
        if type(q) is not int or not 0 <= q < cal.qubit_count:
            raise ValueError(f"qubit entry {entry!r} does not name a qubit of {cal.name}")
        rates = entry.get("rates", {})
        if not isinstance(rates, dict) or not all(map(_is_rate, rates.values())):
            raise ValueError(f"qubit {q}: each rate must be an object with an estimate in [0, 1]")
        if mode == "rates":
            bit = rates.get("p_01") or rates.get("p_1to0") or rates.get("p_0to1")
            phase = rates.get("p_phase")
            values[q] = (
                bit["estimate"] if bit else None,
                phase["estimate"] if phase else None,
            )
        else:
            qc = cal.qubits[q]
            window = qc.readout_ns + qc.x_ns
            g = guide_values(cal, q, window, dd=dd)
            values[q] = (g.p_flip, g.p_phase)
    return values


def render_device_map(report, cal: DeviceCalibration, mode: str = "rates") -> str:
    """Render the coupling graph with per-qubit rate coloring; returns SVG
    text (stable bytes for identical inputs)."""
    if mode not in ("rates", "calibration"):
        raise ValueError(f"unknown render mode {mode!r}")
    if hasattr(report, "to_dict"):
        report = report.to_dict()

    px = {
        q: (_MARGIN + _SCALE * x, _MARGIN + _SCALE * y) for q, (x, y) in cal.layout.items()
    }
    width = max(x for x, _ in px.values()) + _MARGIN
    height = max(y for _, y in px.values()) + _MARGIN + 10

    values = _node_values(report, cal, mode)
    bit_max = max((v[0] for v in values.values() if v[0]), default=0.0)
    phase_max = max((v[1] for v in values.values() if v[1]), default=0.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        "<defs>",
        '<pattern id="hatch" width="6" height="6" patternTransform="rotate(45)" '
        'patternUnits="userSpaceOnUse"><rect width="6" height="6" fill="#dddddd"/>'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#777777" stroke-width="2"/></pattern>',
        "</defs>",
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
        f"<title>{cal.name}: {mode}</title>",
    ]

    for a, b in sorted(cal.edges):
        (xa, ya), (xb, yb) = px[a], px[b]
        if mode == "calibration":
            err = cal.cx_error[(a, b)]
            if err > CX_FULL_GREEN_ERROR:
                stroke = "#888888"
            else:
                stroke = f"rgb(0,{round(255 * err / CX_FULL_GREEN_ERROR)},0)"
        else:
            stroke = "#bbbbbb"
        parts.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" '
            f'stroke="{stroke}" stroke-width="4"/>'
        )

    for q in range(cal.qubit_count):
        x, y = px[q]
        bit, phase = values[q]
        if bit is None and phase is None:
            fill = "url(#hatch)"
            label = ""
        else:
            red = round(255 * bit / bit_max) if bit and bit_max > 0 else 0
            blue = round(255 * phase / phase_max) if phase and phase_max > 0 else 0
            fill = f"rgb({red},0,{blue})"
            bit_text = _fmt(100 * bit) if bit is not None else "-"
            phase_text = _fmt(100 * phase) if phase is not None else "-"
            label = f"{bit_text}/{phase_text}"
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(_NODE_R)}" fill="{fill}" '
            f'stroke="#333333" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4)}" font-size="11" fill="#ffffff" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'stroke="#000000" stroke-width="0.4">{q}</text>'
        )
        if label:
            parts.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y + _NODE_R + 13)}" font-size="10" '
                f'fill="#222222" text-anchor="middle" font-family="sans-serif">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
