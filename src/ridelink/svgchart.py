"""Minimal deterministic SVG 1.1 chart rendering.

Every chart uses a fixed 800x600 canvas and fixed-precision coordinate
formatting, so identical inputs produce byte-identical files. No external
renderer is involved; the functions return complete SVG documents as strings.
"""

from __future__ import annotations

from typing import Sequence

WIDTH = 800
HEIGHT = 600
FONT = "font-family=\"sans-serif\""

COLOR_LOW = (59, 76, 192)
COLOR_HIGH = (180, 4, 38)
AXIS = "#444444"
BAR = "#4878a8"
SOLID = "#2a6f97"


def _f(value: float) -> str:
    return f"{value:.2f}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16" '
        f'{FONT}>{_esc(title)}</text>',
    ]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _empty(lines: list[str]) -> str:
    lines.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT / 2:.0f}" text-anchor="middle" '
                 f'font-size="14" fill="{AXIS}" {FONT}>no data</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _blend(rank: float) -> str:
    r = int(round(COLOR_LOW[0] + (COLOR_HIGH[0] - COLOR_LOW[0]) * rank))
    g = int(round(COLOR_LOW[1] + (COLOR_HIGH[1] - COLOR_LOW[1]) * rank))
    b = int(round(COLOR_LOW[2] + (COLOR_HIGH[2] - COLOR_LOW[2]) * rank))
    return f"rgb({r},{g},{b})"


def bar_chart(labels: Sequence[str], values: Sequence[float], title: str,
              unit: str = "") -> str:
    lines = _header(title)
    if not labels:
        return _empty(lines)
    left, right, top, bottom = 240.0, 760.0, 60.0, 560.0
    vmax = max(max(values), 0.0) or 1.0
    slot = (bottom - top) / len(labels)
    bar_h = min(28.0, slot * 0.6)
    for i, (label, value) in enumerate(zip(labels, values)):
        y = top + slot * i + slot / 2.0
        w = (right - left) * (max(value, 0.0) / vmax)
        lines.append(f'<rect x="{_f(left)}" y="{_f(y - bar_h / 2)}" '
                     f'width="{_f(w)}" height="{_f(bar_h)}" fill="{BAR}"/>')
        lines.append(f'<text x="{_f(left - 8)}" y="{_f(y + 4)}" text-anchor="end" '
                     f'font-size="12" {FONT}>{_esc(label)}</text>')
        lines.append(f'<text x="{_f(left + w + 6)}" y="{_f(y + 4)}" '
                     f'font-size="11" fill="{AXIS}" {FONT}>{_f(value)}{_esc(unit)}</text>')
    lines.append(f'<line x1="{_f(left)}" y1="{_f(top)}" x2="{_f(left)}" '
                 f'y2="{_f(bottom)}" stroke="{AXIS}" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def beeswarm(rows: Sequence[tuple], title: str, seed: int = 0) -> str:
    """Stacked strip plot. ``rows`` = (feature label, values, ranks) triples,
    ranks in [0, 1] driving the point color; vertical jitter is seeded so the
    output is stable across runs."""
    import numpy as np
    lines = _header(title)
    rows = [r for r in rows if len(r[1])]
    if not rows:
        return _empty(lines)
    left, right, top, bottom = 240.0, 760.0, 60.0, 560.0
    all_values = np.concatenate([np.asarray(v, dtype=float) for _, v, _ in rows])
    lo, hi = float(all_values.min()), float(all_values.max())
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    slot = (bottom - top) / len(rows)
    rng = np.random.default_rng(seed)
    if lo < 0.0 < hi:
        x0 = left + (right - left) * (0.0 - lo) / (hi - lo)
        lines.append(f'<line x1="{_f(x0)}" y1="{_f(top)}" x2="{_f(x0)}" '
                     f'y2="{_f(bottom)}" stroke="#bbbbbb" stroke-width="1"/>')
    for i, (label, values, ranks) in enumerate(rows):
        yc = top + slot * i + slot / 2.0
        lines.append(f'<text x="{_f(left - 8)}" y="{_f(yc + 4)}" text-anchor="end" '
                     f'font-size="12" {FONT}>{_esc(label)}</text>')
        jitter = (rng.random(len(values)) - 0.5) * slot * 0.6
        for value, rank, dy in zip(values, ranks, jitter):
            x = left + (right - left) * (float(value) - lo) / (hi - lo)
            lines.append(f'<circle cx="{_f(x)}" cy="{_f(yc + dy)}" r="2.5" '
                         f'fill="{_blend(float(rank))}" fill-opacity="0.8"/>')
    lines.append(f'<text x="{_f((left + right) / 2)}" y="585" text-anchor="middle" '
                 f'font-size="12" fill="{AXIS}" {FONT}>attribution</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def line_panels(panels: Sequence[tuple], title: str) -> str:
    """Small-multiple line charts, two panels to a row. Each panel is
    (label, xs, ys, solid_flags); a segment is drawn dashed when either
    endpoint is flagged sparse."""
    columns = 2
    lines = _header(title)
    if not panels:
        return _empty(lines)
    rows_n = (len(panels) + columns - 1) // columns
    margin_x, margin_top, margin_bottom = 40.0, 50.0, 20.0
    panel_w = (WIDTH - 2 * margin_x) / columns
    panel_h = (HEIGHT - margin_top - margin_bottom) / rows_n
    for idx, (label, xs, ys, solid) in enumerate(panels):
        col, row = idx % columns, idx // columns
        px = margin_x + col * panel_w
        py = margin_top + row * panel_h
        inner_l, inner_r = px + 30.0, px + panel_w - 15.0
        inner_t, inner_b = py + 24.0, py + panel_h - 18.0
        lines.append(f'<text x="{_f(px + panel_w / 2)}" y="{_f(py + 14)}" '
                     f'text-anchor="middle" font-size="11" {FONT}>{_esc(label)}</text>')
        lines.append(f'<rect x="{_f(inner_l)}" y="{_f(inner_t)}" '
                     f'width="{_f(inner_r - inner_l)}" height="{_f(inner_b - inner_t)}" '
                     f'fill="none" stroke="#cccccc" stroke-width="0.5"/>')
        xs, ys = [float(v) for v in xs], [float(v) for v in ys]
        if len(xs) < 2:
            continue
        x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
        if x_lo == x_hi:
            x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
        if y_lo == y_hi:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

        def sx(v):
            return inner_l + (inner_r - inner_l) * (v - x_lo) / (x_hi - x_lo)

        def sy(v):
            return inner_b - (inner_b - inner_t) * (v - y_lo) / (y_hi - y_lo)

        for i in range(len(xs) - 1):
            dash = "" if (solid[i] and solid[i + 1]) else ' stroke-dasharray="4,3"'
            lines.append(f'<line x1="{_f(sx(xs[i]))}" y1="{_f(sy(ys[i]))}" '
                         f'x2="{_f(sx(xs[i + 1]))}" y2="{_f(sy(ys[i + 1]))}" '
                         f'stroke="{SOLID}" stroke-width="1.5"{dash}/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def line_chart(xs: Sequence[float], ys: Sequence[float], title: str,
               x_label: str = "", y_label: str = "") -> str:
    """Single line chart with a tick label at each x."""
    lines = _header(title)
    xs, ys = [float(v) for v in xs], [float(v) for v in ys]
    if len(xs) == 0:
        return _empty(lines)
    left, right, top, bottom = 80.0, 760.0, 60.0, 540.0
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    def sx(v):
        return left + (right - left) * (v - x_lo) / (x_hi - x_lo)

    def sy(v):
        return bottom - (bottom - top) * (v - y_lo) / (y_hi - y_lo)

    lines.append(f'<line x1="{_f(left)}" y1="{_f(bottom)}" x2="{_f(right)}" '
                 f'y2="{_f(bottom)}" stroke="{AXIS}" stroke-width="1"/>')
    lines.append(f'<line x1="{_f(left)}" y1="{_f(top)}" x2="{_f(left)}" '
                 f'y2="{_f(bottom)}" stroke="{AXIS}" stroke-width="1"/>')
    points = " ".join(f"{_f(sx(x))},{_f(sy(y))}" for x, y in zip(xs, ys))
    lines.append(f'<polyline points="{points}" fill="none" stroke="{SOLID}" '
                 f'stroke-width="2"/>')
    for x, y in zip(xs, ys):
        lines.append(f'<circle cx="{_f(sx(x))}" cy="{_f(sy(y))}" r="3" fill="{SOLID}"/>')
    for value in xs:
        lines.append(f'<text x="{_f(sx(value))}" y="{_f(bottom + 16)}" '
                     f'text-anchor="middle" font-size="10" fill="{AXIS}" {FONT}>'
                     f'{_esc(f"{value:g}")}</text>')
    if x_label:
        lines.append(f'<text x="{_f((left + right) / 2)}" y="580" text-anchor="middle" '
                     f'font-size="12" fill="{AXIS}" {FONT}>{_esc(x_label)}</text>')
    if y_label:
        lines.append(f'<text x="20" y="{_f((top + bottom) / 2)}" font-size="12" '
                     f'fill="{AXIS}" {FONT} transform="rotate(-90 20 '
                     f'{_f((top + bottom) / 2)})" text-anchor="middle">{_esc(y_label)}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


__all__ = ["WIDTH", "HEIGHT", "bar_chart", "beeswarm", "line_chart", "line_panels"]
