"""Minimal dependency-free SVG line/step plots for simulation output.

Convenience output only; the CSV files are the contract.
"""

from __future__ import annotations

import math

import numpy as np


# Tick marks aimed for per axis; the step is rounded to 1, 2, 2.5 or 5 x 10^k.
_TICKS_PER_AXIS = 5


def _ticks(lo: float, hi: float) -> list:
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / (_TICKS_PER_AXIS - 1)
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw_step:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(t)
        t += step
    return ticks or [lo]


def _column_extremes(x, y, columns: int):
    """The points of a series that are the lowest or the highest of their
    pixel column, ``columns`` of them across the series' x span, in series
    order."""
    lo, span = x.min(), x.max() - x.min()
    column = np.minimum((x - lo) / (span or 1.0) * columns, columns - 1).astype(np.intp)
    order = np.lexsort((y, column))  # by column, then by y
    first = np.flatnonzero(np.diff(column[order], prepend=-1))
    last = np.append(first[1:], order.size) - 1
    keep = np.union1d(order[first], order[last])
    return x[keep], y[keep]


def write_svg(
    path,
    x,
    y,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    step: bool = False,
) -> None:
    """Write a single-series line (or step) plot as a standalone SVG file.

    Only the points with finite coordinates are drawn (a CAR of 0/0 is NaN,
    say); with none, the plot is the frame alone.  A series with more points
    than the plot has pixel columns is drawn by the lowest and the highest
    point of each column, all that a column can show of it.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or not x.size:
        raise ValueError("x and y must be equal-length, non-empty sequences")
    finite = np.isfinite(x) & np.isfinite(y)
    x, y = x[finite], y[finite]

    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb
    if x.size > pw:
        x, y = _column_extremes(x, y, pw)
    xs, ys = x.tolist(), y.tolist()

    x_lo, x_hi = min(xs, default=0.0), max(xs, default=0.0)
    y_lo, y_hi = min(ys, default=0.0), max(ys, default=0.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    points = [(px(xv), py(yv)) for xv, yv in zip(xs, ys)]
    if step:  # each value holds until the next point's x
        points = [q for p, n in zip(points, points[1:]) for q in (p, (n[0], p[1]))] + points[-1:]
    path_d = " ".join(
        f"{'M' if i == 0 else 'L'}{p[0]:.2f},{p[1]:.2f}" for i, p in enumerate(points)
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#888" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi) if xs else []:
        xp = px(t)
        parts.append(f'<line x1="{xp:.2f}" y1="{mt + ph}" x2="{xp:.2f}" '
                     f'y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{xp:.2f}" y="{mt + ph + 20}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">{t:.4g}</text>')
    for t in _ticks(y_lo, y_hi) if xs else []:
        yp = py(t)
        parts.append(f'<line x1="{ml - 5}" y1="{yp:.2f}" x2="{ml}" y2="{yp:.2f}" '
                     'stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{yp + 4:.2f}" font-size="12" '
                     f'text-anchor="end" font-family="sans-serif">{t:.4g}</text>')
    if xs:
        parts.append(f'<path d="{path_d}" fill="none" stroke="#1f6fb2" '
                     'stroke-width="1.5"/>')
    if title:
        parts.append(f'<text x="{width / 2}" y="24" font-size="15" text-anchor="middle" '
                     f'font-family="sans-serif">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2}" y="{height - 12}" font-size="13" '
                     f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="18" y="{mt + ph / 2}" font-size="13" text-anchor="middle" '
                     f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph / 2})">'
                     f'{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
