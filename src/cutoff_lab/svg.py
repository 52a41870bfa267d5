"""Minimal deterministic SVG line/scatter plots (no plotting dependency).

Output is byte-reproducible for identical inputs: fixed canvas, fixed tick
layout, fixed number formatting.
"""

from __future__ import annotations

import math
import sys

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# Axis spans are at least _MIN_SPAN and at least _REL_SPAN of the larger
# bound, and finite unless the values' own range is not: then a tick step
# is normal and moves a tick past its ulp.
_MAX, _MIN_SPAN, _REL_SPAN = sys.float_info.max, 1e-300, 2.0 ** -46


def _bounds(values, pad=0.05):
    a, b = float(min(values)), float(max(values))
    lo, hi = (a - 1.0, b + 1.0) if a == b else (a, b)
    span = hi - lo
    lo, hi = lo - pad * span, hi + pad * span
    if _MIN_SPAN <= hi - lo < math.inf and hi - lo >= _REL_SPAN * max(-lo, hi):
        return lo, hi
    # A span lost in rounding, underflowing or overflowing: one as above,
    # centred on the values, below the largest double (in Python floats,
    # which overflow to inf with no warning), unless the values' own range
    # passes it: then the axis is the values' range (see _frac, _ticks).
    mid = 0.5 * a + 0.5 * b
    half = min(max((0.5 + pad) * (b - a), _REL_SPAN * abs(mid), _MIN_SPAN),
               0.499 * _MAX)
    return min(max(mid - half, -_MAX), a), max(min(mid + half, _MAX), b)


def _frac(v, lo, hi):
    """(v - lo) / (hi - lo) for finite v, lo < hi, from their halves where
    a difference overflows."""
    v = float(v)
    if math.isfinite(v - lo) and math.isfinite(hi - lo):
        return (v - lo) / (hi - lo)
    return (0.5 * v - 0.5 * lo) / (0.5 * hi - 0.5 * lo)


def _ticks(lo, hi, n=6):
    span = hi - lo
    if not math.isfinite(span):
        # Twice the ticks of the halved axis; none past the largest double.
        return [2.0 * v for v in _ticks(0.5 * lo, 0.5 * hi, n)
                if abs(v) <= 0.5 * _MAX]
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    # A tick past the largest double is inf, which ends the loop.
    while v <= min(hi + 1e-12 * span, _MAX):
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return out


def line_plot(path, series, title="", xlabel="", ylabel="", vlines=()):
    """Write a line plot.

    ``series`` is a list of (label, xs, ys) triples; ``vlines`` a list of
    (label, x) vertical markers.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _bounds(xs_all)
    # Series with no finite value (an all-inf ratio) get empty axes.
    y_lo, y_hi = _bounds(ys_all or [0.0])

    def sx(x):
        return MARGIN_L + _frac(x, x_lo, x_hi) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - _frac(y, y_lo, y_hi) * \
            (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="16">{title}</text>',
    ]
    axis = (f'M {_fmt(MARGIN_L)} {_fmt(MARGIN_T)} '
            f'L {_fmt(MARGIN_L)} {_fmt(HEIGHT - MARGIN_B)} '
            f'L {_fmt(WIDTH - MARGIN_R)} {_fmt(HEIGHT - MARGIN_B)}')
    parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(HEIGHT - MARGIN_B + 5)}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 20)}" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{_fmt(ty)}</text>')
    parts.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="monospace" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
                 f'font-family="monospace" font-size="13" '
                 f'transform="rotate(-90 16 {HEIGHT // 2})">{ylabel}</text>')
    for label, x in vlines:
        px = sx(x)
        if not math.isfinite(px):   # so far off the axis that px overflowed
            continue                # (to inf, as a Python float: no warning)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(MARGIN_T)}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(HEIGHT - MARGIN_B)}" '
                     f'stroke="#888888" stroke-dasharray="4,3"/>')
        parts.append(f'<text x="{_fmt(px + 3)}" y="{_fmt(MARGIN_T + 12)}" '
                     f'font-family="monospace" font-size="10">{label}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}"
                       for x, y in zip(xs, ys) if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 5}" '
                     f'y="{_fmt(MARGIN_T + 14 + 14 * i)}" text-anchor="end" '
                     f'font-family="monospace" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
