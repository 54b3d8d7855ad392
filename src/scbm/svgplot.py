"""Minimal deterministic SVG line charts (no external plotting dependency).

Output is a plain polyline chart with fixed geometry and fixed number
formatting, so identical data produces byte-identical files.
"""

from __future__ import annotations

import math
import sys

__all__ = ["line_chart"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _scale(vals, lo_pix, hi_pix):
    """Pixel map of finite ``vals`` padded by 5%; spans are taken in halves (exact), so [-1e308, 1e308] frames too."""
    vmin = min(vals)
    vmax = max(vals)
    if vmax == vmin:
        # +-1 rounds away past 2**53; |v|/1024 does not, and v * (1 + 1.1/1024) stays finite to +-1.7e308
        half = max(1.0, abs(vmin) / 1024.0)
        vmin -= half
        vmax += half
    pad = 0.1 * (vmax / 2 - vmin / 2)
    vmin = max(vmin - pad, -sys.float_info.max)
    vmax = min(vmax + pad, sys.float_info.max)

    def to_pix(v: float) -> float:
        frac = (v / 2 - vmin / 2) / (vmax / 2 - vmin / 2)
        return lo_pix + frac * (hi_pix - lo_pix)

    return to_pix, vmin, vmax


def _ticks(lo, hi):
    """lo + i (hi - lo) / 4 for i = 0..4, taken in halves and eighths (exact) so that no span overflows."""
    return [2 * (lo / 2 + i * (hi / 8 - lo / 8)) for i in range(5)]


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render ``series`` = [(label, xs, ys), ...] as an SVG document string, framing and drawing finite points only."""
    if not series or any(len(xs) != len(ys) or not len(xs) for _, xs, ys in series):
        raise ValueError("series must be nonempty with aligned x and y")
    finite = [[(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)] for _, xs, ys in series]
    drawn = [point for points in finite for point in points] or [(0.0, 0.0)]
    x_pix, xmin, xmax = _scale([x for x, _ in drawn], _MARGIN_L, _WIDTH - _MARGIN_R)
    y_pix, ymin, ymax = _scale([y for _, y in drawn], _HEIGHT - _MARGIN_B, _MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{_HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_HEIGHT // 2})">{ylabel}</text>',
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
    ]
    for xv, yv in zip(_ticks(xmin, xmax), _ticks(ymin, ymax)):
        parts.append(
            f'<text x="{_fmt(x_pix(xv))}" y="{_HEIGHT - _MARGIN_B + 16}" text-anchor="middle" '
            f'font-size="10">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{_fmt(y_pix(yv) + 3)}" text-anchor="end" '
            f'font-size="10">{_fmt(yv)}</text>'
        )
    for idx, ((label, _, _), points) in enumerate(zip(series, finite)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{_fmt(x_pix(x))},{_fmt(y_pix(y))}" for x, y in points)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 6}" y="{_MARGIN_T + 14 + 14 * idx}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
