"""Tiny self-contained SVG line plots.

CSV files are the canonical artifacts; these plots are a convenience for
eyeballing signals, so the writer sticks to polylines, axes, tick labels
and a legend with no plotting dependency.  Output is deterministic for
identical inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_WIDTH = 760
_HEIGHT = 460
_MARGIN_L = 70
_MARGIN_R = 18
_MARGIN_T = 40
_MARGIN_B = 52


def line_plot_svg(path, series, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write a line plot of one or more equal-length series.

    series: list of (label, values) pairs; the x axis is the sample index.
    """
    if not series:
        raise ValueError("need at least one series")
    ys = [np.asarray(vals, dtype=float) for _, vals in series]
    npts = ys[0].size
    if npts < 2 or any(y.size != npts for y in ys):
        raise ValueError("series must share a common length >= 2")
    for (label, _), y in zip(series, ys):
        if not np.isfinite(y).all():
            raise ValueError(f"series {label!r} has non-finite values")

    lo = min(float(y.min()) for y in ys)
    hi = max(float(y.max()) for y in ys)
    if hi - lo <= 0.0:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + plot_w * x / (npts - 1)

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h * (hi - y) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]

    for frac in np.linspace(0.0, 1.0, 5):
        xv = frac * (npts - 1)
        px = sx(xv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 20}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{xv:.0f}</text>'
        )
        yv = lo + frac * (hi - lo)
        py = sy(yv)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" '
            f'y2="{py:.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{yv:.3g}</text>'
        )

    for rank, ((label, _), y) in enumerate(zip(series, ys)):
        color = _COLORS[rank % len(_COLORS)]
        points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if npts <= 96:
            for i, v in enumerate(y):
                parts.append(
                    f'<circle cx="{sx(i):.2f}" cy="{sy(v):.2f}" r="2" fill="{color}"/>'
                )
        ly = _MARGIN_T + 16 + 16 * rank
        lx = _WIDTH - _MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" font-family="sans-serif">'
            f"{_escape(label)}</text>"
        )

    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="15" text-anchor="middle" '
            f'font-family="sans-serif">{_escape(title)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 14}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">{_escape(ylabel)}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
