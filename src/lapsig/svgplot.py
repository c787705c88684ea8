"""Tiny self-contained SVG line plots.

CSV files are the canonical artifacts; these plots are a convenience for
eyeballing signals, so the writer sticks to polylines, axes, tick labels
and a legend with no plotting dependency.  Output is deterministic for
identical inputs: every point coordinate is exactly Python's ``"{:.2f}"``
of the same double, written for a whole curve at once by numpy.
"""

from __future__ import annotations

import math

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

    y_lo = min(float(y.min()) for y in ys)
    y_hi = max(float(y.max()) for y in ys)
    lo, hi = y_lo, y_hi
    if hi - lo <= 0.0:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    # a span that overflows, or a constant too large for the +-1 to show,
    # would write inf or nan coordinates
    if not 0.0 < plot_h * (hi - lo) < math.inf:
        raise ValueError(f"series range [{y_lo!r}, {y_hi!r}] cannot be scaled to the plot")

    def sx(x):
        return _MARGIN_L + plot_w * x / (npts - 1)

    def sy(y):
        return _MARGIN_T + plot_h * (hi - y) / (hi - lo)

    cx = sx(np.arange(npts))  # the same doubles, element by element, as sx(i)
    cx_text = _fixed2(cx)

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
        cy = sy(y)
        parts.append(
            f'<polyline points="{_points(cx, cx_text, cy)}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        if npts <= 96:
            circle = '<circle cx="{:.2f}" cy="{:.2f}" r="2" fill="%s"/>' % color
            parts.extend(map(circle.format, cx.tolist(), cy.tolist()))
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


def _points(xs: np.ndarray, xs_text, ys: np.ndarray) -> str:
    """The polyline text "x,y x,y ...", each coordinate as ``"{:.2f}"`` writes
    it; ``xs_text`` is ``_fixed2(xs)``, shared by the curves of one plot."""
    ys_text = _fixed2(ys)
    if xs_text is None or ys_text is None:
        return " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
    sep = np.full((xs.size, 1), ord(","), dtype=np.uint8)
    cells = np.hstack([xs_text, sep, ys_text, sep])
    cells[:, -1] = ord(" ")
    text = cells.ravel()
    return text[text != 0].tobytes()[:-1].decode("ascii")


def _fixed2(v: np.ndarray) -> np.ndarray | None:
    """The bytes of ``"{:.2f}"`` of each value, one right-aligned row per
    value with 0 bytes as padding; None when a value is not finite or not
    below 2^33 in magnitude.

    Python rounds the exact double half to even.  Dekker's two-product
    gives ``|v| * 100`` exactly as ``p + err`` with ``|err| <= ulp(p) / 2``
    (100 needs no split).  The distance of ``p`` from the half above
    ``floor(p)`` is 0 or at least ulp(p), so ``err`` decides only a tie of
    ``p`` itself, and there is no band of doubtful values.
    """
    mag = np.abs(v)
    if not (mag < 2.0**33).all():
        return None
    p = mag * 100.0
    c = 134217729.0 * mag  # 2^27 + 1
    hi = c - (c - mag)
    err = (hi * 100.0 - p) + (mag - hi) * 100.0
    whole = np.floor(p)
    tie = (p - whole) - 0.5
    cents = whole.astype(np.int64)
    cents += (tie > 0) | ((tie == 0) & ((err > 0) | ((err == 0) & (cents % 2 == 1))))
    units, frac = np.divmod(cents, 100)
    width = len(str(int(units.max())))
    out = np.zeros((v.size, width + 4), dtype=np.uint8)  # sign, digits, ".", 2 digits
    lead = np.full(v.size, width)  # column of the leading digit
    for j in range(width):
        shown = (units >= 10**j) | (j == 0)
        out[:, width - j] = np.where(shown, units // 10**j % 10 + ord("0"), 0)
        lead[shown] = width - j
    neg = np.flatnonzero(np.signbit(v))
    out[neg, lead[neg] - 1] = ord("-")
    out[:, width + 1] = ord(".")
    out[:, width + 2] = frac // 10 + ord("0")
    out[:, width + 3] = frac % 10 + ord("0")
    return out


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
