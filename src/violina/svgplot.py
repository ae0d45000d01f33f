"""Small deterministic SVG line plots (no plotting dependency).

Numbers are formatted with a fixed precision, so identical inputs always
produce identical bytes.  Titles and labels are written as XML-escaped text.
"""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")

_MARGIN = {"left": 64, "right": 16, "top": 28, "bottom": 44}


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _data_range(values):
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 5):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _log_ticks(lo: float, hi: float):
    d0, d1 = math.floor(lo), math.ceil(hi)
    step = max(1, (d1 - d0) // 6)
    return list(range(d0, d1 + 1, step)) or [d0]


class _Panel:
    """One set of axes; renders into SVG fragments at a vertical offset.  A
    point not finite on either axis (or, on a log axis, with ``y <= 0``) is
    left out."""

    def __init__(self, series, width, height, y_off, title, xlabel, ylabel, logy):
        from xml.sax.saxutils import escape  # on use: it imports urllib.request, 25 ms
        self.parts = []
        xs_all, ys_all = [], []
        plotted = []
        for item in series:
            label, xs, ys = item[0], list(item[1]), list(item[2])
            dashed = bool(item[3]) if len(item) > 3 else False
            pairs = [(x, math.log10(y) if logy else y) for x, y in zip(xs, ys)
                     if math.isfinite(x) and math.isfinite(y) and (y > 0 or not logy)]
            if not pairs:
                continue
            plotted.append((label, pairs, dashed))
            xs_all.extend(p[0] for p in pairs)
            ys_all.extend(p[1] for p in pairs)
        if not plotted:
            raise ValueError("nothing to plot: no finite data points")
        x_lo, x_hi = _data_range(xs_all)
        y_lo, y_hi = _data_range(ys_all)
        inner_w = width - _MARGIN["left"] - _MARGIN["right"]
        inner_h = height - _MARGIN["top"] - _MARGIN["bottom"]

        def px(x):
            return _MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * inner_w

        def py(y):
            return y_off + _MARGIN["top"] + (1 - (y - y_lo) / (y_hi - y_lo)) * inner_h

        top = y_off + _MARGIN["top"]
        bottom = y_off + height - _MARGIN["bottom"]
        left, right = _MARGIN["left"], width - _MARGIN["right"]
        add = self.parts.append
        add(f'<rect x="{left}" y="{top}" width="{inner_w}" height="{inner_h}" '
            f'fill="none" stroke="#333" stroke-width="1"/>')
        for xt in _ticks(x_lo, x_hi):
            xp = _fmt(px(xt))
            add(f'<line x1="{xp}" y1="{bottom}" x2="{xp}" y2="{bottom + 4}" stroke="#333"/>')
            add(f'<text x="{xp}" y="{bottom + 16}" font-size="10" text-anchor="middle" '
                f'fill="#333">{_fmt(xt)}</text>')
        y_ticks = _log_ticks(y_lo, y_hi) if logy else _ticks(y_lo, y_hi)
        for yt in y_ticks:
            if not y_lo <= yt <= y_hi:
                continue
            yp = _fmt(py(yt))
            label = f"1e{yt}" if logy else _fmt(yt)
            add(f'<line x1="{left - 4}" y1="{yp}" x2="{left}" y2="{yp}" stroke="#333"/>')
            add(f'<text x="{left - 6}" y="{yp}" font-size="10" text-anchor="end" '
                f'dominant-baseline="middle" fill="#333">{label}</text>')
        if title:
            add(f'<text x="{width / 2:.6g}" y="{y_off + 16}" font-size="12" '
                f'text-anchor="middle" fill="#000">{escape(title)}</text>')
        if xlabel:
            add(f'<text x="{width / 2:.6g}" y="{y_off + height - 8}" font-size="11" '
                f'text-anchor="middle" fill="#000">{escape(xlabel)}</text>')
        if ylabel:
            yc = y_off + height / 2
            add(f'<text x="14" y="{yc:.6g}" font-size="11" text-anchor="middle" '
                f'fill="#000" transform="rotate(-90 14 {yc:.6g})">{escape(ylabel)}</text>')
        for i, (label, pairs, dashed) in enumerate(plotted):
            color = PALETTE[i % len(PALETTE)]
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pairs)
            dash = ' stroke-dasharray="5,3"' if dashed else ""
            add(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>')
        for i, (label, _, dashed) in enumerate(plotted):
            color = PALETTE[i % len(PALETTE)]
            ly = top + 14 + 14 * i
            dash = ' stroke-dasharray="5,3"' if dashed else ""
            add(f'<line x1="{right - 110}" y1="{ly}" x2="{right - 86}" y2="{ly}" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>')
            add(f'<text x="{right - 80}" y="{ly + 3}" font-size="10" '
                f'fill="#333">{escape(label)}</text>')


def panel_plot(panels, *, width: int = 640, panel_height: int = 220,
               xlabel: str = "", ylabel: str = "", logy: bool = False) -> str:
    """Vertically stacked panels; each entry is ``(title, series)``, with
    ``series`` of ``(label, xs, ys)`` or ``(label, xs, ys, dashed)``."""
    panels = list(panels)
    if not panels:
        raise ValueError("nothing to plot: no panels")
    total = panel_height * len(panels)
    parts = []
    for i, (title, series) in enumerate(panels):
        parts.extend(
            _Panel(series, width, panel_height, i * panel_height,
                   title, xlabel if i == len(panels) - 1 else "", ylabel, logy).parts
        )
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{total}" '
        f'viewBox="0 0 {width} {total}">\n<rect width="100%" height="100%" '
        f'fill="#fff"/>\n{body}\n</svg>\n'
    )
