"""Deterministic CSV, JSON, and SVG artifact writers.

Numbers are rendered with 12 significant digits and a '.' decimal
separator, rows and keys are emitted in a fixed order, and nothing
depends on the clock or the process, so re-running a computation on the
same inputs reproduces every CSV, JSON and SVG byte for byte.  fmt is
the one rendering of a number, or a vector of numbers, in an artefact
cell.  The writers expect the output directory to exist; cli.RunContext
creates it.
"""
from __future__ import annotations

import csv
import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8a4f9e", "#b8860b", "#3d3d3d")
# Page sizes (width, height) in px, and the margins around every plot area.
_LINE_PAGE, _HEAT_PAGE = (720, 480), (640, 600)
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def fmt(value) -> str:
    """Canonical cell text: floats at 12 significant digits, vectors space-joined.

    The common cell types (float, numpy.float64, str, int) are looked up
    by exact type first, for speed; every other type, bool and numpy
    integers included, goes through the isinstance chain.
    """
    kind = type(value)
    if kind is float or kind is np.float64:
        return "%.12g" % value
    if kind is str or kind is int:
        return str(value)
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, (tuple, list, np.ndarray)):
        return " ".join(map(fmt, value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([fmt(c) for c in row])
    return path


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return float(fmt(obj))
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return _jsonable(obj.item())
    return obj


def write_json(path: str, payload) -> str:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def _plot_area(page: tuple[int, int]) -> tuple[int, int, int, int]:
    """Left, top, width and height of the plot area on a page."""
    return _ML, _MT, page[0] - _ML - _MR, page[1] - _MT - _MB


def _svg_page(path: str, page: tuple[int, int], title: str, xlabel: str, ylabel: str,
              body: list[str], overlay: list[str]) -> str:
    """Write one chart: white page and title, body, axis labels, then overlay."""
    width, height = page
    ml, mt, pw, ph = _plot_area(page)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
             f'font-family="monospace" font-size="15">{title}</text>',
             *body,
             f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" '
             f'font-family="monospace" font-size="12">{xlabel}</text>',
             f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
             f'font-family="monospace" font-size="12" '
             f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>',
             *overlay, "</svg>"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def svg_line_plot(path: str, series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                  title: str, xlabel: str, ylabel: str,
                  logy: bool = False, hline: float | None = None) -> str:
    """Polyline chart with axes, ticks, and a legend; no external assets."""
    ml, mt, pw, ph = _plot_area(_LINE_PAGE)
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if hline is not None:
        ys_all = ys_all + [hline]
    if logy:
        ys_all = [math.log10(y) for y in ys_all if y > 0]
    xlo, xhi = min(xs_all), max(xs_all)
    ylo, yhi = min(ys_all), max(ys_all)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x: float) -> float:
        return ml + pw * (x - xlo) / (xhi - xlo)

    def py(y: float) -> float:
        v = math.log10(y) if logy else y
        return mt + ph * (1.0 - (v - ylo) / (yhi - ylo))

    parts = [f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
             'fill="none" stroke="#888"/>']
    for tx in _ticks(xlo, xhi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" '
                     f'y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(ylo, yhi):
        yy = mt + ph * (1.0 - (ty - ylo) / (yhi - ylo))
        label = f"1e{ty:.2g}" if logy else f"{ty:.4g}"
        parts.append(f'<line x1="{ml - 5}" y1="{yy:.2f}" x2="{ml}" y2="{yy:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    over = []
    if hline is not None and (logy is False or hline > 0):
        over.append(f'<line x1="{ml}" y1="{py(hline):.2f}" x2="{ml + pw}" '
                    f'y2="{py(hline):.2f}" stroke="#999" stroke-dasharray="6,4"/>')
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                       if not logy or y > 0)
        over.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    'stroke-width="1.8"/>')
        ly = mt + 16 + 16 * i
        over.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 126}" '
                    f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        over.append(f'<text x="{ml + pw - 120}" y="{ly}" font-family="monospace" '
                    f'font-size="11">{label}</text>')
    return _svg_page(path, _LINE_PAGE, title, xlabel, ylabel, parts, over)


def _heat_color(t: float) -> str:
    """Five-stop blue-to-red map on [0, 1]."""
    stops = ((0.00, (33, 70, 156)), (0.25, (86, 156, 214)),
             (0.50, (235, 235, 220)), (0.75, (222, 128, 73)),
             (1.00, (166, 38, 38)))
    t = min(1.0, max(0.0, t))
    for (t0, c0), (t1, c1) in zip(stops, stops[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            r, g, b = (round(a + w * (b_ - a)) for a, b_ in zip(c0, c1))
            return f"#{r:02x}{g:02x}{b:02x}"
    return "#a62626"


def svg_heatmap(path: str, xs: Sequence[float], ys: Sequence[float],
                values: Sequence[Sequence[float]], title: str,
                xlabel: str, ylabel: str, level: float) -> str:
    """Grid heatmap of values[iy][ix]; cells near the level are outlined."""
    ml, mt, pw, ph = _plot_area(_HEAT_PAGE)
    nx, ny = len(xs), len(ys)
    flat = [v for row in values for v in row]
    vlo, vhi = min(flat), max(flat)
    if vhi == vlo:
        vhi = vlo + 1.0
    cw, ch = pw / nx, ph / ny
    span = 0.5 * (vhi - vlo) / max(nx, ny)
    parts, outlines = [], []
    for iy in range(ny):
        for ix in range(nx):
            v = values[iy][ix]
            x0 = ml + ix * cw
            y0 = mt + (ny - 1 - iy) * ch
            parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{ch + 0.5:.2f}" '
                         f'fill="{_heat_color((v - vlo) / (vhi - vlo))}"/>')
            if abs(v - level) <= span:
                outlines.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{cw:.2f}" '
                                f'height="{ch:.2f}" fill="none" stroke="black" '
                                'stroke-width="1.2"/>')
    parts += outlines
    for i in range(0, nx, max(1, nx // 5)):
        xx = ml + (i + 0.5) * cw
        parts.append(f'<text x="{xx:.2f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{xs[i]:.4g}</text>')
    for i in range(0, ny, max(1, ny // 5)):
        yy = mt + (ny - 1 - i + 0.5) * ch
        parts.append(f'<text x="{ml - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{ys[i]:.4g}</text>')
    note = (f'<text x="{ml}" y="{mt - 8}" font-family="monospace" font-size="11">'
            f'range [{vlo:.4g}, {vhi:.4g}], outlined cells near {level:.4g}</text>')
    return _svg_page(path, _HEAT_PAGE, title, xlabel, ylabel, parts, [note])
