"""Deterministic CSV, JSON, and SVG artifact writers.

Numbers are rendered with 12 significant digits and a '.' decimal
separator, rows and keys are emitted in a fixed order, and nothing
depends on the clock or the process, so re-running a computation on the
same inputs reproduces every CSV, JSON and SVG byte for byte.  write_csv
takes a table as its columns and renders each chunk of rows with one
"%"-template, and svg_heatmap renders its grid in one numpy pass; fmt is
the one rendering of a mixed or vector cell, and the column renderers
give the same text.  The writers expect the output directory to exist;
cli.RunContext creates it.
"""
from __future__ import annotations

import itertools
import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8a4f9e", "#b8860b", "#3d3d3d")
# Page sizes (width, height) in px, and the margins around every plot area.
_LINE_PAGE, _HEAT_PAGE = (720, 480), (640, 600)
_ML, _MR, _MT, _MB = 70, 20, 40, 50
# Five-stop blue-to-red heatmap colours and the values of t on [0, 1] they sit at.
_HEAT_T = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_HEAT_RGB = np.array([(33, 70, 156), (86, 156, 214), (235, 235, 220),
                      (222, 128, 73), (166, 38, 38)], dtype=float)
# Rows a CSV writer formats and writes at a time: the text of one chunk is
# what it holds in memory beyond the columns themselves.
_CSV_CHUNK = 512
_CSV_SPECIAL = ',"\r\n'  # csv.writer (QUOTE_MINIMAL) quotes a field holding any of these


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


def _needs_quotes(text: str) -> bool:
    """Whether text holds a comma, a double quote, CR or LF (one substring scan each)."""
    return any(char in text for char in _CSV_SPECIAL)


def _csv_field(text: str) -> str:
    """A field as csv.writer quotes it: quoted, inner quotes doubled, where _needs_quotes."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(cells: Sequence) -> tuple[str, Sequence]:
    """One column's slot in a row template and the values that fill it.

    Floats fill a "%.12g" slot as fmt renders them; any other column
    fills a "%s" slot with its CSV fields: strings as they are, any other
    cell through fmt, quoted where csv.writer would quote it.
    """
    if isinstance(cells, np.ndarray) and cells.dtype == np.float64:
        return "%.12g", cells.tolist()
    kinds = set(map(type, cells))
    if kinds <= {float, np.float64}:
        return "%.12g", cells
    texts = cells if kinds == {str} else list(map(fmt, cells))
    if _needs_quotes("".join(texts)):
        return "%s", list(map(_csv_field, texts))
    return "%s", texts


def _csv_lines(columns: Sequence[Sequence]) -> str:
    """The CSV text of equally long columns, each line ended by CR LF.

    One "%"-template per row, repeated for every row, renders all of them
    from the columns' values interleaved row by row.
    """
    slots, values = zip(*map(_csv_column, columns))
    if slots == ("%s",):
        # csv.writer quotes a lone empty field, so the row is not a blank line.
        values = ([text or '""' for text in values[0]],)
    rows, width = len(values[0]), len(values)
    cells = [None] * (rows * width)  # the values row by row
    for i, column in enumerate(values):
        cells[i::width] = column
    return (",".join(slots) + "\r\n") * rows % tuple(cells)


def write_csv(path: str, header: Sequence[str], columns: Iterable[Sequence]) -> str:
    """Header and columns as csv.writer writes the rows, every cell rendered as fmt renders it.

    The columns must all have the same length (ValueError otherwise); no
    columns at all is a table with no rows.
    """
    columns = list(columns)
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"columns have different lengths: {[len(c) for c in columns]}")
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_lines([[name] for name in header]))
        for start in range(0, rows, _CSV_CHUNK):
            fh.write(_csv_lines([column[start:start + _CSV_CHUNK] for column in columns]))
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


def _heat_colors(t: np.ndarray) -> list[str]:
    """'#rrggbb' of each t on the five-stop map, t clamped to [0, 1].

    The clamp is np.where, not np.clip, so a NaN reads 0 as it does under
    the builtins min(1, max(0, t)); np.rint rounds half to even as round does.
    """
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    k = np.searchsorted(_HEAT_T[1:], t)  # the first stop at or above t ends t's segment
    w = (t - _HEAT_T[k]) / (_HEAT_T[k + 1] - _HEAT_T[k])
    lo = _HEAT_RGB[k]
    rgb = np.rint(lo + w[:, None] * (_HEAT_RGB[k + 1] - lo)).astype(np.int64)
    return list(map("#%06x".__mod__, (rgb @ np.array([1 << 16, 1 << 8, 1])).tolist()))


def svg_heatmap(path: str, xs: Sequence[float], ys: Sequence[float],
                values: Sequence[Sequence[float]], title: str,
                xlabel: str, ylabel: str, level: float) -> str:
    """Grid heatmap of values[iy][ix]; cells near the level are outlined."""
    ml, mt, pw, ph = _plot_area(_HEAT_PAGE)
    nx, ny = len(xs), len(ys)
    grid = np.array(values, dtype=float)
    flat = grid.ravel().tolist()
    vlo, vhi = min(flat), max(flat)
    if vhi == vlo:
        vhi = vlo + 1.0
    cw, ch = pw / nx, ph / ny
    span = 0.5 * (vhi - vlo) / max(nx, ny)
    # Cell corners: one x per column and one y per row, rows drawn bottom up.
    x0s = [f"{ml + ix * cw:.2f}" for ix in range(nx)]
    y0s = [f"{mt + (ny - 1 - iy) * ch:.2f}" for iy in range(ny)]
    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    fills = _heat_colors(((grid - vlo) / (vhi - vlo)).ravel())
    parts = [f'<rect x="{x0}" y="{y0}" {size} fill="{fill}"/>'
             for (y0, x0), fill in zip(itertools.product(y0s, x0s), fills)]
    near = np.flatnonzero(np.abs(grid - level) <= span).tolist()
    parts += [f'<rect x="{x0s[i % nx]}" y="{y0s[i // nx]}" width="{cw:.2f}" '
              f'height="{ch:.2f}" fill="none" stroke="black" stroke-width="1.2"/>'
              for i in near]
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
