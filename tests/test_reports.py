"""The column-wise writers against per-cell references: the stdlib csv writer
and the per-cell heatmap loop."""
import csv

import numpy as np
import pytest

from relwalk import reports
from relwalk.reports import fmt, svg_heatmap, write_csv


def _stdlib_csv(path, header, rows):
    """The per-cell writer: csv.writer over fmt of each cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([fmt(c) for c in row])


_MIXED_ROWS = [
    ("plain", 0.1 + 0.2, np.float64(1 / 3), np.float32(0.5), np.int64(-3), True, 7,
     (1, -2), np.array([1e-20, 2.0]), ""),
    ("a,b", float("nan"), np.float64(-0.0), np.float32(-1.25), np.int64(0), False, 0,
     (), np.array([]), 1.5),
    ('say "hi"', float("inf"), np.float64(1e300), np.float32(3.0), np.int64(2 ** 40), True,
     -12, (0.25, "x,y"), np.array([0.1, -0.0]), ""),
    ("cr\rlf\nend", -float("inf"), np.float64(123456789012345.0), np.float32(1e-8),
     np.int64(1), False, 10 ** 20, ('q"', 3), np.array([7.0]), 2.0 / 3.0),
    ("", 1e-300, np.float64(5e-324), np.float32(0.0), np.int64(-1), True, 1,
     ("",), np.array([np.nan]), ""),
]


@pytest.mark.parametrize("header, rows", [
    (["text", "float", "f64", "f32", "i64", "bool", "int", "tuple", "array", "floyd"],
     _MIXED_ROWS),
    # floyd.csv's shape: a blank cell where no value is computed, floats elsewhere.
    (["sequence", "i", "word", "floyd_from_e"],
     [("s", i, f"a^{i}", 0.5 ** i if i % 3 else "") for i in range(40)]),
    (["only"], [("",), ("x",), (1.5,), ("",), ('"',)]),
    (["only"], [(0.5,), (np.float64(2.0),), (1e-7,)]),
    (["y", "x", "martin_kernel"], []),
    (['head,er', 'quo"te', ""], [("", "", ""), ("a", "", 1.0)]),
], ids=["mixed", "floyd", "one_column_text", "one_column_float", "no_rows", "header"])
def test_write_csv_matches_the_stdlib_writer(tmp_path, header, rows):
    write_csv(str(tmp_path / "new.csv"), header, rows)
    _stdlib_csv(str(tmp_path / "old.csv"), header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_matches_the_stdlib_writer_across_chunks(tmp_path):
    """A table longer than one chunk, given as a generator, with a column whose
    type and quoting change from one chunk to the next."""
    n = 2 * reports._CSV_CHUNK + 17
    rng = np.random.default_rng(5)
    values = rng.standard_normal(n).tolist()
    mixed = [values[i] if i < reports._CSV_CHUNK else ("a,b" if i % 7 == 0 else i)
             for i in range(n)]
    rows = [(f"y{i % 61}", values[i], mixed[i]) for i in range(n)]
    write_csv(str(tmp_path / "new.csv"), ["y", "k", "m"], (row for row in rows))
    _stdlib_csv(str(tmp_path / "old.csv"), ["y", "k", "m"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "t.csv"), ["a", "b"], [(1.0, 2.0), (3.0,)])


def _heat_color(t):
    """Five-stop blue-to-red map on [0, 1], one cell at a time."""
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


def _per_cell_heatmap(path, xs, ys, values, title, xlabel, ylabel, level):
    """The heatmap drawn cell by cell, formatting every cell's corner and colour."""
    ml, mt, pw, ph = reports._plot_area(reports._HEAT_PAGE)
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
    return reports._svg_page(path, reports._HEAT_PAGE, title, xlabel, ylabel, parts, [note])


def _grid(seed, ny, nx):
    return (1.0 + 0.3 * np.random.default_rng(seed).standard_normal((ny, nx))).tolist()


@pytest.mark.parametrize("values, level", [
    # t = v / 4 lands on every stop, and t = 1/8, 3/8, ... puts each channel's
    # weight at one half, where rounding goes to the even neighbour.
    ([[0.0, 0.5, 1.0], [1.5, 2.0, 2.5], [3.0, 3.5, 4.0]], 2.0),
    ([[0.7, 0.7], [0.7, 0.7]], 0.7),
    # Non-square, 4 x 2 over [0, 8]: span = 1, so 3 and 5 lie exactly at the
    # outline span around 4, and 2.75 and 5.25 just outside it.
    ([[0.0, 3.0, 5.0, 8.0], [2.75, 4.0, 5.25, 6.0]], 4.0),
    (_grid(3, 7, 11), 1.0),
    (_grid(4, 41, 41), 1.0),
    ([[1.0, float("nan"), 0.0], [0.5, 2.0, 1.5]], 1.0),
], ids=["stops", "constant", "span_edges", "nonsquare", "chart_size", "nan_cell"])
def test_svg_heatmap_matches_the_per_cell_renderer(tmp_path, values, level):
    ny, nx = len(values), len(values[0])
    xs = np.linspace(-1.5, 2.5, nx).tolist()
    ys = np.linspace(0.25, 3.0, ny).tolist()
    args = (xs, ys, values, "Perron value, test", "u1", "u2", level)
    svg_heatmap(str(tmp_path / "new.svg"), *args)
    _per_cell_heatmap(str(tmp_path / "old.svg"), *args)
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()
