#!/usr/bin/env python3
"""Print every cell that differs between two output trees of scripts/bench_outputs.py.

Usage: python scripts/diff_outputs.py OLD NEW

CSV files are compared cell by cell (row number and column name), JSON
files leaf by leaf (key path), and any other text file line by line.
Where two cells differ only in their numbers, with the same text around
them, the line reads

    file<TAB>where<TAB>old<TAB>new<TAB>rel=<largest relative difference>

and is a numeric difference.  Any other difference (different text, a key,
row or file present on one side only) is printed verbatim, without rel=,
and makes the exit code 1; numeric differences alone exit 0.
"""
import csv
import json
import os
import re
import sys

# A number standing alone: not part of a word such as z2, a^2 or x_1.
_NUMBER = re.compile(r"(?<![\w^.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.^])")


def _relative(old: float, new: float) -> float:
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if scale else 0.0


def _compare_text(old: str, new: str) -> float | None:
    """Largest relative difference of the numbers of two texts that differ only
    in their numbers, or None when the text around the numbers differs."""
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    pairs = zip(_NUMBER.findall(old), _NUMBER.findall(new))
    return max(_relative(float(a), float(b)) for a, b in pairs)


def _leaves(value, where: str = ""):
    """(key path, leaf) pairs of a parsed JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{where}/{key}" if where else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{where}[{i}]")
    else:
        yield where, value


def _cells(path: str) -> dict[str, str]:
    """Location -> text of every cell of a file, in file order."""
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        if path.endswith(".csv"):
            rows = list(csv.reader(fh))
            header = rows[0] if rows else []
            return {f"{k}/{header[c] if c < len(header) else c}": cell
                    for k, row in enumerate(rows[1:], start=1) for c, cell in enumerate(row)}
        if path.endswith(".json"):
            return {where: json.dumps(leaf) for where, leaf in _leaves(json.load(fh))}
        return {f"line {k}": line.rstrip("\n") for k, line in enumerate(fh, start=1)}


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def diff_trees(old_root: str, new_root: str) -> tuple[list[str], bool]:
    """The difference lines, and whether any of them is not numeric."""
    lines, structural = [], False
    old_files, new_files = _files(old_root), _files(new_root)
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            lines.append(f"{name}\tonly in {'OLD' if name in old_files else 'NEW'}")
            structural = True
            continue
        old, new = _cells(os.path.join(old_root, name)), _cells(os.path.join(new_root, name))
        for where in list(old) + [w for w in new if w not in old]:
            a, b = old.get(where), new.get(where)
            if a == b:
                continue
            rel = None if a is None or b is None else _compare_text(a, b)
            if rel is None:
                structural = True
                lines.append(f"{name}\t{where}\t{a}\t{b}")
            else:
                lines.append(f"{name}\t{where}\t{a}\t{b}\trel={rel:.2g}")
    return lines, structural


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    lines, structural = diff_trees(sys.argv[1], sys.argv[2])
    for line in lines:
        print(line)
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
