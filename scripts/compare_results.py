#!/usr/bin/env python3
"""Print how far the numbers in one results directory moved from another's.

Usage: ``python3 compare_results.py OLD NEW``

Pairs the CSV files of the two directory trees by relative path.  For each
pair it prints, per numeric column, the largest absolute shift between the
two files and that shift relative to the column's largest magnitude on
either side; cells empty on either side are skipped.  Then it lists the
files found on one side only.  It reports and never judges: the exit
status is 0 whatever moved (2 on a usage error).
"""

from __future__ import annotations

import sys
from pathlib import Path

from dispersal.reports import read_csv_table


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_shifts(old: Path, new: Path) -> list[tuple[str, float, float]] | None:
    """``(column, largest shift, relative shift)`` per numeric column; ``None`` if the
    headers or row counts differ."""
    header, rows = read_csv_table(old)
    new_header, new_rows = read_csv_table(new)
    if new_header != header or len(new_rows) != len(rows):
        return None
    shifts = []
    for j, name in enumerate(header):
        cells = [(a[j], b[j]) for a, b in zip(rows, new_rows)]
        if any(_number(c) is None for pair in cells for c in pair if c):
            continue  # a text column
        pairs = [(float(a), float(b)) for a, b in cells if a and b]
        if pairs:
            shift = max(abs(y - x) for x, y in pairs)
            scale = max(max(abs(x), abs(y)) for x, y in pairs)
            shifts.append((name, shift, shift / scale if scale else 0.0))
    return shifts


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = Path(argv[1]), Path(argv[2])
    old_files, new_files = _files(old), _files(new)
    for path in sorted(p for p in old_files & new_files if p.suffix == ".csv"):
        shifts = column_shifts(old / path, new / path)
        if shifts is None:
            print(f"{path}: header or row count differs")
            continue
        print(path)
        for name, shift, relative in shifts:
            print(f"  {name:>16s}  max shift {shift:.3e}  relative {relative:.3e}")
    for side, only in (("OLD", old_files - new_files), ("NEW", new_files - old_files)):
        for path in sorted(only):
            print(f"only in {side}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
