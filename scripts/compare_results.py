#!/usr/bin/env python3
"""Print how far the numbers in one results directory moved from another's.

Usage: ``python3 compare_results.py OLD NEW``

Pairs the CSV and ``run.txt`` files of the two directory trees by relative
path.  For each CSV pair it prints, per numeric column, the largest
absolute shift between the two files and that shift relative to the
column's largest magnitude on either side; cells empty on either side are
skipped.  A CSV pair whose headers differ, or whose row counts differ
(``rows 257 -> 256``), is named with that reason instead.  A ``run.txt`` pair is read the same way from its ``# key: value``
outcome lines whose value is a list (``[a, b, ...]``, one column of cells)
or starts with a number (each number its own column, ``key[i]`` when there
are several); the configuration lines are not compared.  Then it lists the
files found on one side only.  It reports and never judges: the exit
status is 0 whatever moved (2 on a usage error).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from dispersal.reports import read_csv_table

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _shifts(columns) -> list[tuple[str, float, float]]:
    """``(name, largest shift, relative shift)`` per column of ``(old, new)`` text cells.

    Columns with a nonempty non-numeric cell are text and skipped, as are
    cells empty on either side.
    """
    shifts = []
    for name, cells in columns:
        if any(_number(c) is None for pair in cells for c in pair if c):
            continue  # a text column
        pairs = [(float(a), float(b)) for a, b in cells if a and b]
        if pairs:
            shift = max(abs(y - x) for x, y in pairs)
            scale = max(max(abs(x), abs(y)) for x, y in pairs)
            shifts.append((name, shift, shift / scale if scale else 0.0))
    return shifts


def column_shifts(old: Path, new: Path) -> list[tuple[str, float, float]] | str:
    """Shifts per numeric CSV column, or why the files cannot be paired: the headers
    differ, or the row counts (``rows 257 -> 256``)."""
    header, rows = read_csv_table(old)
    new_header, new_rows = read_csv_table(new)
    if new_header != header:
        return "header differs"
    if len(new_rows) != len(rows):
        return f"rows {len(rows)} -> {len(new_rows)}"
    return _shifts(
        (name, [(a[j], b[j]) for a, b in zip(rows, new_rows)]) for j, name in enumerate(header)
    )


def _outcome_columns(path: Path) -> dict[str, list[str]]:
    """The numeric ``# key: value`` outcome lines of a ``run.txt``, as named columns of cells."""
    columns = {}
    for line in path.read_text().splitlines():
        key, colon, value = line.removeprefix("# ").partition(": ")
        if not line.startswith("# ") or not colon:
            continue
        if value.startswith("[") and value.endswith("]"):
            columns[key] = value[1:-1].split(", ")
        elif _NUMBER.match(value):
            numbers = _NUMBER.findall(value)
            names = [key] if len(numbers) == 1 else [f"{key}[{i}]" for i in range(len(numbers))]
            columns.update((name, [number]) for name, number in zip(names, numbers))
    return columns


def outcome_shifts(old: Path, new: Path) -> list[tuple[str, float, float]] | str:
    """Shifts per numeric outcome line of two ``run.txt`` files, or ``"outcome lines differ"``
    if they differ in name or length."""
    old_columns, new_columns = _outcome_columns(old), _outcome_columns(new)
    if old_columns.keys() != new_columns.keys() or any(
        len(cells) != len(new_columns[key]) for key, cells in old_columns.items()
    ):
        return "outcome lines differ"
    return _shifts((key, list(zip(cells, new_columns[key]))) for key, cells in old_columns.items())


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = Path(argv[1]), Path(argv[2])
    old_files, new_files = _files(old), _files(new)
    for path in sorted(old_files & new_files):
        if path.suffix == ".csv":
            shifts = column_shifts(old / path, new / path)
        elif path.name == "run.txt":
            shifts = outcome_shifts(old / path, new / path)
        else:
            continue
        if isinstance(shifts, str):
            print(f"{path}: {shifts}")
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
