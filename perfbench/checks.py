"""Output checks for one CLI process of the benchmark.

Every run is held to the program's own certificates:

* ``converge-c``: ``max_monotone_violation <= 1e-10``,
  ``max_start_agreement <= 10 * tol`` and every ``h2_delta_ok`` is 1;

and every CSV it writes must hold finite numbers.  For the default seed
the outputs are also compared with the stored references in ``refs/``:
fields relative to their own scale, sweep gaps and growth rates
absolutely at the accuracy the program certifies (a gap is a difference of O(1) states, so a relative test
would read a harmless 7e-11 shift of a 5e-6 gap as 1e-5).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

_EXPECTED = {
    "simulate": ("snapshots.csv",),
    "converge-a": ("report.csv",),
    "converge-b": ("report.csv",),
    "converge-c": ("report.csv",),
}

#: Largest number of rows of one file kept in a reference.
REFERENCE_ROWS = 400

_COORDINATE = ("abs", 1e-12)


def read_run_record(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Split ``run.txt`` into its ``# key: value`` outcome lines and its config."""
    outcome, resolved = {}, {}
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            outcome[key] = value
        elif " = " in line:
            key, value = line.split(" = ", 1)
            resolved[key] = value
    return outcome, resolved


def read_table(path: Path) -> tuple[list[str], list[list]]:
    """Read a CSV: numeric cells become floats, empty cells None, others stay text."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            if cell == "":
                row.append(None)
                continue
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows


def certificate_problems(command: str, out_dir: Path) -> list[str]:
    """Problems with one process's outputs that need no reference."""
    problems = []
    record = out_dir / "run.txt"
    if not record.is_file():
        return [f"{out_dir.name}: run.txt missing"]
    outcome, resolved = read_run_record(record)
    for name in _EXPECTED[command]:
        if not (out_dir / name).is_file():
            problems.append(f"{out_dir.name}: {name} missing")
    if problems:
        return problems
    tables = {}  # only the small index and report tables stay in memory
    for path in sorted(out_dir.glob("*.csv")):
        header, rows = read_table(path)
        tables[path.name] = (header, rows) if len(rows) < 100 else None
        for row in rows:
            if len(row) != len(header):
                problems.append(f"{out_dir.name}/{path.name}: ragged row {row}")
                break
            if any(isinstance(v, float) and not math.isfinite(v) for v in row):
                problems.append(f"{out_dir.name}/{path.name}: non-finite value in {row}")
                break
    tol = float(resolved.get("tol", "nan"))
    if command == "converge-c":
        violation = float(outcome.get("max_monotone_violation", "nan"))
        agreement = float(outcome.get("max_start_agreement", "nan"))
        if not violation <= 1e-10:
            problems.append(f"converge-c: max_monotone_violation {violation!r} > 1e-10")
        if not agreement <= 10.0 * tol:
            problems.append(f"converge-c: max_start_agreement {agreement!r} > 10*tol")
        header, rows = tables["report.csv"]
        flags = [row[header.index("h2_delta_ok")] for row in rows]
        if flags != [1.0] * len(rows):
            problems.append(f"converge-c: h2_delta_ok {flags} not all 1")
    elif command == "simulate":
        header, rows = tables["snapshots.csv"]
        missing = [row[2] for row in rows if row[2] not in tables]
        if missing:
            problems.append(f"simulate: snapshot files missing: {missing}")
    return problems


def _tolerances(command: str, file_name: str, tol: float) -> dict[str, tuple[str, float] | None]:
    """Per column: ``("abs", t)``, ``("rel", t)`` of the column's scale, or None to skip."""
    if file_name == "report.csv":
        if command == "converge-c":
            # states are certified to 10*tol; invasion rates use tol 1e-9
            return {"sup_gap": ("abs", 10.0 * tol), "h2_delta_lambda": ("abs", 1e-8)}
        if command == "converge-b":
            return {name: ("abs", 10.0 * tol) for name in ("lambda_delta", "lambda_r", "abs_gap")}
        # converge-a: solution distances; solves are held to 1e-10 relative
        return {"error": ("abs", 1e-9), "empirical_order": ("abs", 1e-4)}
    if file_name == "snapshots.csv":
        return {"time": _COORDINATE}
    # snapshot fields of simulate
    return {"x": _COORDINATE, "y": _COORDINATE, "value": ("rel", 1e-8)}


def reference_entry(path: Path) -> dict:
    """A reference for one CSV: every ``stride``-th row of it."""
    header, rows = read_table(path)
    stride = max(1, math.ceil(len(rows) / REFERENCE_ROWS))
    return {"header": header, "rows": len(rows), "stride": stride, "data": rows[::stride]}


def write_references(path: Path, out_dirs: dict[str, Path]) -> None:
    """Store the CSV outputs of each process directory as a reference file."""
    files = {}
    for name, out_dir in sorted(out_dirs.items()):
        for csv in sorted(out_dir.glob("*.csv")):
            files[f"{name}/{csv.name}"] = reference_entry(csv)
    path.write_text(json.dumps({"files": files}, indent=0) + "\n", encoding="ascii")


def reference_problems(command: str, name: str, out_dir: Path, reference: dict) -> list[str]:
    """Differences between one process's outputs and the stored reference."""
    problems = []
    tol = float(read_run_record(out_dir / "run.txt")[1].get("tol", "nan"))
    wanted = {key.split("/", 1)[1]: entry for key, entry in reference["files"].items()
              if key.split("/", 1)[0] == name}
    produced = {p.name for p in out_dir.glob("*.csv")}
    if produced != set(wanted):
        return [f"{name}: files {sorted(produced)} differ from reference {sorted(wanted)}"]
    for file_name, entry in sorted(wanted.items()):
        header, rows = read_table(out_dir / file_name)
        if header != entry["header"] or len(rows) != entry["rows"]:
            problems.append(f"{name}/{file_name}: shape differs from reference")
            continue
        rows = rows[:: entry["stride"]]
        rules = _tolerances(command, file_name, tol)
        for col, column in enumerate(header):
            rule = rules.get(column, ("abs", 0.0))
            if rule is None:
                continue
            expect = [row[col] for row in entry["data"]]
            got = [row[col] for row in rows]
            kind, bound = rule
            if kind == "rel":
                bound *= max((abs(v) for v in expect if isinstance(v, float)), default=0.0)
            worst = 0.0
            for a, b in zip(got, expect):
                if isinstance(a, float) and isinstance(b, float):
                    worst = max(worst, abs(a - b))
                elif a != b:
                    worst = math.inf
            if not worst <= bound:
                problems.append(
                    f"{name}/{file_name}: column {column} off reference by {worst:.3e} > {bound:.3e}"
                )
    return problems
