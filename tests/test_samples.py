"""The seven sample configs reproduce their committed outputs in ``scripts/results``.

Outputs are compared number by number, not byte by byte: floats drift in
their last digits across numpy/scipy builds.  Each sample gets the
tolerance its run certifies: implicit solves to relative residual 1e-10,
power iteration to 1e-9, periodic orbits to 1e-8.  A number may move by
that tolerance times its column's scale (the column's largest magnitude,
at least 1, since every sample's fields and rates are of order one and
the gap columns are differences of such quantities).  ``empirical_order``
is left out: it is a function of the ``delta`` and ``error`` columns next
to it, and amplifies their drift by the inverse of the smallest error.
The resolved configuration in each ``run.txt`` must match exactly.
``scripts/compare_results.py``, which reports such drift between two
results trees, is checked here too, and so is ``scripts/code_lines.py``,
which counts the package's code lines for ``scripts/run_all.sh``.
"""

import importlib.util
from pathlib import Path

import pytest

from dispersal.cli import main
from dispersal.reports import read_csv_table

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SAMPLES = [
    ("simulate", "simulate_periodic_wave", 1e-10),
    ("simulate", "simulate_box_2d", 1e-10),
    ("spectrum", "spectrum_pinned_zero", 1e-9),
    ("kpp-orbit", "kpp_orbit_seasonal", 1e-8),
    ("converge-a", "converge_a_neumann", 1e-10),
    ("converge-b", "converge_b_dirichlet", 1e-9),
    ("converge-c", "converge_c_periodic", 1e-8),
]

DERIVED_COLUMNS = {"empirical_order"}


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _config_lines(path: Path) -> list[str]:
    """The resolved config of a ``run.txt``, less ``out``, which names the run's directory."""
    lines = path.read_text(encoding="ascii").splitlines()
    return [line for line in lines if not line.startswith(("#", "out = "))]


def _csv_mismatches(expected: Path, produced: Path, tol: float) -> list[str]:
    header, rows = read_csv_table(expected)
    got_header, got_rows = read_csv_table(produced)
    if got_header != header or len(got_rows) != len(rows):
        return [f"{expected.name}: header or row count differs"]
    problems = []
    for j, name in enumerate(header):
        if name in DERIVED_COLUMNS:
            continue
        numbers = [_as_float(row[j]) for row in rows]
        scale = max([1.0] + [abs(v) for v in numbers if v is not None])
        for i, (want, row) in enumerate(zip(numbers, got_rows)):
            got = _as_float(row[j])
            if want is None or got is None:
                if row[j] != rows[i][j]:
                    problems.append(f"{expected.name} row {i} {name}: {row[j]!r} != {rows[i][j]!r}")
            elif abs(got - want) > tol * scale:
                problems.append(
                    f"{expected.name} row {i} {name}: {got!r} vs {want!r} "
                    f"(gap {abs(got - want):.2e} > {tol * scale:.2e})"
                )
    return problems


@pytest.mark.parametrize("command,name,tol", SAMPLES, ids=[s[1] for s in SAMPLES])
def test_sample_config_reproduces_its_committed_results(tmp_path, command, name, tol):
    expected_dir = SCRIPTS / "results" / name
    config = SCRIPTS / "configs" / f"{name}.cfg"
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    expected_files = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected_files
    assert _config_lines(tmp_path / "run.txt") == _config_lines(expected_dir / "run.txt")
    problems = []
    for file_name in expected_files:
        if file_name.endswith(".csv"):
            problems += _csv_mismatches(expected_dir / file_name, tmp_path / file_name, tol)
    assert not problems, "\n".join(problems[:10])


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_results_reports_a_known_shift(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, error in ((old, "0.25"), (new, "0.75")):
        (root / "sweep").mkdir(parents=True)
        (root / "sweep" / "report.csv").write_text(
            f"delta,error,empirical_order,label\n0.4,2.0,,a\n0.2,{error},3.0,b\n"
        )
    (old / "gone.csv").write_text("x\n1.0\n")
    (old / "short.csv").write_text("x\n1.0\n2.0\n")
    (new / "short.csv").write_text("x\n1.0\n")
    (old / "renamed.csv").write_text("x\n1.0\n")
    (new / "renamed.csv").write_text("y\n1.0\n")
    (new / "sweep" / "run.txt").write_text("h = 0.01\n")
    for root, order, low, h in ((old, "2.0", "0.5", "0.01"), (new, "2.5", "0.25", "0.02")):
        (root / "trace").mkdir()
        (root / "trace" / "run.txt").write_text(
            "# dispersal run record\n# sweep: one row per radius (3 rows)\n"
            f"# gap_orders: [, {order}, 1.0]\n# interior minimum: {low} (bound 2.0)\n"
            f"# kernel: quartic-polynomial\nh = {h}\n"
        )
    assert _script("compare_results").main(["compare_results.py", str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["renamed.csv: header differs", "short.csv: rows 2 -> 1", "sweep/report.csv"]
    # name, "max shift", shift, "relative", relative
    rows = [line.strip().rsplit(maxsplit=5) for line in lines[3:6] + lines[7:10]]
    shifts = {row[0]: (row[3], row[5]) for row in rows}
    assert shifts == {
        "delta": ("0.000e+00", "0.000e+00"),
        "error": ("5.000e-01", "2.500e-01"),  # relative to the column's largest magnitude, 2
        "empirical_order": ("0.000e+00", "0.000e+00"),
        "gap_orders": ("5.000e-01", "2.000e-01"),  # the empty first entry is skipped
        "interior minimum[0]": ("2.500e-01", "5.000e-01"),
        "interior minimum[1]": ("0.000e+00", "0.000e+00"),
    }
    assert lines[6] == "trace/run.txt"  # the row count and the config lines are not compared
    assert lines[10:] == ["only in OLD: gone.csv", "only in NEW: sweep/run.txt"]


def test_code_lines_leaves_out_blank_comment_and_docstring_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        "\n\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        '    text = """a string,\n'
        'not a docstring"""\n'
        "    return (x +\n"
        "            len(text))\n"
        "\n\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    value = os.sep\n"
    )
    # import, def, the string's two lines, the return's two lines, class, value
    assert _script("code_lines").code_lines(str(source)) == 8
