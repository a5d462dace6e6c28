"""End-to-end runs of the command-line front end, in-process and via subprocess."""

import subprocess
import sys

import numpy as np
import pytest

from dispersal.cli import main
from dispersal.reports import read_csv_table


def write_config(tmp_path, name, **keys):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="ascii")
    return path


SIMULATE_KEYS = dict(
    bc="periodic",
    period="2*pi",
    h="2*pi/64",
    dt="0.05",
    t_final="0.25",
    u0="sine-mode(1)",
    delta="0.5",
    snapshots="4",
)

CONVERGE_A_KEYS = dict(
    bc="neumann",
    lower="0",
    upper="1",
    h="1/64",
    dt="0.05",
    t_final="0.25",
    u0="cosine-mode(1)",
    deltas="0.4, 0.2",
)


# --------------------------------------------------------------------- #
# happy paths                                                            #
# --------------------------------------------------------------------- #


def test_simulate_writes_snapshots_index_and_record(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.cfg", **SIMULATE_KEYS)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "snapshots.csv")
    assert header == ["index", "time", "file"]
    assert [r[2] for r in rows] == [f"snapshot_{i:03d}.csv" for i in range(len(rows))]
    for _, time_text, name in rows:
        snap_header, snap_rows = read_csv_table(out / name)
        assert snap_header == ["x", "value"]
        assert len(snap_rows) == 64
    record = (out / "run.txt").read_text()
    assert record.startswith("# dispersal run record\n")
    assert "experiment = simulate" in record
    assert "kind = nonlocal" in record  # defaults are echoed
    assert "final sup norm" in capsys.readouterr().out


def test_first_and_last_snapshots_bracket_the_run(tmp_path):
    cfg = write_config(tmp_path, "sim.cfg", **SIMULATE_KEYS)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    _, rows = read_csv_table(out / "snapshots.csv")
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == 0.25
    # the stored start equals sin(x) sampled on the cell
    _, snap_rows = read_csv_table(out / rows[0][2])
    x = np.array([float(r[0]) for r in snap_rows])
    values = np.array([float(r[1]) for r in snap_rows])
    assert np.max(np.abs(values - np.sin(x))) == 0.0


def test_converge_a_report_and_rerun_from_the_record(tmp_path):
    cfg = write_config(tmp_path, "a.cfg", **CONVERGE_A_KEYS)
    first = tmp_path / "first"
    assert main(["converge-a", "--config", str(cfg), "--out", str(first)]) == 0
    header, rows = read_csv_table(first / "report.csv")
    assert header == ["delta", "error", "empirical_order"]
    assert len(rows) == 2 and rows[0][2] == ""  # no predecessor for the first row
    errors = [float(r[1]) for r in rows]
    assert errors[0] > errors[1] > 0.0

    # the run record is itself a config for the same experiment
    second = tmp_path / "second"
    assert main(["converge-a", "--config", str(first / "run.txt"), "--out", str(second)]) == 0
    assert (second / "report.csv").read_bytes() == (first / "report.csv").read_bytes()


def test_spectrum_writes_rate_and_eigenfunction(tmp_path):
    cfg = write_config(
        tmp_path,
        "s.cfg",
        bc="neumann",
        lower="0",
        upper="1",
        h="1/32",
        dt="0.05",
        T="1",
        delta="0.3",
        coefficient="const(0.35)",
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "spectrum.csv")
    assert header == ["lambda", "iterations", "residual", "principal_eigenvalue"]
    assert len(rows) == 1
    assert abs(float(rows[0][0]) - 0.35) <= 1e-8
    assert rows[0][3] == "1"
    _, nodes = read_csv_table(out / "eigenfunction.csv")
    assert len(nodes) == 33


def test_kpp_orbit_writes_the_orbit_table(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "k.cfg",
        bc="neumann",
        lower="0",
        upper="1",
        h="1/32",
        dt="1/32",
        T="1",
        delta="0.3",
        growth="logistic(const(1))",
    )
    out = tmp_path / "out"
    assert main(["kpp-orbit", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "orbit.csv")
    assert header == ["t", "x", "value"]
    assert len(rows) == 32 * 33  # snapshots x nodes
    assert all(abs(float(r[2]) - 1.0) <= 1e-6 for r in rows[:40])
    assert "interior minimum" in capsys.readouterr().out


def test_converge_b_space_free_gap_is_roundoff(tmp_path):
    cfg = write_config(
        tmp_path,
        "b.cfg",
        bc="neumann",
        lower="0",
        upper="1",
        h="1/64",
        dt="0.025",
        T="0.5",
        coefficient="time-sine(0.4,0.7)",
        deltas="0.4, 0.2",
    )
    out = tmp_path / "out"
    assert main(["converge-b", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "report.csv")
    assert header == ["delta", "lambda_delta", "lambda_r", "abs_gap", "pev_criterion"]
    assert all(float(r[3]) <= 1e-7 for r in rows)
    assert all(r[4] == "1" for r in rows)


def test_converge_c_constant_orbit_gap_is_tolerance_level(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.cfg",
        bc="neumann",
        lower="0",
        upper="1",
        h="1/64",
        dt="1/32",
        T="1",
        growth="logistic(const(1))",
        deltas="0.4, 0.2",
    )
    out = tmp_path / "out"
    assert main(["converge-c", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "report.csv")
    assert header == ["delta", "sup_gap", "h2_delta_lambda", "h2_delta_ok"]
    assert all(float(r[1]) <= 1e-7 for r in rows)
    assert all(r[3] == "1" for r in rows)


def test_two_dimensional_snapshots_carry_both_coordinates(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim2.cfg",
        bc="periodic",
        dimension="2",
        period="2*pi",  # broadcast to both axes
        h="2*pi/16",
        dt="0.05",
        t_final="0.1",
        u0="cosine-mode(1)",
        delta="2.0",
        snapshots="1",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "snapshot_000.csv")
    assert header == ["x", "y", "value"]
    assert len(rows) == 16 * 16
    record = (out / "run.txt").read_text()
    assert "period = " in record and record.count("6.283185307179586") >= 2


# --------------------------------------------------------------------- #
# failure modes and exit codes                                           #
# --------------------------------------------------------------------- #


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_coarse_grid_for_the_sweep_exits_2(tmp_path, capsys):
    keys = dict(CONVERGE_A_KEYS, h="0.1", deltas="0.2")
    cfg = write_config(tmp_path, "bad.cfg", **keys)
    assert main(["converge-a", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "min(deltas)/8" in capsys.readouterr().err


def test_experiment_key_must_match_the_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "x.cfg", experiment="spectrum", **SIMULATE_KEYS)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "runner was invoked" in capsys.readouterr().err


def test_stray_keys_exit_2_with_their_names(tmp_path, capsys):
    cfg = write_config(tmp_path, "x.cfg", detlas="0.4", **SIMULATE_KEYS)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'detlas'" in capsys.readouterr().err


def test_bad_boundary_condition_and_u0_exit_2(tmp_path, capsys):
    keys = dict(SIMULATE_KEYS, bc="absorbing")
    cfg = write_config(tmp_path, "x.cfg", **keys)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "boundary condition" in capsys.readouterr().err
    keys = dict(SIMULATE_KEYS, u0="spike(1)")
    cfg = write_config(tmp_path, "y.cfg", **keys)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown u0" in capsys.readouterr().err


def test_non_invadable_growth_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "k.cfg",
        bc="neumann",
        lower="0",
        upper="1",
        h="1/32",
        dt="1/32",
        T="1",
        delta="0.3",
        growth="logistic(const(-1))",
    )
    assert main(["kpp-orbit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "not invadable" in err and "no positive periodic state" in err


def test_the_retired_jobs_key_and_flag_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "a.cfg", jobs="2", **CONVERGE_A_KEYS)
    assert main(["converge-a", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key(s): 'jobs'" in capsys.readouterr().err
    cfg = write_config(tmp_path, "b.cfg", **CONVERGE_A_KEYS)
    with pytest.raises(SystemExit) as exit_info:
        main(["converge-a", "--config", str(cfg), "--jobs", "2"])
    assert exit_info.value.code == 2


# --------------------------------------------------------------------- #
# the installed entry point                                              #
# --------------------------------------------------------------------- #


def test_help_lists_every_experiment():
    result = subprocess.run(
        [sys.executable, "-m", "dispersal.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    for name in ("simulate", "spectrum", "kpp-orbit", "converge-a", "converge-b", "converge-c"):
        assert name in result.stdout
