"""End-to-end runs of the command-line front end, in-process and via subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dispersal
from dispersal import (
    MOLLIFIER,
    QUARTIC,
    BoundaryCondition,
    assemble_nonlocal,
    box,
    build_grid,
    cli,
    evolution,
    field_from_function,
    kernel_profile,
    kpp,
    periodic_cell,
)
from dispersal.cli import main
from dispersal.evolution import _uniform_snapshot_steps
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

KPP_ORBIT_KEYS = dict(
    bc="periodic",
    period="2*pi",
    h="2*pi/32",
    dt="1/16",
    T="1",
    kind="local",
    growth="logistic(const(1))",
    orbit_snapshots="4",
)

CONVERGE_C_KEYS = dict(
    bc="periodic",
    period="2*pi",
    h="2*pi/128",
    dt="1/16",
    T="1",
    growth="logistic(const(1))",
    deltas="0.8, 0.4",
    orbit_snapshots="4",
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
    assert len(nodes) == 32  # one node per cell


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
    assert len(rows) == 32 * 32  # snapshots x nodes
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


def _record_meta(out):
    """The ``# key: value`` outcome lines of a run's record, as strings."""
    return dict(
        line[2:].split(": ", 1) for line in (out / "run.txt").read_text().splitlines()
        if line.startswith("# ") and ": " in line
    )


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


@pytest.mark.parametrize(
    "mean, amplitude, deltas, rates, local_rate",
    [
        (-0.3, 6, (3.0, 1.5), (-0.2091910650873169, -0.04152978405468828), 0.0381502108002892),
        (-0.9, 14, (3.0, 2.5), (-0.31752552021882513, -0.06051630635422927), 0.8819444626530836),
    ],
    ids=["near-threshold", "fast-contracting"],
)
def test_converge_c_records_a_gapless_row_for_each_radius_that_cannot_invade(
    tmp_path, mean, amplitude, deltas, rates, local_rate
):
    # a = mean + amplitude sin(4 pi t) cos(3x) has time average mean.  Its
    # rate exceeds that average by more the closer the dispersal rate of
    # cos(3x) is to the forcing frequency 4 pi, from below: diffusion's 9
    # is closer than either wide jump operator's, so diffusion invades, the
    # jump operators do not, both radii get gapless rows and only the
    # reference is bracketed.  Near the threshold (local rate 0.038) the
    # brackets contract by about 0.98 a period, so a bracket that stopped
    # once a period moved it by less than tol would stop about 50 tol short
    # of the state, and the limits would disagree by more than 10 tol.
    cfg = write_config(
        tmp_path,
        "c.cfg",
        bc="periodic",
        period="2*pi",
        h="2*pi/64",
        dt="1/32",
        T="0.5",
        deltas=",".join(map(repr, deltas)),
        growth=f"logistic(tx-product({mean},{amplitude},3))",
        orbit_snapshots="16",
    )
    out = tmp_path / "out"
    assert main(["converge-c", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "report.csv")
    assert header == ["delta", "sup_gap", "h2_delta_lambda", "h2_delta_ok"]
    assert [(r[0], r[1], r[3]) for r in rows] == [(repr(d), "nan", "0") for d in deltas]
    assert [float(r[2]) for r in rows] == pytest.approx(rates, abs=1e-8)
    meta = _record_meta(out)
    assert float(meta["local_rate"]) == pytest.approx(local_rate, abs=1e-8)
    assert float(meta["max_start_agreement"]) <= 10 * 1e-8


@pytest.mark.parametrize(
    "habitat",
    [dict(bc="periodic", period="2*pi"), dict(bc="neumann", lower="0", upper="2*pi")],
    ids=["periodic", "neumann"],
)
def test_a_flat_unit_orbit_settles_at_a_fine_step(tmp_path, habitat):
    # With a Heun reaction inside the dispersal solve, a constant row's
    # solve kept its warm start whenever dt |u (1 - u)| < 1e-10 |b|, so
    # both brackets froze about 1e-10 / dt short of 1, on opposite sides,
    # and at dt = 1/1024 disagreed by 2.0e-7.  The reaction now flows
    # exactly and the solve starts from the flowed rows.
    cfg = write_config(
        tmp_path,
        "k.cfg",
        **habitat,
        kind="local",
        h="2*pi/64",
        dt="1/1024",
        T="1",
        growth="logistic(const(1))",
        orbit_snapshots="4",
    )
    out = tmp_path / "out"
    assert main(["kpp-orbit", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "orbit.csv")
    assert header == ["t", "x", "value"] and len(rows) == 4 * 64
    assert max(abs(float(r[2]) - 1.0) for r in rows) <= 10 * 1e-8


def test_two_dimensional_converge_a_follows_each_radius_sine_mode_oracle(tmp_path):
    # sin(x) is an eigenvector of every periodic operator on the cell, so
    # each run is the mode times exp(t lam), lam its symbol, and each error
    # is the largest gap between two such exponentials.
    nodes, dt, steps = 64, 0.05, 10
    cfg = write_config(
        tmp_path,
        "a2.cfg",
        bc="periodic",
        dimension="2",
        period="2*pi",
        h=f"2*pi/{nodes}",
        dt=repr(dt),
        t_final=repr(steps * dt),
        deltas="1.6,0.8",
        u0="sine-mode(1)",
        snapshots="4",
    )
    out = tmp_path / "out"
    assert main(["converge-a", "--config", str(cfg), "--out", str(out)]) == 0
    h = 2.0 * np.pi / nodes
    grid = build_grid(periodic_cell([2.0 * np.pi] * 2), h)

    def factor(lam):
        return np.exp(dt * lam)

    local = factor((2.0 * np.cos(h) - 2.0) / h**2)
    marks = _uniform_snapshot_steps(steps, 4)
    header, rows = read_csv_table(out / "report.csv")
    assert header == ["delta", "error", "empirical_order"] and len(rows) == 2
    for row, delta in zip(rows, (1.6, 0.8)):
        op = assemble_nonlocal(grid, kernel_profile(QUARTIC, 2), delta, "periodic")
        lam = sum(w * (np.cos(o[0] * h) - 1.0) for o, w in op.offsets)
        expected = max(abs(factor(lam) ** k - local**k) for k in marks)
        assert float(row[0]) == delta
        assert abs(float(row[1]) - expected) <= 1e-12
    assert float(rows[0][1]) > float(rows[1][1]) > 0.0


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


@pytest.mark.parametrize("family", [QUARTIC, MOLLIFIER])
def test_two_dimensional_periodic_run_follows_the_sine_mode_oracle(tmp_path, family):
    # A separable sine mode is an eigenvector of the periodic jump operator,
    # so each step of its exact flow multiplies it by exp(dt lam).
    nodes, dt, steps = 32, 0.05, 5
    cfg = write_config(
        tmp_path,
        "sim2.cfg",
        bc="periodic",
        dimension="2",
        period="2*pi",
        h=f"2*pi/{nodes}",
        dt=repr(dt),
        t_final=repr(steps * dt),
        u0="sine-mode(1)",
        delta=f"4*2*pi/{nodes}",
        kernel=family,
        snapshots="1",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    h = 2.0 * np.pi / nodes
    grid = build_grid(periodic_cell([2.0 * np.pi] * 2), h)
    op = assemble_nonlocal(grid, kernel_profile(family, 2), 4.0 * h, "periodic")
    lam = sum(w * (np.cos(o[0] * h) - 1.0) for o, w in op.offsets)
    factor = np.exp(dt * lam) ** steps
    header, rows = read_csv_table(out / "snapshot_001.csv")
    assert header == ["x", "y", "value"] and len(rows) == nodes * nodes
    x, value = np.array([[float(r[0]), float(r[2])] for r in rows]).T
    assert np.max(np.abs(value - factor * np.sin(x))) <= 1e-12
    assert factor < 1.0 - 1e-3  # the mode decays visibly over the run


def test_two_dimensional_dirichlet_box_run_follows_the_sine_mode_oracle(tmp_path):
    # The product of sines at the cell centres is an eigenvector of the
    # finite-volume Laplacian with ghost values -u across the faces,
    # eigenvalue -(8/h^2) sin^2(h/2); 2D boxes solve by CG.
    nodes, dt, steps = 16, 0.05, 5
    cfg = write_config(
        tmp_path,
        "box2.cfg",
        bc="dirichlet",
        dimension="2",
        lower="0",
        upper="pi",
        h=f"pi/{nodes}",
        dt=repr(dt),
        t_final=repr(steps * dt),
        kind="local",
        u0="sine-mode(1)",
        snapshots="1",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    h = np.pi / nodes
    lam = -(8.0 / h**2) * np.sin(h / 2.0) ** 2
    s = dt / 2.0
    factor = ((1.0 + s * lam) / (1.0 - s * lam)) ** steps
    header, rows = read_csv_table(out / "snapshot_001.csv")
    assert header == ["x", "y", "value"] and len(rows) == nodes**2
    x, y, value = np.array(rows, dtype=float).T
    # each CG solve stops at relative residual 1e-10
    assert np.max(np.abs(value - factor * np.sin(x) * np.sin(y))) <= 1e-10
    assert factor < 1.0 - 1e-3  # the mode decays visibly over the run


def _two_dimensional_neumann_run(tmp_path, **keys):
    """Run ``simulate`` on a 2D neumann box; yield each snapshot's time and columns."""
    cfg = write_config(
        tmp_path,
        "box2.cfg",
        bc="neumann",
        dimension="2",
        lower="0",
        upper="pi",
        h="pi/16",
        dt="0.05",
        t_final="0.5",
        snapshots="5",
        **keys,
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, index = read_csv_table(out / "snapshots.csv")
    assert len(index) == 6
    for _, time, name in index:
        header, rows = read_csv_table(out / name)
        assert header == ["x", "y", "value"] and len(rows) == 16**2
        yield float(time), np.array(rows, dtype=float).T


def test_two_dimensional_neumann_box_run_follows_the_cosine_mode_oracle(tmp_path):
    # cos x at the cell centres is an eigenvector of the finite-volume
    # Neumann Laplacian, eigenvalue -(4/h^2) sin^2(h/2); CG solves it.
    h, dt = np.pi / 16, 0.05
    lam = -(4.0 / h**2) * np.sin(h / 2.0) ** 2
    s = dt / 2.0
    runs = _two_dimensional_neumann_run(tmp_path, kind="local", u0="cosine-mode(1)")
    for time, (x, _, value) in runs:
        factor = ((1.0 + s * lam) / (1.0 - s * lam)) ** round(time / dt)
        # each CG solve stops at relative residual 1e-10
        assert np.max(np.abs(value - factor * np.cos(x))) <= 1e-9
    assert factor < 1.0 - 1e-2  # the mode decays visibly over the run


def test_two_dimensional_nonlocal_neumann_box_run_keeps_a_constant(tmp_path):
    runs = _two_dimensional_neumann_run(tmp_path, kind="nonlocal", delta="pi/4", u0="const(1)")
    for _, (_, _, value) in runs:
        assert np.all(value == 1.0)


def test_poly_bump_starts_as_the_face_vanishing_product(tmp_path):
    cfg = write_config(
        tmp_path,
        "bump.cfg",
        bc="neumann",
        dimension="2",
        lower="0, -1",
        upper="1",  # broadcast to both axes
        h="1/8",
        dt="0.05",
        t_final="0.05",
        kind="local",
        u0="poly-bump",
        snapshots="1",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "snapshot_000.csv")
    assert header == ["x", "y", "value"] and len(rows) == 8 * 16
    x, y, value = np.array(rows, dtype=float).T
    expected = (x * (1.0 - x)) ** 2 * ((y + 1.0) * (1.0 - y)) ** 2
    assert np.max(np.abs(value - expected)) <= 1e-15
    # no cell centre lies on a face, so the start is positive everywhere and
    # smallest at the four corner cells, half a cell in from two faces
    assert np.all(value > 0.0)
    corners = (np.minimum(x, 1.0 - x) == 1 / 16) & (np.minimum(y + 1.0, 1.0 - y) == 1 / 16)
    assert np.count_nonzero(corners) == 4 and np.all(value[corners] == value.min())


@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_two_dimensional_kpp_orbit_of_a_flat_law_is_one(tmp_path, kind):
    # u = 1 is the periodic state of the autonomous logistic law on a
    # reflecting box; the brackets reach it by CG, each to its 1e-8
    # tolerance.
    keys = dict(delta="1/2") if kind == "nonlocal" else {}
    cfg = write_config(
        tmp_path,
        "k2.cfg",
        bc="neumann",
        dimension="2",
        lower="0",
        upper="1",
        h="1/8",
        dt="1/8",
        T="1",
        kind=kind,
        growth="logistic(const(1))",
        orbit_snapshots="4",
        **keys,
    )
    out = tmp_path / "out"
    assert main(["kpp-orbit", "--config", str(cfg), "--out", str(out)]) == 0
    record = (out / "run.txt").read_text()
    rate = record.split("# linearized growth rate at zero: ", 1)[1].split("\n", 1)[0]
    assert abs(float(rate) - 1.0) <= 1e-8
    header, rows = read_csv_table(out / "orbit.csv")
    assert header == ["t", "x", "y", "value"] and len(rows) == 4 * 8**2
    assert max(abs(float(r[3]) - 1.0) for r in rows) <= 10 * 1e-8


def test_two_dimensional_converge_b_of_a_constant_coefficient_has_no_gap(tmp_path):
    # Constants are eigenvectors of every reflecting operator, so every
    # rate is the coefficient, up to the power iteration's rounding.
    cfg = write_config(
        tmp_path,
        "b2.cfg",
        bc="neumann",
        dimension="2",
        lower="0",
        upper="1",
        h="1/32",
        dt="1/8",
        T="1",
        deltas="1/2,1/4",
        coefficient="const(0.3)",
    )
    out = tmp_path / "out"
    assert main(["converge-b", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "report.csv")
    assert header == ["delta", "lambda_delta", "lambda_r", "abs_gap", "pev_criterion"]
    assert [float(r[0]) for r in rows] == [0.5, 0.25]
    for _, lambda_delta, lambda_r, gap, flag in rows:
        assert abs(float(lambda_delta) - 0.3) <= 1e-9 and abs(float(lambda_r) - 0.3) <= 1e-9
        assert float(gap) <= 1e-9 and flag == "1"


TWO_DIMENSIONAL_NEUMANN_SWEEP_KEYS = dict(
    bc="neumann",
    dimension="2",
    lower="0",
    upper="1",
    h="1/16",
    dt="1/8",
    deltas="1,1/2",
)


def test_two_dimensional_converge_a_of_a_constant_has_no_error(tmp_path, monkeypatch):
    # Every reflecting operator keeps a constant constant, so each radius
    # and the reference follow one logistic ODE; every box matrix is
    # symmetric, so CG solves them all and BiCGSTAB is never called.
    calls = {"cg": 0, "bicgstab": 0}
    for name in calls:
        solver = getattr(evolution, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(evolution, name, counted)
    cfg = write_config(
        tmp_path,
        "a2.cfg",
        t_final="1/2",
        u0="const(0.5)",
        reaction="logistic(const(1))",
        snapshots="4",
        **TWO_DIMENSIONAL_NEUMANN_SWEEP_KEYS,
    )
    out = tmp_path / "out"
    assert main(["converge-a", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "report.csv")
    assert header == ["delta", "error", "empirical_order"]
    assert [float(r[0]) for r in rows] == [1.0, 0.5]
    assert all(float(r[1]) <= 1e-9 for r in rows)
    assert float(_record_meta(out)["min_nodal_value"]) == 0.5
    assert calls["cg"] > 0 and calls["bicgstab"] == 0


def test_two_dimensional_converge_c_of_a_flat_law_has_no_gap(tmp_path):
    # u = 1 is the periodic state of the autonomous logistic law for every
    # reflecting operator; each bracket reaches it to its 1e-8 tolerance.
    tol = 1e-8
    cfg = write_config(
        tmp_path,
        "c2.cfg",
        T="1",
        growth="logistic(const(1))",
        orbit_snapshots="4",
        **TWO_DIMENSIONAL_NEUMANN_SWEEP_KEYS,
    )
    out = tmp_path / "out"
    assert main(["converge-c", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv_table(out / "report.csv")
    assert header == ["delta", "sup_gap", "h2_delta_lambda", "h2_delta_ok"]
    assert [float(r[0]) for r in rows] == [1.0, 0.5]
    for _, gap, rate, flag in rows:
        assert float(gap) <= 10 * tol
        assert abs(float(rate) - 1.0) <= 1e-8 and flag == "1"
    meta = _record_meta(out)
    assert abs(float(meta["local_rate"]) - 1.0) <= 1e-8
    assert float(meta["max_monotone_violation"]) <= 1e-10
    assert abs(float(meta["min_interior_value"]) - 1.0) <= 10 * tol


def _two_dimensional_dirichlet_box_config(tmp_path, **keys):
    return write_config(
        tmp_path,
        "box2.cfg",
        bc="dirichlet",
        dimension="2",
        lower="0",
        upper="pi",
        h="pi/16",
        dt="0.05",
        **keys,
    )


def test_two_dimensional_nonlocal_dirichlet_box_run_matches_dense_steps(tmp_path):
    # Jumps out of the hostile box are lost; the reference takes the same
    # ten trapezoid steps by dense solves of the assembled matrix.
    dt, steps, h, delta = 0.05, 10, np.pi / 16, np.pi / 4
    cfg = _two_dimensional_dirichlet_box_config(
        tmp_path, t_final="0.5", delta="pi/4", u0="sine-mode(1)", snapshots="1"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    bc = BoundaryCondition.DIRICHLET
    grid = build_grid(box([0.0, 0.0], [np.pi, np.pi]), h)
    op = assemble_nonlocal(grid, kernel_profile(QUARTIC, 2), delta, bc)
    sA = (dt / 2.0) * op.matrix().toarray()
    eye = np.eye(grid.num_nodes)
    u = field_from_function(grid, lambda x, y: np.sin(x) * np.sin(y)).values
    for _ in range(steps):
        u = np.linalg.solve(eye - sA, (eye + sA) @ u)
    header, rows = read_csv_table(out / "snapshot_001.csv")
    assert header == ["x", "y", "value"] and len(rows) == 16**2
    value = np.array(rows, dtype=float)[:, 2]
    # each CG solve stops at relative residual 1e-10
    assert np.max(np.abs(value - u)) <= 1e-9
    assert np.max(np.abs(u)) < 0.9  # the mode decays visibly over the run


def test_two_dimensional_local_dirichlet_spectrum_follows_the_sine_mode_oracle(tmp_path):
    # With a = 0 the period map is the trapezoid rule's amplification of the
    # 5-point Laplacian's principal sine mode, once per step.
    h, dt = np.pi / 16, 0.05
    cfg = _two_dimensional_dirichlet_box_config(
        tmp_path, T="1", kind="local", coefficient="const(0)"
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    lam = -(8.0 / h**2) * np.sin(h / 2.0) ** 2
    s = dt / 2.0
    oracle = np.log((1.0 + s * lam) / (1.0 - s * lam)) / dt
    _, rows = read_csv_table(out / "spectrum.csv")
    assert abs(float(rows[0][0]) - oracle) <= 1e-9
    assert oracle < -1.9


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


@pytest.mark.parametrize(
    ("command", "keys"),
    [
        ("simulate", SIMULATE_KEYS),
        ("converge-a", CONVERGE_A_KEYS),
        ("kpp-orbit", KPP_ORBIT_KEYS),
        ("converge-c", CONVERGE_C_KEYS),
    ],
)
def test_zero_snapshots_exit_2(tmp_path, capsys, command, keys):
    key = "orbit_snapshots" if "growth" in keys else "snapshots"
    cfg = write_config(tmp_path, "x.cfg", **dict(keys, **{key: "0"}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config key '{key}' must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "keys", "message"),
    [
        ("simulate", dict(SIMULATE_KEYS, snapshots="-4"), "'snapshots' must be >= 1, got -4"),
        (
            "kpp-orbit",
            dict(KPP_ORBIT_KEYS, orbit_snapshots="-4"),
            "'orbit_snapshots' must be >= 1, got -4",
        ),
        ("kpp-orbit", dict(KPP_ORBIT_KEYS, max_periods="0"), "'max_periods' must be >= 1, got 0"),
        ("kpp-orbit", dict(KPP_ORBIT_KEYS, tol="0"), "tol must be positive, got 0.0"),
        ("converge-c", dict(CONVERGE_C_KEYS, tol="0"), "tol must be positive, got 0.0"),
        (
            "spectrum",
            dict(
                bc="periodic",
                period="2*pi",
                h="2*pi/32",
                dt="1/16",
                T="1",
                kind="local",
                coefficient="const(1)",
                max_iterations="0",
            ),
            "'max_iterations' must be >= 1, got 0",
        ),
    ],
    ids=[
        "snapshots",
        "orbit_snapshots",
        "max_periods",
        "kpp-orbit-tol",
        "converge-c-tol",
        "max_iterations",
    ],
)
def test_impossible_counts_and_tolerances_exit_2(tmp_path, capsys, command, keys, message):
    cfg = write_config(tmp_path, "x.cfg", **keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "run.txt").exists()


SPECTRUM_KEYS = dict(
    bc="periodic", period="2*pi", h="2*pi/32", dt="1/16", T="1", kind="local", coefficient="const(1)"
)


@pytest.mark.parametrize(
    "command, keys",
    [
        ("simulate", dict(SIMULATE_KEYS, reaction="linear(time-sine(1,0.5))")),
        ("spectrum", dict(SPECTRUM_KEYS, coefficient="time-sine(1,0.5)")),
        ("kpp-orbit", dict(KPP_ORBIT_KEYS, growth="logistic(tx-product(1,0.5,1))")),
        ("converge-a", dict(CONVERGE_A_KEYS, reaction="logistic(tx-product(1,0.5,1))")),
        ("converge-b", dict(CONVERGE_A_KEYS, T="1", coefficient="time-sine(1,0.5)", t_final=None, u0=None)),
        ("converge-c", dict(CONVERGE_C_KEYS, growth="logistic(time-sine(1,0.5))")),
    ],
)
def test_a_zero_period_exits_2_before_any_grid(tmp_path, capsys, monkeypatch, command, keys):
    # The period is checked before 2 pi / T is formed, so no grid is built
    # and no ZeroDivisionError escapes.
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "build_grid", refuse)
    monkeypatch.setattr(dispersal.operators, "build_grid", refuse)
    keys = {key: value for key, value in dict(keys, T="0").items() if value is not None}
    cfg = write_config(tmp_path, "x.cfg", **keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "period T must be positive, got 0.0" in capsys.readouterr().err


def test_a_non_finite_tolerance_exits_2_before_any_work(tmp_path, capsys):
    # tol = inf would stop the power iteration after two iterations and
    # write an unconverged rate as the result.
    sample = Path(__file__).resolve().parent.parent / "scripts" / "configs" / "spectrum_pinned_zero.cfg"
    cfg = tmp_path / "x.cfg"
    cfg.write_text(sample.read_text(encoding="ascii") + "tol = inf\n", encoding="ascii")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "number 'inf' is not finite" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize(
    "command, keys",
    [
        ("simulate", dict(SIMULATE_KEYS, u0="const(nan)")),
        (
            "spectrum",
            dict(bc="periodic", period="2*pi", h="2*pi/64", dt="0.05", T="1", delta="0.5",
                 coefficient="const(inf)"),
        ),
        ("kpp-orbit", dict(KPP_ORBIT_KEYS, growth="logistic(const(nan))")),
    ],
)
def test_a_non_finite_catalog_parameter_exits_2_before_writing(
    tmp_path, capsys, monkeypatch, command, keys
):
    # Catalog entries are read before the grid is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built for a rejected catalog entry")

    monkeypatch.setattr(cli, "build_grid", refuse)
    cfg = write_config(tmp_path, "x.cfg", **keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "not finite" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize(
    "keys, message",
    [
        (dict(SIMULATE_KEYS, dimension="3"), "config key 'dimension' must be 1 or 2, got 3"),
        (
            dict(SIMULATE_KEYS, bc="neumann", dimension="2", lower="0, 0, 0", upper="1", h="1/8"),
            "config key 'lower' needs 2 value(s), got 3",
        ),
    ],
    ids=["dimension", "lower"],
)
def test_a_bad_habitat_exits_2_before_any_grid_is_built(tmp_path, capsys, monkeypatch, keys, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built for a rejected habitat")

    monkeypatch.setattr(cli, "build_grid", refuse)
    cfg = write_config(tmp_path, "x.cfg", **keys)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize(
    "command, keys", [("kpp-orbit", KPP_ORBIT_KEYS), ("converge-c", CONVERGE_C_KEYS)]
)
@pytest.mark.parametrize(
    "option, message",
    [
        (dict(tol="0"), "tol must be positive, got 0.0"),
        (dict(orbit_snapshots="7"), "snapshot count 7 must divide the 16 steps per period"),
    ],
    ids=["tol", "orbit_snapshots"],
)
def test_bad_orbit_options_exit_2_before_the_invasion_check(
    tmp_path, capsys, monkeypatch, command, keys, option, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("the invasion check ran for rejected orbit options")

    monkeypatch.setattr(kpp, "_invasion_checks", refuse)
    cfg = write_config(tmp_path, "x.cfg", **dict(keys, **option))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


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
    err = capsys.readouterr().err
    assert "unknown u0" in err and "poly-bump" in err
    cfg = write_config(tmp_path, "z.cfg", **dict(SIMULATE_KEYS, u0="poly-bump"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert "u0 'poly-bump' needs a box domain" in capsys.readouterr().err
    assert list((tmp_path / "p").iterdir()) == []


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


@pytest.mark.parametrize("command, keys", [("kpp-orbit", KPP_ORBIT_KEYS), ("converge-c", CONVERGE_C_KEYS)])
def test_a_growth_that_never_saturates_exits_2_before_any_work(tmp_path, capsys, command, keys):
    # a = 1e13 lies above every level of the saturation search, so the run
    # stops when its problem is built, before the invasion check.
    cfg = write_config(tmp_path, "x.cfg", **dict(keys, growth="logistic(const(1e13))"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "does not saturate" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def test_blow_up_exits_3_with_the_time_it_happened(tmp_path, capsys):
    keys = dict(
        SIMULATE_KEYS, dt="0.01", t_final="0.5", reaction="linear(const(100))", snapshots="1"
    )
    cfg = write_config(tmp_path, "boom.cfg", **keys)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    # The sine mode grows as exp((100 + sigma) t), sigma its symbol (about
    # -1), and passes 1e12 near t = 0.279, in the step that ends at 0.28.
    assert capsys.readouterr().err == "error: field exceeded 1e+12 at t=0.28\n"


def test_a_negative_logistic_run_blows_up_at_the_pole_of_its_flow(tmp_path, capsys):
    # u' = u (1 - u) from u = -1 gives u = -e^t / (2 - e^t), which leaves
    # every bound at t = ln 2 = 0.693, inside the step that ends at 0.7.  A
    # flow that passed its pole would flip the sign and run on.
    keys = dict(
        {k: v for k, v in SIMULATE_KEYS.items() if k != "delta"},
        kind="local",
        h="2*pi/32",
        dt="0.01",
        t_final="1",
        u0="const(-1)",
        reaction="logistic(const(1))",
        snapshots="1",
    )
    cfg = write_config(tmp_path, "pole.cfg", **keys)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: field exceeded 1e+12 at t=0.7\n"


@pytest.mark.parametrize(
    "command, keys, message",
    [
        (
            "spectrum",
            dict(
                bc="neumann",
                lower="0",
                upper="1",
                h="1/32",
                dt="0.05",
                T="1",
                delta="0.3",
                coefficient="space-cosine(0.3,0.5,3)",
                max_iterations="1",
            ),
            "power iteration did not settle in 1 iterations",
        ),
        (
            # dt * rate / 2 = 32 for the stiffest mode: its Crank-Nicolson
            # factor is near -1 and the period map's dominant mode alternates
            # in sign; at dt = 1/2048 the principal rate is -8.742
            "spectrum",
            dict(
                bc="dirichlet",
                kind="local",
                lower="0",
                upper="1",
                h="1/8",
                dt="1/4",
                T="1",
                coefficient="tx-product(1,0.5,3)",
            ),
            "settled on a mode that changes sign: the stiffest Crank-Nicolson factors near -1 "
            "at dt=0.25; reduce dt",
        ),
        (
            # The same sign-changing mode under a growth of exp(40) per
            # period: the relative stopping test settles on it at once.
            "spectrum",
            dict(
                bc="dirichlet",
                kind="local",
                lower="0",
                upper="1",
                h="1/8",
                dt="1/8",
                T="1",
                coefficient="const(40)",
            ),
            "settled on a mode that changes sign: the stiffest Crank-Nicolson factors near -1 "
            "at dt=0.125; reduce dt",
        ),
        (
            "kpp-orbit",
            dict(
                bc="neumann",
                lower="0",
                upper="1",
                h="1/32",
                dt="1/32",
                T="1",
                delta="0.3",
                growth="logistic(const(1))",
                max_periods="1",
            ),
            "did not reach tol=1e-08 within 1 periods",
        ),
        (
            "converge-c",
            dict(
                bc="neumann",
                lower="0",
                upper="1",
                h="1/64",
                dt="1/32",
                T="1",
                growth="logistic(const(-1))",
                deltas="0.4, 0.2",
            ),
            "no positive periodic reference state exists",
        ),
        (
            "converge-a",
            dict(
                bc="periodic",
                period="2*pi",
                h="2*pi/128",
                dt="0.01",
                t_final="0.5",
                u0="sine-mode(1)",
                reaction="linear(const(100))",
                deltas="0.8, 0.4",
            ),
            "field exceeded 1e+12 at t=",
        ),
    ],
    ids=[
        "spectrum",
        "spectrum-sign-changing-mode",
        "spectrum-sign-changing-mode-growing",
        "kpp-orbit",
        "converge-c",
        "converge-a",
    ],
)
def test_failed_computations_exit_3(tmp_path, capsys, command, keys, message):
    cfg = write_config(tmp_path, "x.cfg", **keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o" / "run.txt").exists()


def test_a_failed_two_dimensional_box_solve_exits_3(tmp_path, capsys, monkeypatch):
    # CG gives up at once and the direct rescue returns zeros, so the
    # solve's residual is the whole right-hand side.
    monkeypatch.setattr(evolution, "cg", lambda M, b, x0, **_: (x0, 1))
    monkeypatch.setattr(evolution, "spsolve", lambda M, b: np.zeros_like(b))
    cfg = _two_dimensional_dirichlet_box_config(
        tmp_path, t_final="0.25", kind="local", u0="sine-mode(1)", snapshots="1"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: implicit solve stalled: residual ")
    assert not (tmp_path / "o" / "run.txt").exists()


def test_the_retired_jobs_key_and_flag_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "a.cfg", jobs="2", **CONVERGE_A_KEYS)
    assert main(["converge-a", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key(s): 'jobs'" in capsys.readouterr().err
    cfg = write_config(tmp_path, "b.cfg", **CONVERGE_A_KEYS)
    with pytest.raises(SystemExit) as exit_info:
        main(["converge-a", "--config", str(cfg), "--jobs", "2"])
    assert exit_info.value.code == 2


# --------------------------------------------------------------------- #
# scipy stays off the periodic path                                      #
# --------------------------------------------------------------------- #


def test_periodic_runs_never_load_scipy(tmp_path):
    # This test process has imported scipy already, so the runs go to a
    # fresh interpreter, which then reports every scipy module it loaded.
    runs = [
        ("simulate", write_config(tmp_path, "sim1.cfg", **SIMULATE_KEYS)),
        (
            "simulate",
            write_config(
                tmp_path, "sim2.cfg", **dict(SIMULATE_KEYS, dimension="2", h="2*pi/16", delta="2.0")
            ),
        ),
        (
            "kpp-orbit",
            write_config(
                tmp_path,
                "kpp.cfg",
                bc="periodic",
                period="2*pi",
                h="2*pi/32",
                dt="1/16",
                T="1",
                delta="1.0",
                growth="logistic(tx-product(1,0.5,1))",
                orbit_snapshots="4",
            ),
        ),
    ]
    script = (
        "import sys\n"
        "from dispersal.cli import main\n"
        "for command, cfg in zip(*[iter(sys.argv[1:])] * 2):\n"
        "    assert main([command, '--config', cfg, '--out', cfg + '.out']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    args = [str(item) for run in runs for item in run]
    package_root = str(Path(dispersal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "kpp.cfg.out" / "orbit.csv").exists()


def test_one_dimensional_box_runs_never_load_scipy(tmp_path):
    # As above, in a fresh interpreter: 1D boxes solve by FFT and a dense
    # face correction in numpy, with no CSR matrix and no sparse solver.
    local = dict(lower="0", upper="1", h="1/64", dt="0.05", t_final="0.25", snapshots="2")
    jump = dict(local, delta="0.25")
    runs = [
        ("simulate", write_config(tmp_path, "dn.cfg", bc="dirichlet", u0="sine-mode(1)", **jump)),
        (
            "simulate",
            write_config(
                tmp_path, "dl.cfg", bc="dirichlet", kind="local", u0="sine-mode(1)", **local
            ),
        ),
        ("simulate", write_config(tmp_path, "nn.cfg", bc="neumann", u0="cosine-mode(1)", **jump)),
        (
            "simulate",
            write_config(
                tmp_path, "nl.cfg", bc="neumann", kind="local", u0="cosine-mode(1)", **local
            ),
        ),
        (
            "spectrum",
            write_config(
                tmp_path,
                "sp.cfg",
                bc="dirichlet",
                lower="0",
                upper="1",
                h="1/32",
                dt="0.005",  # at 0.05 a mode that changes sign dominates the period map
                T="1",
                delta="0.25",
                coefficient="const(0)",
            ),
        ),
        ("converge-a", write_config(tmp_path, "ca.cfg", **CONVERGE_A_KEYS)),
        (
            "converge-b",
            write_config(
                tmp_path,
                "cb.cfg",
                bc="dirichlet",
                lower="0",
                upper="1",
                h="1/64",
                dt="1/256",  # the principal mode dominates for the reference and both radii
                T="1",
                deltas="0.4, 0.2",
                coefficient="const(0)",
            ),
        ),
    ]
    script = (
        "import sys\n"
        "from dispersal.cli import main\n"
        "for command, cfg in zip(*[iter(sys.argv[1:])] * 2):\n"
        "    assert main([command, '--config', cfg, '--out', cfg + '.out']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    args = [str(item) for run in runs for item in run]
    package_root = str(Path(dispersal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    for name in ("sp.cfg.out/spectrum.csv", "ca.cfg.out/report.csv", "cb.cfg.out/report.csv"):
        assert (tmp_path / name).exists()


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


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_importing_the_package_starts_no_openblas_workers(given, expected):
    # OpenBLAS's worker threads spin at numpy's import; the package asks for
    # one thread before numpy loads, unless the caller set a count.
    script = (
        "import os, dispersal\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else 1\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads)\n"
    )
    package_root = str(Path(dispersal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    count, threads = result.stdout.split()
    assert count == expected
    if given is None:
        assert threads == "1"


# --------------------------------------------------------------------- #
# the benchmark's set-up probe                                           #
# --------------------------------------------------------------------- #


def test_the_setup_probe_builds_a_hostile_sweep_and_a_2d_periodic_run(tmp_path):
    # perfbench/setup_probe.py assembles operators through the package's
    # own functions; a change to them that it cannot follow fails here.
    probe = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"
    sweep = write_config(
        tmp_path,
        "cb.cfg",
        bc="dirichlet",
        lower="0",
        upper="1",
        h="1/64",
        dt="0.05",
        T="1",
        deltas="0.4, 0.2",
        coefficient="const(0)",
    )
    run = write_config(tmp_path, "sim.cfg", **dict(SIMULATE_KEYS, dimension="2"))
    package_root = str(Path(dispersal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, str(probe), "0.0", f"converge-b={sweep}", f"simulate={run}"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["operators"] == 4  # the local reference, two radii, one run
