"""Command-line front end: ``dispersal <experiment> --config <file>``.

Experiments
-----------
``simulate``
    One initial-value run; writes numbered field snapshots plus an index.
``spectrum``
    Principal growth rate of one time-periodic linear problem.
``kpp-orbit``
    Positive time-periodic state of one saturating-growth problem.
``converge-a``
    Kernel-radius sweep of the solution distance to the Laplacian run.
``converge-b``
    Kernel-radius sweep of the growth-rate distance to the Laplacian.
``converge-c``
    Kernel-radius sweep of the periodic-state distance to the Laplacian.

Every run writes ``run.txt``: outcome summary comments followed by the
fully resolved configuration, itself a valid config file for the same
subcommand.  All output files are byte-identical for a fixed configuration
within one numpy/scipy build.  Exit codes: 0 success, 2 invalid
configuration, 3 the computation itself failed (blow-up, no convergence,
failed solve).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .coefficients import parse_coefficient, split_call
from .config import ExperimentConfig, format_resolved, load_config
from .errors import NumericsError, ValidationError
from .evolution import (
    SemilinearProblem,
    _uniform_snapshot_steps,
    parse_reaction,
    solution_convergence_experiment,
    solve,
)
from .grids import (
    BOX,
    Field,
    box,
    build_grid,
    field_from_function,
    periodic_cell,
    sup_norm,
    write_field_csv,
)
from .kernels import MOLLIFIER, QUARTIC, kernel_profile
from .kpp import (
    KPPProblem,
    orbit_convergence_experiment,
    parse_growth,
    positive_periodic_solution,
    verify_invasion_condition,
)
from .operators import (
    LOCAL,
    NONLOCAL,
    BoundaryCondition,
    assemble_local,
    assemble_nonlocal,
    parse_boundary_condition,
)
from .spectral import PeriodMap, principal_value, spectrum_convergence_experiment

_U0_CATALOG = "const(c), cosine-mode(m), sine-mode(m), poly-bump"


def _build_domain(cfg: ExperimentConfig, bc: BoundaryCondition):
    dimension = cfg.get_int("dimension", default=1)
    if dimension not in (1, 2):
        raise ValidationError(f"config key 'dimension' must be 1 or 2, got {dimension}")
    if bc is BoundaryCondition.PERIODIC:
        return periodic_cell(_axis_values(cfg, "period", dimension))
    lower = _axis_values(cfg, "lower", dimension)
    upper = _axis_values(cfg, "upper", dimension)
    return box(lower, upper)


def _axis_values(cfg: ExperimentConfig, key: str, dimension: int) -> list[float]:
    values = cfg.get_number_list(key)
    if len(values) == 1 and dimension > 1:
        values = values * dimension
        cfg.resolved[key] = ",".join(repr(v) for v in values)
    if len(values) != dimension:
        raise ValidationError(f"config key {key!r} needs {dimension} value(s), got {len(values)}")
    return values


def _build_operator(cfg: ExperimentConfig, bc: BoundaryCondition, domain, h: float):
    """Assemble the single operator selected by ``kind`` (plus its grid)."""
    kind = cfg.get_str("kind", default=NONLOCAL, choices=(NONLOCAL, LOCAL))
    if kind == NONLOCAL:
        kernel = cfg.get_str("kernel", default=QUARTIC, choices=(QUARTIC, MOLLIFIER))
        delta = cfg.get_number("delta")
        profile = kernel_profile(kernel, domain.dimension)
        ghost = delta if bc is BoundaryCondition.DIRICHLET else 0.0
        grid = build_grid(domain, h, ghost_width=ghost)
        return assemble_nonlocal(grid, profile, delta, bc)
    grid = build_grid(domain, h)
    return assemble_local(grid, bc)


def _initial_function(text: str, domain):
    """Build an initial-data sampler from its catalog entry."""
    text = text.strip()
    if text == "poly-bump":
        if domain.kind != BOX:
            raise ValidationError("u0 'poly-bump' needs a box domain")
        corners = tuple(zip(domain.lower, domain.upper))

        def bump(*cols):
            out = np.ones_like(cols[0])
            for col, (lo, up) in zip(cols, corners):
                out = out * ((col - lo) * (up - col)) ** 2
            return out

        return bump
    name, inner = split_call(text)
    parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
    if name not in ("const", "cosine-mode", "sine-mode"):
        raise ValidationError(f"unknown u0 {name!r}; catalog: {_U0_CATALOG}")
    if len(parts) != 1:
        raise ValidationError(f"u0 {name} takes one parameter, got {len(parts)}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ValidationError(f"bad numeric parameter in u0 {text!r}") from None
    if name == "const":
        return lambda *cols: np.full_like(np.asarray(cols[0], dtype=float), value)
    wave = np.cos if name == "cosine-mode" else np.sin
    if domain.kind == BOX:
        lo = domain.lower[0]
        freq = value * math.pi / (domain.upper[0] - lo)
    else:
        lo = 0.0
        freq = 2.0 * math.pi * value / domain.periods[0]
    return lambda *cols: wave(freq * (cols[0] - lo))


def _sample_initial(grid, fn) -> Field:
    """Sample initial data and blank the ghost band (operator padding)."""
    field = field_from_function(grid, fn)
    values = field.values.copy()
    values[grid.ghost_mask] = 0.0
    return Field(grid, values, 0.0)


def _write_rows(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")


def _run_simulate(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc = parse_boundary_condition(cfg.get_str("bc"))
    domain = _build_domain(cfg, bc)
    h = cfg.get_number("h")
    dt = cfg.get_number("dt")
    t_final = cfg.get_number("t_final")
    period = cfg.get_number("T", default=1.0)
    reaction_text = cfg.get_str("reaction", default="zero")
    u0_text = cfg.get_str("u0")
    snapshots = cfg.get_int("snapshots", default=8)
    op = _build_operator(cfg, bc, domain, h)
    cfg.reject_unknown_keys()

    if snapshots < 1:
        raise ValidationError(f"config key 'snapshots' must be >= 1, got {snapshots}")
    reaction = parse_reaction(reaction_text, period)
    u0 = _sample_initial(op.grid, _initial_function(u0_text, domain))
    problem = SemilinearProblem(op, reaction, u0, 0.0, t_final)
    nsteps = int(round(t_final / dt))
    times = [k * dt for k in _uniform_snapshot_steps(max(nsteps, 1), snapshots)]
    trajectory = solve(problem, dt, times)

    index_rows = []
    for i, (t, state) in enumerate(zip(trajectory.times, trajectory.states)):
        name = f"snapshot_{i:03d}.csv"
        write_field_csv(state, out_dir / name)
        index_rows.append(f"{i},{t!r},{name}")
    _write_rows(out_dir / "snapshots.csv", "index,time,file", index_rows)
    return [
        f"stored {len(trajectory.states)} snapshots over [0.0, {t_final!r}]",
        f"time steps taken: {trajectory.steps}",
        f"final sup norm: {sup_norm(trajectory.states[-1])!r}",
    ]


def _run_spectrum(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc = parse_boundary_condition(cfg.get_str("bc"))
    domain = _build_domain(cfg, bc)
    h = cfg.get_number("h")
    dt = cfg.get_number("dt")
    period = cfg.get_number("T")
    coefficient_text = cfg.get_str("coefficient")
    tol = cfg.get_number("tol", default=1e-9)
    max_iterations = cfg.get_int("max_iterations", default=20000)
    op = _build_operator(cfg, bc, domain, h)
    cfg.reject_unknown_keys()

    coefficient = parse_coefficient(coefficient_text, period)
    period_map = PeriodMap(op, coefficient, dt)
    result = principal_value(period_map, tol=tol, max_iterations=max_iterations)
    flag = "" if result.is_principal_eigenvalue is None else str(int(result.is_principal_eigenvalue))
    _write_rows(
        out_dir / "spectrum.csv",
        "lambda,iterations,residual,principal_eigenvalue",
        [f"{result.value!r},{result.iterations},{result.residual!r},{flag}"],
    )
    write_field_csv(result.eigenfunction, out_dir / "eigenfunction.csv")
    outcome = [
        f"principal growth rate: {result.value!r}",
        f"power iterations: {result.iterations} (residual {result.residual!r})",
    ]
    if result.is_principal_eigenvalue is not None:
        outcome.append(
            "principal eigenvalue exists: " + ("yes" if result.is_principal_eigenvalue else "no")
        )
    return outcome


def _run_kpp_orbit(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc = parse_boundary_condition(cfg.get_str("bc"))
    domain = _build_domain(cfg, bc)
    h = cfg.get_number("h")
    dt = cfg.get_number("dt")
    period = cfg.get_number("T")
    growth_text = cfg.get_str("growth")
    tol = cfg.get_number("tol", default=1e-8)
    max_periods = cfg.get_int("max_periods", default=2000)
    orbit_snapshots = cfg.get_int("orbit_snapshots", default=32)
    op = _build_operator(cfg, bc, domain, h)
    cfg.reject_unknown_keys()

    growth = parse_growth(growth_text, period)
    problem = KPPProblem(op, growth, dt)
    invadable, rate = verify_invasion_condition(problem)
    if not invadable:
        raise NumericsError(
            f"zero state is not invadable: linearized growth rate {rate!r} <= 0, "
            "so no positive periodic state exists"
        )
    orbit = positive_periodic_solution(
        problem, tol=tol, max_periods=max_periods, snapshots_per_period=orbit_snapshots
    )
    grid = op.grid
    keep = ~grid.ghost_mask
    columns = [col[keep] for col in grid.coordinates]
    rows = []
    for t, state in zip(orbit.times, orbit.states):
        values = state.values[keep]
        for i in range(values.size):
            coords = ",".join(repr(float(col[i])) for col in columns)
            rows.append(f"{float(t)!r},{coords},{float(values[i])!r}")
    header = "t," + ("x,value" if grid.dimension == 1 else "x,y,value")
    _write_rows(out_dir / "orbit.csv", header, rows)
    return [
        f"linearized growth rate at zero: {rate!r}",
        f"orbit residual over one cycle: {orbit.residual!r}",
        f"bracketing iterations: {orbit.super_iterations} down, {orbit.sub_iterations} up",
        f"bracket agreement: {orbit.start_agreement!r}",
        f"interior minimum: {orbit.interior_min!r} (saturation bound {orbit.saturation_bound!r})",
    ]


def _report_outcome(report, label: str) -> list[str]:
    lines = [f"{label}: one row per kernel radius ({len(report.rows)} rows)"]
    for key, value in sorted(report.meta.items()):
        if isinstance(value, (list, tuple)):
            value = "[" + ", ".join("" if v is None else repr(v) for v in value) + "]"
        lines.append(f"{key}: {value}")
    return lines


def _run_converge_a(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc = parse_boundary_condition(cfg.get_str("bc"))
    domain = _build_domain(cfg, bc)
    h = cfg.get_number("h")
    dt = cfg.get_number("dt")
    t_final = cfg.get_number("t_final")
    period = cfg.get_number("T", default=1.0)
    reaction_text = cfg.get_str("reaction", default="zero")
    u0_text = cfg.get_str("u0")
    snapshots = cfg.get_int("snapshots", default=8)
    kernel = cfg.get_str("kernel", default=QUARTIC, choices=(QUARTIC, MOLLIFIER))
    deltas = cfg.get_number_list("deltas")
    cfg.reject_unknown_keys()

    report = solution_convergence_experiment(
        domain,
        bc,
        kernel_profile(kernel, domain.dimension),
        parse_reaction(reaction_text, period),
        _initial_function(u0_text, domain),
        t_final,
        deltas,
        h,
        dt,
        snapshots=snapshots,
    )
    report.to_csv(out_dir / "report.csv")
    return _report_outcome(report, "solution distance sweep")


def _run_converge_b(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc = parse_boundary_condition(cfg.get_str("bc"))
    domain = _build_domain(cfg, bc)
    h = cfg.get_number("h")
    dt = cfg.get_number("dt")
    period = cfg.get_number("T")
    coefficient_text = cfg.get_str("coefficient")
    tol = cfg.get_number("tol", default=1e-9)
    kernel = cfg.get_str("kernel", default=QUARTIC, choices=(QUARTIC, MOLLIFIER))
    deltas = cfg.get_number_list("deltas")
    cfg.reject_unknown_keys()

    report = spectrum_convergence_experiment(
        domain,
        bc,
        parse_coefficient(coefficient_text, period),
        kernel_profile(kernel, domain.dimension),
        deltas,
        h,
        dt,
        tol=tol,
    )
    report.to_csv(out_dir / "report.csv")
    return _report_outcome(report, "growth-rate gap sweep")


def _run_converge_c(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc = parse_boundary_condition(cfg.get_str("bc"))
    domain = _build_domain(cfg, bc)
    h = cfg.get_number("h")
    dt = cfg.get_number("dt")
    period = cfg.get_number("T")
    growth_text = cfg.get_str("growth")
    tol = cfg.get_number("tol", default=1e-8)
    orbit_snapshots = cfg.get_int("orbit_snapshots", default=32)
    kernel = cfg.get_str("kernel", default=QUARTIC, choices=(QUARTIC, MOLLIFIER))
    deltas = cfg.get_number_list("deltas")
    cfg.reject_unknown_keys()

    report = orbit_convergence_experiment(
        domain,
        bc,
        parse_growth(growth_text, period),
        kernel_profile(kernel, domain.dimension),
        deltas,
        h,
        dt,
        tol=tol,
        snapshots_per_period=orbit_snapshots,
    )
    report.to_csv(out_dir / "report.csv")
    return _report_outcome(report, "periodic-state gap sweep")


_RUNNERS = {
    "simulate": _run_simulate,
    "spectrum": _run_spectrum,
    "kpp-orbit": _run_kpp_orbit,
    "converge-a": _run_converge_a,
    "converge-b": _run_converge_b,
    "converge-c": _run_converge_c,
}

_HELP = {
    "simulate": "run one initial-value problem and store field snapshots",
    "spectrum": "compute the principal growth rate of one periodic problem",
    "kpp-orbit": "compute the positive periodic state of one growth problem",
    "converge-a": "sweep kernel radii and compare solutions with the Laplacian run",
    "converge-b": "sweep kernel radii and compare growth rates with the Laplacian",
    "converge-c": "sweep kernel radii and compare periodic states with the Laplacian",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersal",
        description="numerical laboratory for rescaled jump dispersal versus diffusion",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, runner in _RUNNERS.items():
        sub = subparsers.add_parser(name, help=_HELP[name])
        sub.add_argument("--config", required=True, help="flat key = value configuration file")
        sub.add_argument("--out", help="output directory (default: config key 'out', else '.')")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        declared = cfg.get_str("experiment", default=args.command)
        if declared != args.command:
            raise ValidationError(
                f"config declares experiment {declared!r} but the {args.command!r} runner was invoked"
            )
        cfg.resolved["experiment"] = args.command
        out_key = cfg.get_str("out", default=".")
        out_dir = Path(args.out) if args.out is not None else Path(out_key)
        cfg.resolved["out"] = str(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outcome = _RUNNERS[args.command](cfg, out_dir)
        (out_dir / "run.txt").write_text(
            format_resolved(cfg.resolved, outcome), encoding="ascii"
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in outcome:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
