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

from .coefficients import parse_call, parse_coefficient
from .config import ExperimentConfig, format_resolved, load_config
from .errors import NumericsError, ValidationError
from .evolution import SemilinearProblem, parse_reaction, solution_convergence_experiment, solve
from .grids import (
    BOX,
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
    check_orbit_options,
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

_U0_ARITY = {"const": 1, "cosine-mode": 1, "sine-mode": 1, "poly-bump": 0}


def _habitat(cfg: ExperimentConfig):
    """Read the keys every experiment starts with: ``bc``, the domain, ``h``, ``dt``."""
    bc = parse_boundary_condition(cfg.get_str("bc"))
    dimension = cfg.get_int("dimension", default=1)
    if dimension not in (1, 2):
        raise ValidationError(f"config key 'dimension' must be 1 or 2, got {dimension}")
    if bc is BoundaryCondition.PERIODIC:
        domain = periodic_cell(_axis_values(cfg, "period", dimension))
    else:
        domain = box(_axis_values(cfg, "lower", dimension), _axis_values(cfg, "upper", dimension))
    return bc, domain, cfg.get_number("h"), cfg.get_number("dt")


def _axis_values(cfg: ExperimentConfig, key: str, dimension: int) -> list[float]:
    values = cfg.get_number_list(key)
    if len(values) == 1 and dimension > 1:
        values = values * dimension
        cfg.resolved[key] = ",".join(repr(v) for v in values)
    if len(values) != dimension:
        raise ValidationError(f"config key {key!r} needs {dimension} value(s), got {len(values)}")
    return values


def _count(cfg: ExperimentConfig, key: str, default: int) -> int:
    """Read the integer ``key``, which must be at least 1."""
    value = cfg.get_int(key, default=default)
    if value < 1:
        raise ValidationError(f"config key {key!r} must be >= 1, got {value}")
    return value


def _profile(cfg: ExperimentConfig, domain):
    kernel = cfg.get_str("kernel", default=QUARTIC, choices=(QUARTIC, MOLLIFIER))
    return kernel_profile(kernel, domain.dimension)


def _build_operator(cfg: ExperimentConfig, bc: BoundaryCondition, domain, h: float):
    """Assemble the single operator selected by ``kind`` (plus its grid)."""
    kind = cfg.get_str("kind", default=NONLOCAL, choices=(NONLOCAL, LOCAL))
    if kind == NONLOCAL:
        profile = _profile(cfg, domain)
        delta = cfg.get_number("delta")
        return assemble_nonlocal(build_grid(domain, h), profile, delta, bc)
    return assemble_local(build_grid(domain, h), bc)


def _initial_function(text: str, domain):
    """Build an initial-data sampler from its catalog entry."""
    name, args = parse_call(text, "u0", _U0_ARITY)
    if name == "poly-bump":
        if domain.kind != BOX:
            raise ValidationError("u0 'poly-bump' needs a box domain")
        corners = tuple(zip(domain.lower, domain.upper))

        def bump(*cols):
            out = np.ones_like(cols[0])
            for col, (lo, up) in zip(cols, corners):
                out = out * ((col - lo) * (up - col)) ** 2
            return out

        return bump
    value = args[0]
    if name == "const":
        return lambda *cols: np.full_like(np.asarray(cols[0], dtype=float), value)
    wave = np.cos if name == "cosine-mode" else np.sin
    if domain.kind == BOX:
        lows = domain.lower
        freqs = [value * math.pi / (up - lo) for lo, up in zip(lows, domain.upper)]
    else:
        lows = (0.0,)
        freqs = [2.0 * math.pi * value / domain.periods[0]]
    # A sine mode on a box is the product over all axes, so it vanishes on
    # every face (the hostile-exterior mode); the others vary along x only.
    axes = len(freqs) if name == "sine-mode" and domain.kind == BOX else 1

    def mode(*cols):
        out = wave(freqs[0] * (cols[0] - lows[0]))
        for axis in range(1, axes):
            out = out * wave(freqs[axis] * (cols[axis] - lows[axis]))
        return out

    return mode


def _write_rows(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")


def _run_simulate(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc, domain, h, dt = _habitat(cfg)
    t_final = cfg.get_number("t_final")
    period = cfg.get_number("T", default=1.0)
    reaction = parse_reaction(cfg.get_str("reaction", default="zero"), period)
    initial = _initial_function(cfg.get_str("u0"), domain)
    snapshots = _count(cfg, "snapshots", 8)
    op = _build_operator(cfg, bc, domain, h)
    cfg.reject_unknown_keys()

    u0 = field_from_function(op.grid, initial)
    trajectory = solve(SemilinearProblem(op, reaction, u0, t_final), dt, snapshots)

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
    bc, domain, h, dt = _habitat(cfg)
    period = cfg.get_number("T")
    coefficient = parse_coefficient(cfg.get_str("coefficient"), period)
    tol = cfg.get_number("tol", default=1e-9)
    max_iterations = _count(cfg, "max_iterations", 20000)
    op = _build_operator(cfg, bc, domain, h)
    cfg.reject_unknown_keys()

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
    bc, domain, h, dt = _habitat(cfg)
    period = cfg.get_number("T")
    growth = parse_growth(cfg.get_str("growth"), period)
    tol = cfg.get_number("tol", default=1e-8)
    max_periods = _count(cfg, "max_periods", 2000)
    orbit_snapshots = _count(cfg, "orbit_snapshots", 32)
    op = _build_operator(cfg, bc, domain, h)
    cfg.reject_unknown_keys()

    problem = KPPProblem(op, growth, dt)
    check_orbit_options(problem, tol, max_periods, orbit_snapshots)
    invadable, rate = verify_invasion_condition(problem)
    if not invadable:
        raise NumericsError(
            f"zero state is not invadable: linearized growth rate {rate!r} <= 0, "
            "so no positive periodic state exists"
        )
    orbit = positive_periodic_solution(
        problem, tol=tol, max_periods=max_periods, snapshots_per_period=orbit_snapshots
    )
    write_field_csv(orbit.states, out_dir / "orbit.csv")
    return [
        f"linearized growth rate at zero: {rate!r}",
        f"orbit residual over one cycle: {orbit.residual!r}",
        f"bracketing iterations: {orbit.super_iterations} down, {orbit.sub_iterations} up",
        f"bracket agreement: {orbit.start_agreement!r}",
        f"interior minimum: {orbit.interior_min!r} (saturation bound {orbit.saturation_bound!r})",
    ]


def _sweep_keys(cfg: ExperimentConfig, domain):
    """Read the sweep keys ``kernel`` and ``deltas``, then reject stray keys."""
    profile = _profile(cfg, domain)
    deltas = cfg.get_number_list("deltas")
    cfg.reject_unknown_keys()
    return profile, deltas


def _report_lines(report, out_dir: Path, label: str) -> list[str]:
    """Write ``report.csv`` and list the report's meta."""
    report.to_csv(out_dir / "report.csv")
    lines = [f"{label}: one row per kernel radius ({len(report.rows)} rows)"]
    for key, value in sorted(report.meta.items()):
        if isinstance(value, (list, tuple)):
            value = "[" + ", ".join("" if v is None else repr(v) for v in value) + "]"
        lines.append(f"{key}: {value}")
    return lines


def _run_converge_a(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc, domain, h, dt = _habitat(cfg)
    t_final = cfg.get_number("t_final")
    period = cfg.get_number("T", default=1.0)
    reaction = parse_reaction(cfg.get_str("reaction", default="zero"), period)
    u0 = _initial_function(cfg.get_str("u0"), domain)
    snapshots = _count(cfg, "snapshots", 8)
    profile, deltas = _sweep_keys(cfg, domain)

    report = solution_convergence_experiment(
        domain, bc, profile, reaction, u0, t_final, deltas, h, dt, snapshots=snapshots
    )
    return _report_lines(report, out_dir, "solution distance sweep")


def _run_converge_b(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc, domain, h, dt = _habitat(cfg)
    period = cfg.get_number("T")
    coefficient = parse_coefficient(cfg.get_str("coefficient"), period)
    tol = cfg.get_number("tol", default=1e-9)
    profile, deltas = _sweep_keys(cfg, domain)

    report = spectrum_convergence_experiment(
        domain, bc, coefficient, profile, deltas, h, dt, tol=tol
    )
    return _report_lines(report, out_dir, "growth-rate gap sweep")


def _run_converge_c(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    bc, domain, h, dt = _habitat(cfg)
    period = cfg.get_number("T")
    growth = parse_growth(cfg.get_str("growth"), period)
    tol = cfg.get_number("tol", default=1e-8)
    snapshots = _count(cfg, "orbit_snapshots", 32)
    profile, deltas = _sweep_keys(cfg, domain)

    report = orbit_convergence_experiment(
        domain, bc, growth, profile, deltas, h, dt, tol=tol, snapshots_per_period=snapshots
    )
    return _report_lines(report, out_dir, "periodic-state gap sweep")


#: Each subcommand's runner and its help line.
_RUNNERS = {
    "simulate": (_run_simulate, "run one initial-value problem and store field snapshots"),
    "spectrum": (_run_spectrum, "compute the principal growth rate of one periodic problem"),
    "kpp-orbit": (_run_kpp_orbit, "compute the positive periodic state of one growth problem"),
    "converge-a": (_run_converge_a, "sweep kernel radii and compare solutions with the Laplacian run"),
    "converge-b": (_run_converge_b, "sweep kernel radii and compare growth rates with the Laplacian"),
    "converge-c": (_run_converge_c, "sweep kernel radii and compare periodic states with the Laplacian"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersal",
        description="numerical laboratory for rescaled jump dispersal versus diffusion",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _RUNNERS.items():
        sub = subparsers.add_parser(name, help=help_line)
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
        outcome = _RUNNERS[args.command][0](cfg, out_dir)
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
