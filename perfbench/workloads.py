"""Seeded input generator for the dispersal benchmark.

Each workload is a list of CLI processes, each with the config file it
gets.  The seed varies only the coefficient amplitude ``c`` of the
growth or reaction law, never the grid, the kernel radii or the step
counts, which set the amount of work.  The CLI receives nothing but the
generated config files.

Run ``python3 perfbench/workloads.py --verify-range`` to check that every
``c`` in ``C_RANGE`` keeps the zero state invadable and the saturation
bound at 2 on the operators of the periodic ``converge-c`` process of
``sweeps-1d``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The seed whose outputs are compared with the stored references.  It
#: maps to the amplitude of the committed sample configs.
DEFAULT_SEED = 0
DEFAULT_C = 0.5
#: Amplitude range: ``a = 1 + c * (...)`` with a unit-bounded pattern stays
#: in [1 - c, 1 + c], inside [0.4, 1.6], so the saturation bound is 2.
C_RANGE = (0.4, 0.6)


def amplitude(seed: int) -> float:
    """Coefficient amplitude ``c`` for a seed, rounded to six digits."""
    if seed == DEFAULT_SEED:
        return DEFAULT_C
    low, high = C_RANGE
    return round(low + (high - low) * random.Random(seed).random(), 6)


@dataclass(frozen=True)
class Process:
    """One CLI process: ``dispersal <command> --config <name>.cfg --out <name>``."""

    name: str
    command: str
    config: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_varies: str
    processes: tuple[Process, ...]


def _orbit_periodic_1d(c: float) -> tuple[Process, ...]:
    return (
        Process(
            "converge_c",
            "converge-c",
            f"""experiment = converge-c
bc = periodic
period = 2*pi
h = 2*pi/128
dt = 1/32
T = 1
kernel = quartic-polynomial
deltas = 0.8,0.4
growth = logistic(tx-product(1,{c!r},1))
orbit_snapshots = 16
""",
        ),
    )


def _box_sweeps_1d(c: float) -> tuple[Process, ...]:
    return (
        Process(
            "converge_b",
            "converge-b",
            f"""experiment = converge-b
bc = dirichlet
lower = 0
upper = pi
h = pi/256
dt = 0.02
T = 1
kernel = quartic-polynomial
deltas = 0.4,0.2,0.1
coefficient = tx-product(1,{c!r},1)
""",
        ),
        Process(
            "converge_a",
            "converge-a",
            f"""experiment = converge-a
bc = neumann
lower = 0
upper = 1
h = 1/256
dt = 1/256
t_final = 0.25
kernel = quartic-polynomial
deltas = 0.2,0.1,0.05
u0 = cosine-mode(1)
reaction = logistic(space-cosine(1,{c!r},3))
""",
        ),
    )


def _simulate_2d_periodic(c: float) -> tuple[Process, ...]:
    return (
        Process(
            "simulate",
            "simulate",
            f"""experiment = simulate
bc = periodic
dimension = 2
period = 2*pi
h = 2*pi/128
dt = 0.01
t_final = 0.1
kind = nonlocal
kernel = quartic-polynomial
delta = 8*2*pi/128
u0 = sine-mode(1)
reaction = logistic(tx-product(1,{c!r},1))
snapshots = 2
""",
        ),
    )


def _sweeps_1d(c: float) -> tuple[Process, ...]:
    return _orbit_periodic_1d(c) + _box_sweeps_1d(c)


_BUILDERS = {
    "sweeps-1d": (
        _sweeps_1d,
        "converge-c periodic (h=2pi/128), converge-b dirichlet and converge-a neumann "
        "(h=pi/256, 1/256): CG and BiCGSTAB solves on circulant and banded matrices, "
        "kpp brackets, power iteration",
        "c in tx-product(1,c,1), space-cosine(1,c,3)",
    ),
    "simulate-2d-periodic": (
        _simulate_2d_periodic,
        "2D periodic simulate at 128x128 with 192 stencil offsets: assembly, a 38 MB CSR "
        "matrix and field output dominate; solves are few",
        "c in tx-product(1,c,1)",
    ),
}

NAMES = tuple(_BUILDERS)


def workload(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs generated from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    build, why, varies = _BUILDERS[name]
    return Workload(name, why, f"seed varies {varies}", build(amplitude(seed)))


def write_inputs(load: Workload, directory: Path) -> None:
    """Write each process's config file as ``<directory>/<name>.cfg``."""
    directory.mkdir(parents=True, exist_ok=True)
    for proc in load.processes:
        (directory / f"{proc.name}.cfg").write_text(proc.config, encoding="ascii")


def verify_range(samples: int = 5) -> list[str]:
    """Check invadability and the saturation bound across ``C_RANGE``.

    Runs the program's own checks (``verify_invasion_condition`` and
    ``validate_saturation``) on every operator of the periodic ``converge-c``
    process of ``sweeps-1d``, at ``samples`` evenly spaced amplitudes
    including both ends.
    Returns a list of problems; empty when the whole range is valid.
    """
    from dispersal.config import parse_config_text, parse_number
    from dispersal.grids import build_grid, periodic_cell
    from dispersal.kernels import kernel_profile
    from dispersal.kpp import KPPProblem, parse_growth, validate_saturation, verify_invasion_condition
    from dispersal.operators import assemble_local, assemble_nonlocal

    problems = []
    low, high = C_RANGE
    for k in range(samples):
        c = low + (high - low) * k / (samples - 1)
        cfg = parse_config_text(_orbit_periodic_1d(c)[0].config)
        period = parse_number(cfg["T"])
        grid = build_grid(periodic_cell([parse_number(cfg["period"])]), parse_number(cfg["h"]))
        profile = kernel_profile(cfg["kernel"], 1)
        ops = [assemble_local(grid, cfg["bc"])] + [
            assemble_nonlocal(grid, profile, parse_number(d), cfg["bc"])
            for d in cfg["deltas"].split(",")
        ]
        growth = parse_growth(cfg["growth"], period)
        for op in ops:
            problem = KPPProblem(op, growth, parse_number(cfg["dt"]))
            invadable, rate = verify_invasion_condition(problem)
            level = validate_saturation(problem)
            label = f"c={c:.3f} {op.kind} delta={op.delta}"
            print(f"{label}: growth rate at zero {rate:.6f}, saturation bound {level}")
            if not invadable:
                problems.append(f"{label}: zero state not invadable (rate {rate!r})")
            if level != 2.0:
                problems.append(f"{label}: saturation bound {level!r}, expected 2")
    return problems


if __name__ == "__main__":
    if sys.argv[1:] != ["--verify-range"]:
        sys.exit("usage: python3 perfbench/workloads.py --verify-range")
    sys.path.insert(0, str(HERE.parent / "src"))
    found = verify_range()
    for line in found:
        print("problem:", line)
    sys.exit(1 if found else 0)
