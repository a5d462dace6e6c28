"""Set-up probe: import the CLI and build every operator a workload uses.

Usage::

    python3 setup_probe.py SPAWN_TIME COMMAND=CONFIG [COMMAND=CONFIG ...]

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this interpreter.  For each config the probe assembles the operators the
CLI command would assemble, builds each one's ``matrix()`` and constructs
``implicit_solver(op, s)`` for every step scale ``s`` the command uses.
No time step is taken.  It prints the seconds from ``SPAWN_TIME`` until
all of that is done, as one JSON object.
"""

from __future__ import annotations

import json
import sys
import time


def _operators(command: str, cfg):
    """Yield ``(operator, scales)`` for one CLI command's config."""
    from dispersal.grids import box, build_grid, periodic_cell
    from dispersal.kernels import kernel_profile
    from dispersal.operators import (
        BoundaryCondition,
        assemble_local,
        assemble_nonlocal,
        parse_boundary_condition,
    )

    bc = parse_boundary_condition(cfg.get_str("bc"))
    dimension = cfg.get_int("dimension", default=1)

    def axis(key):
        values = cfg.get_number_list(key)
        return values * dimension if len(values) == 1 else values

    if bc is BoundaryCondition.PERIODIC:
        domain = periodic_cell(axis("period"))
    else:
        domain = box(axis("lower"), axis("upper"))
    h = cfg.get_number("h")
    dt = cfg.get_number("dt")
    kernel = cfg.get_str("kernel", default="quartic-polynomial")
    # kpp stepping uses backward Euler (scale dt); period maps and the
    # trapezoid stepper use half steps (scale dt/2).
    scales = (dt, dt / 2.0) if command in ("kpp-orbit", "converge-c") else (dt / 2.0,)
    if command.startswith("converge-"):
        deltas = cfg.get_number_list("deltas")
        ghost = max(deltas) if bc is BoundaryCondition.DIRICHLET else 0.0
        grid = build_grid(domain, h, ghost_width=ghost)
        yield assemble_local(grid, bc), scales
        profile = kernel_profile(kernel, domain.dimension)
        for delta in deltas:
            yield assemble_nonlocal(grid, profile, delta, bc), scales
    elif cfg.get_str("kind", default="nonlocal") == "nonlocal":
        delta = cfg.get_number("delta")
        ghost = delta if bc is BoundaryCondition.DIRICHLET else 0.0
        grid = build_grid(domain, h, ghost_width=ghost)
        yield assemble_nonlocal(grid, kernel_profile(kernel, domain.dimension), delta, bc), scales
    else:
        yield assemble_local(build_grid(domain, h), bc), scales


def main(argv: list[str]) -> int:
    spawned = float(argv[0])
    import dispersal.cli  # noqa: F401  (the import is part of set-up)
    from dispersal.config import load_config
    from dispersal.evolution import implicit_solver

    built = 0
    for spec in argv[1:]:
        command, path = spec.split("=", 1)
        for op, scales in _operators(command, load_config(path)):
            op.matrix()
            for scale in scales:
                implicit_solver(op, scale)
            built += 1
    ready = time.monotonic() - spawned
    print(json.dumps({"setup_s": ready, "operators": built}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
