"""Frozen end-to-end acceptance runs for the dispersal laboratory.

One test (or one small group of tests) per headline guarantee, at pinned
resolutions, so ``pytest -v tests/test_acceptance.py`` reads as a checklist.
Expected values come from closed-form references that the module suites
cross-check against independent quadrature oracles; sweeps that feed more
than one check are shared through cached helpers so the file stays
order-independent.

The solution-convergence group is split per boundary condition because the
sub-cases stand or fall independently, and a single combined test would hide
which closure lost its order.  The periodic case is the most sensitive one:
its errors are small enough that a relative bias of 1e-3 in the stencil's
second moment (which plain nodal weights carry at eight cells per radius)
lifts the finest-radius error above the trend.  The moment-matched
assembly removes that bias; the companion finer-grid test in
``test_evolution.py`` checks the same sweep at four times the resolution.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sparse

from dispersal import (
    MOLLIFIER,
    NONLOCAL,
    PeriodMap,
    SemilinearProblem,
    QUARTIC,
    assemble_local,
    assemble_nonlocal,
    box,
    build_grid,
    constant_coefficient,
    field_from_function,
    kernel_profile,
    orbit_convergence_experiment,
    parse_coefficient,
    parse_growth,
    parse_reaction,
    periodic_cell,
    principal_value,
    solution_convergence_experiment,
    solve,
    spectrum_convergence_experiment,
    sweep_order,
)
from dispersal.grids import Field
from oracles import (
    check_comparison,
    consistency_error,
    constant_field,
    difference_action,
    moment_constant,
    perturbation_check,
    shift_coefficient,
)

QUARTIC_1D = kernel_profile(QUARTIC, 1)
MOLLIFIER_1D = kernel_profile(MOLLIFIER, 1)

# Pinned sweep parameters, shared by the convergence groups below.
SOLUTION_DELTAS = (0.2, 0.1, 0.05)
SPECTRUM_DELTAS = (0.4, 0.2, 0.1)
ORBIT_DELTAS = (0.4, 0.2, 0.1)
SOLUTION_T_FINAL = 0.25
SOLUTION_DT = 1.0 / 256


def _strictly_decreasing(values) -> bool:
    return all(later < earlier for earlier, later in zip(values, values[1:]))


# --- shared experiment runs -------------------------------------------------

@functools.lru_cache(maxsize=None)
def neumann_solution_sweep():
    return solution_convergence_experiment(
        box(0.0, 1.0),
        "neumann",
        QUARTIC_1D,
        parse_reaction("zero", 1.0),
        lambda x: np.cos(np.pi * x),
        SOLUTION_T_FINAL,
        SOLUTION_DELTAS,
        1.0 / 512,
        SOLUTION_DT,
    )


@functools.lru_cache(maxsize=None)
def periodic_solution_sweep():
    return solution_convergence_experiment(
        periodic_cell(2.0 * math.pi),
        "periodic",
        QUARTIC_1D,
        parse_reaction("zero", 1.0),
        np.sin,
        SOLUTION_T_FINAL,
        SOLUTION_DELTAS,
        2.0 * math.pi / 1024,
        SOLUTION_DT,
    )


@functools.lru_cache(maxsize=None)
def dirichlet_solution_sweep():
    return solution_convergence_experiment(
        box(0.0, 1.0),
        "dirichlet",
        QUARTIC_1D,
        parse_reaction("zero", 1.0),
        lambda x: x**2 * (1.0 - x) ** 2,
        SOLUTION_T_FINAL,
        SOLUTION_DELTAS,
        1.0 / 512,
        SOLUTION_DT,
    )


@functools.lru_cache(maxsize=None)
def neumann_orbit_sweep():
    return orbit_convergence_experiment(
        box(0.0, 1.0),
        "neumann",
        parse_growth("logistic(const(1))", 1.0),
        QUARTIC_1D,
        ORBIT_DELTAS,
        1.0 / 128,
        1.0 / 32,
    )


@functools.lru_cache(maxsize=None)
def dirichlet_orbit_sweep():
    return orbit_convergence_experiment(
        box(0.0, 2.0 * math.pi),
        "dirichlet",
        parse_growth("logistic(const(1))", 1.0),
        QUARTIC_1D,
        ORBIT_DELTAS,
        2.0 * math.pi / 1024,
        1.0 / 64,
    )


@functools.lru_cache(maxsize=None)
def periodic_orbit_sweep():
    return orbit_convergence_experiment(
        periodic_cell(2.0 * math.pi),
        "periodic",
        parse_growth("logistic(tx-product(1,0.5,1))", 1.0),
        QUARTIC_1D,
        ORBIT_DELTAS,
        2.0 * math.pi / 1024,
        1.0 / 64,
    )


# --- 1. kernel normalization ------------------------------------------------

def test_criterion_1_kernel_moment_constants():
    assert abs(moment_constant(kernel_profile(QUARTIC, 1)) - 14.0) <= 1e-8
    assert abs(moment_constant(kernel_profile(QUARTIC, 2)) - 16.0) <= 1e-6


# --- 2. operator structure --------------------------------------------------

def _off_diagonal_minimum(matrix) -> float:
    off = (matrix - sparse.diags(matrix.diagonal())).tocoo()
    return float(off.data.min()) if off.nnz else 0.0


def test_criterion_2_operator_structure_suite():
    for bc, domain in (("neumann", box(0.0, 1.0)), ("periodic", periodic_cell(1.0))):
        grid = build_grid(domain, 1.0 / 4096)
        ones = constant_field(grid, 1.0)
        for op in (assemble_nonlocal(grid, QUARTIC_1D, 0.05, bc), assemble_local(grid, bc)):
            # mass-conserving closures annihilate constants to the last bit
            assert float(np.max(np.abs(difference_action(op, ones.values)))) == 0.0
            matrix = op.matrix().tocsr()
            assert _off_diagonal_minimum(matrix) >= 0.0
            if op.kind == NONLOCAL:
                asym = (matrix - matrix.T).tocoo()
                assert asym.nnz == 0 or float(np.max(np.abs(asym.data))) == 0.0
    # hostile-exterior operators lose the row-sum identity but keep the sign pattern
    ghosted = build_grid(box(0.0, 1.0), 1.0 / 4096, ghost_width=0.05)
    assert _off_diagonal_minimum(
        assemble_nonlocal(ghosted, QUARTIC_1D, 0.05, "dirichlet").matrix().tocsr()) >= 0.0
    plain = build_grid(box(0.0, 1.0), 1.0 / 4096)
    assert _off_diagonal_minimum(assemble_local(plain, "dirichlet").matrix().tocsr()) >= 0.0


# --- 3. operator consistency on smooth data ---------------------------------

def test_criterion_3_consistency_order_on_smooth_data():
    deltas = (0.4, 0.2, 0.1, 0.05)
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 2048)
    probe = field_from_function(grid, np.cos)
    local = assemble_local(grid, "periodic")
    errors = [
        consistency_error(assemble_nonlocal(grid, MOLLIFIER_1D, d, "periodic"), local, probe)
        for d in deltas
    ]
    assert _strictly_decreasing(errors)
    assert sweep_order(deltas, errors) >= 1.5


# --- 4. solver oracles ------------------------------------------------------

def test_criterion_4_solver_oracles():
    # spatially uniform growth follows the scalar exponential
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.3, "neumann")
    problem = SemilinearProblem(
        op, parse_reaction("linear(const(0.7))", 1.0), constant_field(grid, 1.0), 1.0)
    final = solve(problem, 1e-3, 1).states[-1].values
    assert abs(float(np.max(final)) - math.exp(0.7)) <= 1e-6

    # pinned-end heat flow damps the fundamental sine mode by e^{-t}
    grid = build_grid(box(0.0, math.pi), math.pi / 512)
    op = assemble_local(grid, "dirichlet")
    problem = SemilinearProblem(
        op, parse_reaction("zero", 1.0), field_from_function(grid, np.sin), 1.0)
    final = solve(problem, 1e-4, 1).states[-1].values
    reference = math.exp(-1.0) * np.sin(grid.coordinates[0])
    assert float(np.max(np.abs(final - reference))) <= 2e-4


# --- 5. solution convergence of nonlocal runs to local runs ------------------

def test_criterion_5_solution_convergence_neumann():
    errors = neumann_solution_sweep().column("error")
    assert _strictly_decreasing(errors)
    assert sweep_order(SOLUTION_DELTAS, errors) >= 1.0


def test_criterion_5_solution_convergence_periodic():
    errors = periodic_solution_sweep().column("error")
    assert _strictly_decreasing(errors)
    assert sweep_order(SOLUTION_DELTAS, errors) >= 1.0


def test_criterion_5_solution_convergence_dirichlet():
    errors = dirichlet_solution_sweep().column("error")
    assert _strictly_decreasing(errors)


# --- 6. principal spectrum point convergence --------------------------------

def test_criterion_6_period_map_spectrum_sweeps():
    # space-free coefficient: closed-form rate, gap at solver precision
    free = spectrum_convergence_experiment(
        box(0.0, 1.0), "neumann", parse_coefficient("time-sine(0.4,0.7)", 0.5),
        QUARTIC_1D, SPECTRUM_DELTAS, 1.0 / 128, 0.025)
    assert all(gap <= 1e-7 for gap in free.column("abs_gap"))
    assert all(free.column("pev_criterion"))

    # pinned ends on (0, pi): local reference rate is -1 for a zero coefficient
    pinned = spectrum_convergence_experiment(
        box(0.0, math.pi), "dirichlet", constant_coefficient(0.0, period=1.0),
        QUARTIC_1D, SPECTRUM_DELTAS, math.pi / 512, 0.01)
    assert abs(pinned.rows[0][2] - (-1.0)) <= 2e-3
    assert _strictly_decreasing(pinned.column("abs_gap"))
    assert all(pinned.column("pev_criterion"))

    # wrapped cell with a coefficient oscillating in both time and space
    wrapped = spectrum_convergence_experiment(
        periodic_cell(2.0 * math.pi), "periodic", parse_coefficient("tx-product(1,0.5,1)", 1.0),
        QUARTIC_1D, SPECTRUM_DELTAS, 2.0 * math.pi / 1024, 0.01)
    assert _strictly_decreasing(wrapped.column("abs_gap"))
    assert all(wrapped.column("pev_criterion"))


# --- 7. spectral response to coefficient changes ----------------------------

def test_criterion_7_shift_and_lipschitz_bounds():
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.3, "neumann")

    def rate(coefficient):
        return principal_value(
            PeriodMap(op, coefficient, 0.025), tol=1e-12, max_iterations=400).value

    base = parse_coefficient("time-sine(0.3,0.8)", 1.0)
    base_rate = rate(base)
    for shift in (-1.0, 0.3, 2.0):
        assert abs(rate(shift_coefficient(base, shift)) - base_rate - shift) <= 1e-7

    # random catalog pairs: the rate moves no farther than the coefficients do
    rng = np.random.default_rng(20240814)
    templates = (
        lambda r: f"const({r.uniform(-1, 1):.6f})",
        lambda r: f"time-sine({r.uniform(-0.5, 0.5):.6f},{r.uniform(0.2, 0.9):.6f})",
        lambda r: f"space-cosine({r.uniform(-0.5, 0.5):.6f},{r.uniform(0.2, 0.8):.6f},1)",
        lambda r: f"tx-product({r.uniform(-0.5, 0.5):.6f},{r.uniform(0.2, 0.8):.6f},1)",
    )
    for _ in range(5):
        first = templates[rng.integers(0, len(templates))](rng)
        second = templates[rng.integers(0, len(templates))](rng)
        assert perturbation_check(
            PeriodMap(op, parse_coefficient(first, 1.0), 0.025),
            PeriodMap(op, parse_coefficient(second, 1.0), 0.025),
            tol=1e-8,
        )


# --- 8. positive periodic orbit convergence ---------------------------------

def test_criterion_8_periodic_orbit_sweeps():
    # saturating growth with a flat ceiling: every radius shares the orbit u = 1
    flat = neumann_orbit_sweep()
    assert all(gap <= 1e-7 for gap in flat.column("sup_gap"))

    pinned = dirichlet_orbit_sweep()
    assert _strictly_decreasing(pinned.column("sup_gap"))

    wrapped = periodic_orbit_sweep()
    assert _strictly_decreasing(wrapped.column("sup_gap"))

    for sweep in (flat, pinned, wrapped):
        assert all(sweep.column("h2_delta_ok"))
        assert sweep.meta["max_monotone_violation"] <= 1e-10
        assert sweep.meta["max_start_agreement"] <= 1e-7


# --- 9. order preservation and positivity -----------------------------------

def test_criterion_9_comparison_and_positivity():
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.3, "neumann")
    reaction = parse_reaction("logistic(const(1))", 1.0)
    snapshots = 4
    rng = np.random.default_rng(20240813)
    floor = math.inf
    for _ in range(20):
        low = rng.uniform(0.0, 1.0, size=grid.shape)
        high = low + rng.uniform(0.05, 1.0, size=grid.shape)
        run_low = solve(
            SemilinearProblem(op, reaction, Field(grid, low, 0.0), 1.0), 1.0 / 128, snapshots)
        run_high = solve(
            SemilinearProblem(op, reaction, Field(grid, high, 0.0), 1.0), 1.0 / 128, snapshots)
        assert check_comparison(run_low, run_high, tol=1e-10)
        for run in (run_low, run_high):
            floor = min(floor, min(float(np.min(s.values)) for s in run.states))
    assert floor >= -1e-12

    # positivity carried through the shared sweeps: the sign-definite solution
    # run stays nonnegative, and every computed orbit is interior-positive
    assert dirichlet_solution_sweep().meta["min_nodal_value"] >= -1e-12
    for sweep in (neumann_orbit_sweep(), dirichlet_orbit_sweep(), periodic_orbit_sweep()):
        assert sweep.meta["min_interior_value"] > 0.0
