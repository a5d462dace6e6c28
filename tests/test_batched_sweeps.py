"""Radius sweeps run as one batch: each row equals its problem run on its own.

A sweep advances the local reference and every radius as rows of one
array, through one step that holds every operator.  Run alone, each
problem must give the same numbers bitwise on every closure: the rows
share one FFT length, which one-dimensional boxes take from the grid
alone, and every operation acts row by row.
"""

import math

import numpy as np
import pytest

from dispersal import (
    QUARTIC,
    KPPProblem,
    NoConvergenceError,
    PeriodMap,
    SemilinearProblem,
    box,
    kernel_profile,
    orbit_convergence_experiment,
    parse_coefficient,
    parse_growth,
    parse_reaction,
    periodic_cell,
    positive_periodic_solution,
    principal_value,
    solution_convergence_experiment,
    solve,
    spectrum_convergence_experiment,
    sweep_operators,
)
from dispersal.evolution import _solve_together
from dispersal.grids import field_from_function, sup_distance
from dispersal.kpp import _periodic_solutions
from dispersal.spectral import _power_iteration

QUARTIC_1D = kernel_profile(QUARTIC, 1)

# bc: (domain, h, deltas, coefficient, initial data)
HABITATS = {
    "periodic": (
        periodic_cell(2.0 * math.pi),
        2.0 * math.pi / 128,
        [0.8, 0.4],
        "tx-product(1,0.5,1)",
        lambda x: 1.0 + 0.5 * np.sin(x),
    ),
    "neumann": (box(0.0, 1.0), 1.0 / 64, [0.5, 0.25], "space-cosine(1,0.5,2)", np.cos),
    "dirichlet": (
        box(0.0, 2.0 * math.pi),
        2.0 * math.pi / 128,
        [0.8, 0.4],
        "space-cosine(1,0.5,1)",
        lambda x: np.sin(0.5 * x),
    ),
}
DT = 1.0 / 16


def sweep(bc):
    domain, h, deltas, coefficient, u0 = HABITATS[bc]
    deltas, local_op, nonlocal_ops = sweep_operators(domain, bc, QUARTIC_1D, deltas, h)
    return domain, h, deltas, [local_op, *nonlocal_ops], coefficient, u0


def assert_same(got, want):
    """Bitwise equal (NaN equal to NaN)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("bc", sorted(HABITATS))
def test_batched_solutions_equal_single_runs(bc):
    domain, h, deltas, ops, _, u0 = sweep(bc)
    reaction = parse_reaction("logistic(const(1))", 1.0)
    initial = field_from_function(ops[0].grid, u0)
    alone = [solve(SemilinearProblem(op, reaction, initial, 0.5), DT, 4) for op in ops]
    for run in alone:
        assert [state.time for state in run.states] == [k * DT for k in (0, 2, 4, 6, 8)]
    report = solution_convergence_experiment(
        domain, bc, QUARTIC_1D, reaction, u0, 0.5, deltas, h, DT, snapshots=4
    )
    errors = [max(map(sup_distance, run.states, alone[0].states)) for run in alone[1:]]
    assert_same(report.column("error"), errors)
    lows = [float(np.min(state.values)) for run in alone for state in run.states]
    assert_same(report.meta["min_nodal_value"], min(lows))
    problem = SemilinearProblem(ops[0], reaction, initial, 0.5)
    for got, want in zip(_solve_together(problem, ops, DT, 4), alone):
        assert got.times == want.times and got.steps == want.steps
        for state, expected in zip(got.states, want.states):
            assert_same(state.values, expected.values)


@pytest.mark.parametrize("bc", sorted(HABITATS))
def test_batched_power_iteration_equals_single_maps(bc):
    domain, h, deltas, ops, coefficient, _ = sweep(bc)
    a = parse_coefficient(coefficient, 1.0)
    alone = [principal_value(PeriodMap(op, a, DT)) for op in ops]
    batched = _power_iteration(PeriodMap(ops[0], a, DT), ops, 1e-9, 20000)
    for got, want in zip(batched, alone):
        assert got.iterations == want.iterations
        assert_same([got.value, got.residual], [want.value, want.residual])
        assert_same(got.eigenfunction.values, want.eigenfunction.values)
    if bc == "dirichlet":  # rows settle at different iterations: frozen rows wait
        assert len({result.iterations for result in alone}) > 1
    report = spectrum_convergence_experiment(domain, bc, a, QUARTIC_1D, deltas, h, DT)
    assert_same(report.column("lambda_delta"), [r.value for r in alone[1:]])
    assert_same(report.column("lambda_r"), [alone[0].value] * len(deltas))
    gaps = [abs(r.value - alone[0].value) for r in alone[1:]]
    assert_same(report.column("abs_gap"), gaps)
    assert report.column("pev_criterion") == [r.is_principal_eigenvalue for r in alone[1:]]


@pytest.mark.parametrize("bc", sorted(HABITATS))
def test_batched_brackets_equal_single_problems(bc):
    domain, h, deltas, ops, coefficient, _ = sweep(bc)
    growth = parse_growth(f"logistic({coefficient})", 1.0)
    problems = [KPPProblem(op, growth, DT) for op in ops]
    alone = [positive_periodic_solution(problem, snapshots_per_period=4) for problem in problems]
    batched = _periodic_solutions(problems[0], ops, 1e-8, 2000, 4)
    for got, want in zip(batched, alone):
        # both brackets of every problem settle at their own periods
        assert (got.super_iterations, got.sub_iterations) == (
            want.super_iterations,
            want.sub_iterations,
        )
        assert got.super_iterations != got.sub_iterations
        assert got.times == want.times and got.saturation_bound == want.saturation_bound
        scalars = ("monotone_violation_super", "monotone_violation_sub", "start_agreement")
        scalars += ("residual", "interior_min")
        assert_same([getattr(got, s) for s in scalars], [getattr(want, s) for s in scalars])
        for state, expected in zip(got.states, want.states):
            assert_same(state.values, expected.values)
    report = orbit_convergence_experiment(
        domain, bc, growth, QUARTIC_1D, deltas, h, DT, snapshots_per_period=4
    )
    gaps = [max(map(sup_distance, orbit.states, alone[0].states)) for orbit in alone[1:]]
    assert_same(report.column("sup_gap"), gaps)
    assert report.column("h2_delta_ok") == [True] * len(deltas)
    violations = [max(o.monotone_violation_super, o.monotone_violation_sub) for o in alone]
    assert_same(report.meta["max_monotone_violation"], max(violations))
    assert_same(report.meta["max_start_agreement"], max(o.start_agreement for o in alone))


def test_one_failing_map_raises_its_own_error_while_the_others_settle():
    # Power iteration settles the local and the delta = 0.4 rows after 13
    # iterations; the delta = 0.8 row needs 14, so a cap of 13 fails that
    # row alone, with the error it raises on its own.
    _, _, _, ops, coefficient, _ = sweep("dirichlet")
    a = parse_coefficient(coefficient, 1.0)
    maps = [PeriodMap(op, a, DT) for op in ops]
    assert [principal_value(pm).iterations for pm in maps] == [13, 14, 13]
    for pm in (maps[0], maps[2]):
        assert principal_value(pm, max_iterations=13).iterations <= 13
    with pytest.raises(NoConvergenceError) as alone:
        principal_value(maps[1], max_iterations=13)
    with pytest.raises(NoConvergenceError) as batched:
        _power_iteration(maps[0], ops, 1e-9, 13)
    assert str(batched.value) == str(alone.value)
    assert "did not settle in 13 iterations; last ratio" in str(alone.value)


def test_one_failing_bracket_raises_its_own_error_while_the_others_settle():
    # The local reference's sub bracket needs 46 periods, the radii's 42
    # and 44: a cap of 45 fails the reference alone.
    _, _, _, ops, coefficient, _ = sweep("dirichlet")
    growth = parse_growth(f"logistic({coefficient})", 1.0)
    problems = [KPPProblem(op, growth, DT) for op in ops]
    counts = [positive_periodic_solution(p, snapshots_per_period=4).sub_iterations for p in problems]
    assert counts == [46, 42, 44]
    for problem in problems[1:]:
        positive_periodic_solution(problem, max_periods=45, snapshots_per_period=4)
    with pytest.raises(NoConvergenceError) as alone:
        positive_periodic_solution(problems[0], max_periods=45, snapshots_per_period=4)
    with pytest.raises(NoConvergenceError) as batched:
        _periodic_solutions(problems[0], ops, 1e-8, 45, 4)
    assert str(batched.value) == str(alone.value) == (
        "period-map iteration did not reach tol=1e-08 within 45 periods"
    )
