"""Time stepping: equilibria, scalar oracles, comparison, and radius sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersal import (
    QUARTIC,
    BlowUpError,
    Field,
    SemilinearProblem,
    ValidationError,
    assemble_local,
    assemble_nonlocal,
    box,
    build_grid,
    check_comparison,
    constant_field,
    field_from_function,
    kernel_profile,
    parse_reaction,
    periodic_cell,
    solution_convergence_experiment,
    solve,
)
from dispersal.evolution import implicit_solver

QUARTIC_1D = kernel_profile(QUARTIC, 1)


def neumann_operator(h=1.0 / 64, delta=0.3):
    grid = build_grid(box(0.0, 1.0), h)
    return assemble_nonlocal(grid, QUARTIC_1D, delta, "neumann")


# --------------------------------------------------------------------- #
# equilibria and scalar oracles                                          #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_constant_state_is_a_bitwise_equilibrium(kind):
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    op = (
        assemble_nonlocal(grid, QUARTIC_1D, 0.3, "neumann")
        if kind == "nonlocal"
        else assemble_local(grid, "neumann")
    )
    u0 = constant_field(grid, 3.0)
    problem = SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.0, 0.5)
    run = solve(problem, 0.05, [0.25, 0.5])
    assert len(run.states) == 3
    for state in run.states:
        assert np.all(state.values == 3.0)  # warm-started solves return u unchanged


@given(
    value=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False).filter(
        # below ~1e-154 the solver's squared residual norm underflows and the
        # warm-start shortcut is bypassed, leaving last-ulp drift
        lambda v: v == 0.0 or abs(v) > 1e-100
    )
)
@settings(max_examples=20, deadline=None)
def test_constant_equilibrium_holds_for_arbitrary_levels(value):
    op = neumann_operator(h=1.0 / 16, delta=0.3)
    u0 = constant_field(op.grid, value)
    run = solve(SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.0, 0.2), 0.05, [0.2])
    assert np.all(run.states[-1].values == u0.values[0])


def test_uniform_growth_matches_the_exponential_oracle():
    # Spatially uniform data stays uniform, so the run must track u' = 0.7 u.
    op = neumann_operator()
    reaction = parse_reaction("linear(const(0.7))", 1.0)
    problem = SemilinearProblem(op, reaction, constant_field(op.grid, 1.0), 0.0, 1.0)
    run = solve(problem, 1e-3, [1.0])
    final = run.states[-1].values
    assert np.max(np.abs(final - math.exp(0.7))) <= 1e-6
    assert np.ptp(final) <= 1e-12  # uniformity is preserved, not just the mean


def test_dirichlet_heat_run_matches_the_separated_oracle():
    # Pinned-end diffusion of sin x on (0, pi) decays like e^{-t} sin x.
    h = math.pi / 512
    grid = build_grid(box(0.0, math.pi), h)
    op = assemble_local(grid, "dirichlet")
    u0 = field_from_function(grid, np.sin)
    problem = SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.0, 1.0)
    run = solve(problem, 1e-4, [1.0])
    x = grid.coordinates[0]
    exact = math.exp(-1.0) * np.sin(x)
    assert np.max(np.abs(run.states[-1].values - exact)) <= 2e-4


def test_snapshots_record_requested_times_and_start_state():
    op = neumann_operator(h=1.0 / 16)
    u0 = field_from_function(op.grid, lambda x: np.cos(math.pi * x))
    run = solve(SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.0, 1.0), 0.25, [0.5, 1.0])
    assert run.times == (0.0, 0.5, 1.0)
    assert run.steps == 4 and run.dt == 0.25
    assert np.array_equal(run.states[0].values, u0.values)


# --------------------------------------------------------------------- #
# implicit solves                                                        #
# --------------------------------------------------------------------- #


def solver_operator(closure, kind, dim):
    """Small operator of every closure and kind; 2D boxes take the Krylov path."""
    h = 1.0 / 16 if dim == 2 else 1.0 / 64
    delta = 4.0 * h
    if closure == "periodic":
        domain = periodic_cell([1.0] * dim)
    else:
        domain = box([0.0] * dim, [1.0] * dim)
    if kind == "local":
        return assemble_local(build_grid(domain, h), closure)
    ghost = delta if closure == "dirichlet" else 0.0
    grid = build_grid(domain, h, ghost_width=ghost)
    return assemble_nonlocal(grid, kernel_profile(QUARTIC, dim), delta, closure)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
@pytest.mark.parametrize("closure", ["dirichlet", "neumann", "periodic"])
def test_implicit_solve_meets_the_residual_and_keeps_solved_warm_starts(closure, kind, dim):
    op = solver_operator(closure, kind, dim)
    scale = 0.01
    solve_system = implicit_solver(op, scale)
    b = np.random.default_rng(7).uniform(-1.0, 1.0, op.grid.num_nodes)
    b[op.constrained_mask()] = 0.0
    x = solve_system(b, np.zeros_like(b))
    # residual against the offset-difference action, not the CSR matrix
    residual = np.linalg.norm(b - x + scale * op.apply(x))
    assert residual <= 1e-10 * np.linalg.norm(b)
    again = solve_system(b, x)
    assert np.array_equal(again, x) and again is not x
    assert np.all(solve_system(np.zeros_like(b), x) == 0.0)


# --------------------------------------------------------------------- #
# validation and failure paths                                           #
# --------------------------------------------------------------------- #


def test_stepper_rejects_misaligned_snapshots_and_windows():
    op = neumann_operator(h=1.0 / 16)
    u0 = constant_field(op.grid, 1.0)
    zero = parse_reaction("zero", 0.0)
    problem = SemilinearProblem(op, zero, u0, 0.0, 1.0)
    with pytest.raises(ValidationError, match="integer multiple"):
        solve(problem, 0.25, [0.3])
    with pytest.raises(ValidationError, match="outside the integration window"):
        solve(problem, 0.25, [1.25])
    with pytest.raises(ValidationError, match="dt must be positive"):
        solve(problem, -0.1, [])
    with pytest.raises(ValidationError, match="integer number of steps"):
        solve(problem, 0.3, [])


def test_problem_construction_validates_grid_window_and_pins():
    op = neumann_operator(h=1.0 / 16)
    zero = parse_reaction("zero", 0.0)
    other = build_grid(box(0.0, 1.0), 1.0 / 32)
    with pytest.raises(ValidationError, match="operator grid"):
        SemilinearProblem(op, zero, constant_field(other, 1.0), 0.0, 1.0)
    with pytest.raises(ValidationError, match="must exceed start"):
        SemilinearProblem(op, zero, constant_field(op.grid, 1.0), 1.0, 1.0)
    grid = build_grid(box(0.0, 1.0), 1.0 / 16, ghost_width=0.25)
    pinned = assemble_nonlocal(grid, QUARTIC_1D, 0.25, "dirichlet")
    with pytest.raises(ValidationError, match="vanish on pinned nodes"):
        SemilinearProblem(pinned, zero, constant_field(grid, 1.0), 0.0, 1.0)


def test_unknown_reaction_text_is_rejected():
    with pytest.raises(ValidationError, match="unknown reaction"):
        parse_reaction("cubic(const(1))", 0.0)


def test_runaway_growth_raises_the_blow_up_signal():
    op = neumann_operator(h=1.0 / 16)
    reaction = parse_reaction("linear(const(40))", 1.0)
    problem = SemilinearProblem(op, reaction, constant_field(op.grid, 1.0), 0.0, 50.0)
    with pytest.raises(BlowUpError, match="exceeded"):
        solve(problem, 0.25, [50.0])


# --------------------------------------------------------------------- #
# trajectory comparison                                                  #
# --------------------------------------------------------------------- #


def test_identical_trajectories_compare_true_at_zero_tolerance():
    op = neumann_operator(h=1.0 / 32)
    u0 = field_from_function(op.grid, lambda x: 1.0 + 0.5 * np.cos(math.pi * x))
    run = solve(SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.0, 0.5), 0.05, [0.25, 0.5])
    assert check_comparison(run, run, 0.0) is True


def test_saturating_runs_preserve_the_initial_ordering():
    # Logistic saturation pulls 0.1 up and 10 down toward 1; they never cross.
    op = neumann_operator(h=1.0 / 32)
    reaction = parse_reaction("logistic(const(1))", 1.0)
    snaps = [0.25, 0.5, 0.75, 1.0]
    lower = solve(
        SemilinearProblem(op, reaction, constant_field(op.grid, 0.1), 0.0, 1.0), 1.0 / 64, snaps
    )
    upper = solve(
        SemilinearProblem(op, reaction, constant_field(op.grid, 10.0), 0.0, 1.0), 1.0 / 64, snaps
    )
    assert check_comparison(lower, upper, 1e-10) is True
    assert check_comparison(upper, lower, 1e-10) is False


def test_comparison_rejects_mismatched_trajectories():
    op = neumann_operator(h=1.0 / 16)
    u0 = constant_field(op.grid, 1.0)
    zero = parse_reaction("zero", 0.0)
    base = solve(SemilinearProblem(op, zero, u0, 0.0, 1.0), 0.25, [1.0])
    longer = solve(SemilinearProblem(op, zero, u0, 0.0, 1.0), 0.25, [0.5, 1.0])
    with pytest.raises(ValidationError, match="snapshot counts"):
        check_comparison(base, longer, 0.0)
    other_op = neumann_operator(h=1.0 / 32)
    other = solve(
        SemilinearProblem(other_op, zero, constant_field(other_op.grid, 1.0), 0.0, 1.0), 0.25, [1.0]
    )
    with pytest.raises(ValidationError, match="different grids"):
        check_comparison(base, other, 0.0)
    shifted = solve(SemilinearProblem(op, zero, u0, 0.0, 1.5), 0.25, [1.5])
    with pytest.raises(ValidationError, match="times differ"):
        check_comparison(base, shifted, 0.0)
    with pytest.raises(ValidationError, match="nonnegative"):
        check_comparison(base, base, -1.0)


def test_random_ordered_pairs_stay_ordered_over_the_run():
    op = neumann_operator(h=1.0 / 32, delta=0.3)
    reaction = parse_reaction("logistic(const(1))", 1.0)
    rng = np.random.default_rng(20240811)
    n = op.grid.num_nodes
    for _ in range(5):
        low = rng.uniform(0.0, 1.0, size=n)
        high = low + rng.uniform(0.0, 1.0, size=n)
        runs = [
            solve(
                SemilinearProblem(op, reaction, Field(op.grid, v, 0.0), 0.0, 1.0),
                1.0 / 64,
                [0.5, 1.0],
            )
            for v in (low, high)
        ]
        assert check_comparison(runs[0], runs[1], 1e-10) is True


# --------------------------------------------------------------------- #
# invariant regions                                                      #
# --------------------------------------------------------------------- #


def test_saturating_reaction_keeps_the_run_in_its_invariant_box():
    op = neumann_operator(h=1.0 / 64, delta=0.3)
    reaction = parse_reaction("logistic(const(1))", 1.0)
    u0 = field_from_function(op.grid, lambda x: 0.5 * (1.0 + np.cos(2.0 * math.pi * x)))
    run = solve(SemilinearProblem(op, reaction, u0, 0.0, 2.0), 1.0 / 64, [0.5, 1.0, 1.5, 2.0])
    ceiling = max(1.0, float(np.max(u0.values))) + 1e-6
    for state in run.states:
        assert np.min(state.values) >= -1e-12
        assert np.max(state.values) <= ceiling


# --------------------------------------------------------------------- #
# kernel-radius sweeps against the local reference                       #
# --------------------------------------------------------------------- #


def test_radius_sweep_neumann_cosine_errors_decrease():
    report = solution_convergence_experiment(
        box(0.0, 1.0),
        "neumann",
        QUARTIC_1D,
        parse_reaction("zero", 0.0),
        lambda x: np.cos(math.pi * x),
        0.25,
        [0.2, 0.1, 0.05],
        1.0 / 512,
        1.0 / 256,
    )
    errors = report.column("error")
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert report.meta["min_nodal_value"] >= -1e-12 - 1.0  # cos data dips to -1, no worse


def test_radius_sweep_periodic_sine_shows_second_order_decay():
    report = solution_convergence_experiment(
        periodic_cell(2.0 * math.pi),
        "periodic",
        QUARTIC_1D,
        parse_reaction("zero", 0.0),
        np.sin,
        0.25,
        [0.2, 0.1, 0.05],
        2.0 * math.pi / 4096,
        1.0 / 256,
    )
    deltas = report.column("delta")
    errors = report.column("error")
    assert all(a > b for a, b in zip(errors, errors[1:]))
    endpoint = math.log(errors[0] / errors[-1]) / math.log(deltas[0] / deltas[-1])
    assert endpoint >= 1.5


def test_radius_sweep_dirichlet_bump_errors_decrease():
    report = solution_convergence_experiment(
        box(0.0, 1.0),
        "dirichlet",
        QUARTIC_1D,
        parse_reaction("zero", 0.0),
        lambda x: (x * (1.0 - x)) ** 2,
        0.25,
        [0.2, 0.1],
        1.0 / 128,
        1.0 / 64,
    )
    errors = report.column("error")
    assert errors[0] > errors[1] > 0.0


def test_shared_equilibrium_keeps_the_sweep_at_roundoff():
    report = solution_convergence_experiment(
        box(0.0, 1.0),
        "neumann",
        QUARTIC_1D,
        parse_reaction("zero", 0.0),
        lambda x: np.full_like(x, 2.5),
        0.5,
        [0.4, 0.2],
        1.0 / 64,
        0.05,
    )
    assert all(e <= 1e-10 for e in report.column("error"))


def test_halving_dt_barely_moves_the_sweep_errors():
    # The time-integration error is common to both runs of a pair, so the
    # recorded gap must be insensitive to dt refinement.
    def sweep(dt):
        return solution_convergence_experiment(
            periodic_cell(2.0 * math.pi),
            "periodic",
            QUARTIC_1D,
            parse_reaction("zero", 0.0),
            np.sin,
            0.5,
            [0.4, 0.2],
            2.0 * math.pi / 256,
            dt,
        ).column("error")

    coarse, fine = sweep(0.05), sweep(0.025)
    for a, b in zip(coarse, fine):
        assert abs(a - b) <= 0.05 * a


def test_sweep_rejects_bad_radius_lists_and_coarse_grids():
    args = (
        box(0.0, 1.0),
        "neumann",
        QUARTIC_1D,
        parse_reaction("zero", 0.0),
        lambda x: np.cos(math.pi * x),
        0.25,
    )
    with pytest.raises(ValidationError, match="strictly decreasing"):
        solution_convergence_experiment(*args, [0.1, 0.2], 1.0 / 128, 0.05)
    with pytest.raises(ValidationError, match="min\\(deltas\\)/8"):
        solution_convergence_experiment(*args, [0.2, 0.1], 1.0 / 32, 0.05)
    with pytest.raises(ValidationError, match="positive"):
        solution_convergence_experiment(*args, [], 1.0 / 128, 0.05)
