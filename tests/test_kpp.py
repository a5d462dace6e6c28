"""Positive periodic states of saturating growth: oracles and invariants."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from dispersal import (
    QUARTIC,
    CollapsedToZeroError,
    KPPProblem,
    NoConvergenceError,
    NumericsError,
    ValidationError,
    assemble_local,
    assemble_nonlocal,
    box,
    build_grid,
    constant_coefficient,
    default_start,
    kernel_profile,
    orbit_convergence_experiment,
    parse_growth,
    periodic_cell,
    positive_periodic_solution,
    validate_saturation,
    verify_invasion_condition,
)
from dispersal import kpp
from dispersal.evolution import implicit_solver, linear_step
from dispersal.kpp import (
    COLLAPSE_FLOOR,
    _bracket,
)
from oracles import advance_periods

QUARTIC_1D = kernel_profile(QUARTIC, 1)


def neumann_problem(growth_text, h=1.0 / 32, delta=0.3, dt=0.05, period=1.0, kind="nonlocal"):
    grid = build_grid(box(0.0, 1.0), h)
    op = (
        assemble_nonlocal(grid, QUARTIC_1D, delta, "neumann")
        if kind == "nonlocal"
        else assemble_local(grid, "neumann")
    )
    return KPPProblem(op, parse_growth(growth_text, period), dt)


def scalar_orbit(times, period=1.0):
    """Closed-form periodic state of u' = a(t)u - u**2, a = 1 + sin(2 pi t/T)/2.

    The reciprocal w = 1/u satisfies the linear equation w' = 1 - a w, whose
    unique periodic solution is explicit up to quadratures of exp(A) with
    A(t) the running integral of a.
    """

    def running(t):
        return t + (1.0 - math.cos(2.0 * math.pi * t / period)) * period / (4.0 * math.pi)

    def weight(t):
        value, err = quad(lambda s: math.exp(running(s)), 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-11
        return value

    w0 = weight(period) / math.expm1(running(period))
    return [1.0 / (math.exp(-running(t)) * (w0 + weight(t))) for t in times]


def bracket_starts(problem):
    """The super and sub starts of the bracketing, pinned."""
    op = problem.operator
    upper = np.full(op.grid.num_nodes, validate_saturation(problem))
    upper[op.constrained] = 0.0
    return upper, 1e-3 * default_start(op).values


def serial_step(problem):
    """One time step of one field by the real-space formulas.

    Backward-Euler dispersal and Heun reaction, each solve through
    ``implicit_solver``: the reference that the paired brackets of
    ``positive_periodic_solution`` must reproduce.
    """
    op, dt = problem.operator, problem.dt
    solver = implicit_solver(op, dt)
    pinned = op.constrained

    def rate(t, u):
        return u * (problem.growth.evaluate(t, op.grid.coordinates) - u)

    def step(t, u):
        fn = rate(t, u)
        b = u + dt * fn
        b[pinned] = 0.0
        predictor = solver(b, u)
        predictor[pinned] = 0.0
        b = u + (dt / 2.0) * (fn + rate(t + dt, predictor))
        b[pinned] = 0.0
        out = solver(b, predictor)
        out[pinned] = 0.0
        return out

    return step


def serial_bracket(problem, start, expect, tol=1e-8, max_periods=2000):
    """One bracket on its own: limit, iteration count, worst order breach."""
    step = serial_step(problem)
    u, worst = start.copy(), 0.0
    for iteration in range(1, max_periods + 1):
        image = u
        for k in range(problem.steps_per_period):
            image = step(k * problem.dt, image)
        breach = np.max(image - u) if expect == "nonincreasing" else np.max(u - image)
        worst = max(worst, float(breach))
        gap = float(np.max(np.abs(image - u)))
        u = image
        if float(np.max(np.abs(u))) < COLLAPSE_FLOOR:
            raise CollapsedToZeroError(f"collapsed to zero after {iteration} periods")
        if gap < tol:
            return u, iteration, worst
    raise NoConvergenceError(f"did not reach tol={tol!r} within {max_periods} periods")


# --------------------------------------------------------------------- #
# invasion condition (growth rate of the linearization at zero)          #
# --------------------------------------------------------------------- #


def test_unit_carrying_level_invades_at_rate_one():
    ok, rate = verify_invasion_condition(neumann_problem("logistic(const(1))"))
    assert ok is True
    assert abs(rate - 1.0) <= 1e-8


def test_pinned_end_invasion_rate_reflects_the_domain_size():
    # On a pinned interval of length 2 pi the slowest mode decays at 1/4,
    # so a unit carrying level invades at 3/4.
    grid = build_grid(box(0.0, 2.0 * math.pi), 2.0 * math.pi / 256)
    problem = KPPProblem(assemble_local(grid, "dirichlet"), parse_growth("logistic(const(1))", 1.0), 0.01)
    ok, rate = verify_invasion_condition(problem)
    assert ok is True
    assert abs(rate - 0.75) <= 5e-3


def test_negative_carrying_level_cannot_invade():
    ok, rate = verify_invasion_condition(neumann_problem("logistic(const(-1))"))
    assert ok is False
    assert abs(rate - (-1.0)) <= 1e-6


# --------------------------------------------------------------------- #
# saturation search                                                      #
# --------------------------------------------------------------------- #


def test_doubling_search_finds_the_first_strictly_negative_level():
    # f = 1 - u vanishes at u = 1, so the search must move on to 2.
    problem = neumann_problem("logistic(const(1))")
    assert validate_saturation(problem) == problem.saturation_bound == 2.0


def test_non_saturating_growth_is_rejected():
    # a = 2**40 is not below any doubling level the search tries, so the
    # problem is refused when it is built.
    grid = build_grid(box(0.0, 1.0), 1.0 / 32)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.3, "neumann")
    with pytest.raises(ValidationError, match="does not saturate"):
        KPPProblem(op, constant_coefficient(2.0**40), 0.05)


def test_unknown_growth_text_is_rejected():
    with pytest.raises(ValidationError, match="unknown growth"):
        parse_growth("allee(const(1))", 1.0)
    with pytest.raises(ValidationError, match="whole steps"):
        neumann_problem("logistic(const(1))", dt=0.3)


# --------------------------------------------------------------------- #
# the periodic orbit itself                                              #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_autonomous_unit_orbit_is_the_constant_one(kind):
    orbit = positive_periodic_solution(
        neumann_problem("logistic(const(1))", dt=1.0 / 32, kind=kind)
    )
    assert len(orbit.states) == 32
    assert orbit.times[0] == 0.0
    for state in orbit.states:
        assert np.max(np.abs(state.values - 1.0)) <= 1e-7
    assert orbit.residual <= 1e-8
    assert orbit.saturation_bound == 2.0
    assert orbit.monotone_violation_super <= 1e-10
    assert orbit.monotone_violation_sub <= 1e-10
    assert orbit.start_agreement <= 1e-7
    assert orbit.interior_min > 0.0


def test_oscillating_orbit_matches_the_reciprocal_form_oracle():
    problem = neumann_problem("logistic(time-sine(1,0.5))", h=1.0 / 16, dt=1.0 / 1024)
    orbit = positive_periodic_solution(problem)
    exact = scalar_orbit(orbit.times)
    worst = max(
        float(np.max(np.abs(state.values - value)))
        for state, value in zip(orbit.states, exact)
    )
    assert worst <= 1e-5


def test_pinned_end_steady_profile_is_symmetric_and_below_one():
    grid = build_grid(box(0.0, 2.0 * math.pi), 2.0 * math.pi / 256)
    problem = KPPProblem(
        assemble_local(grid, "dirichlet"), parse_growth("logistic(const(1))", 1.0), 1.0 / 128
    )
    orbit = positive_periodic_solution(problem)
    profile = orbit.states[0].values
    assert np.max(np.abs(profile - profile[::-1])) <= 1e-6  # mirror symmetry about the midpoint
    assert orbit.interior_min > 0.0
    assert 0.5 < np.max(profile) < 1.0


def test_perturbed_orbits_return_to_the_periodic_state():
    problem = neumann_problem("logistic(time-sine(1,0.5))", h=1.0 / 16, dt=1.0 / 256)
    orbit = positive_periodic_solution(problem)
    anchor = orbit.states[0].values
    for factor in (0.9, 1.1):
        settled = advance_periods(problem, factor * anchor, 20)
        assert np.max(np.abs(settled - anchor)) <= 1e-7


def test_dying_population_collapses_to_zero():
    # The sub bracket starts lower and collapses a period earlier, yet the
    # error is the super bracket's, as if that bracket ran first.
    problem = neumann_problem("logistic(const(-12))", dt=1.0 / 32)
    upper, lower = bracket_starts(problem)
    with pytest.raises(CollapsedToZeroError) as super_error:
        serial_bracket(problem, upper, "nonincreasing")
    with pytest.raises(CollapsedToZeroError) as sub_error:
        serial_bracket(problem, lower, "nondecreasing")
    periods = int(re.search(r"after (\d+) periods", str(super_error.value)).group(1))
    assert f"after {periods - 1} periods" in str(sub_error.value)
    with pytest.raises(CollapsedToZeroError, match=f"collapsed to zero after {periods} periods"):
        positive_periodic_solution(problem)
    # capped before the super bracket collapses: its non-convergence wins
    # over the sub bracket's collapse one period earlier
    with pytest.raises(NoConvergenceError, match=f"within {periods - 1} periods"):
        positive_periodic_solution(problem, max_periods=periods - 1)


def test_too_few_periods_raise_no_convergence():
    problem = neumann_problem("logistic(time-sine(1,0.5))", h=1.0 / 16, dt=1.0 / 32)
    with pytest.raises(NoConvergenceError, match="within 3 periods"):
        positive_periodic_solution(problem, max_periods=3)
    # enough periods for the super bracket only: the sub bracket's failure
    orbit = positive_periodic_solution(problem)
    assert orbit.sub_iterations > orbit.super_iterations
    with pytest.raises(NoConvergenceError, match=f"within {orbit.super_iterations} periods"):
        positive_periodic_solution(problem, max_periods=orbit.super_iterations)


def periodic_problem():
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 64)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.4, "periodic")
    return KPPProblem(op, parse_growth("logistic(tx-product(1,0.5,1))", 1.0), 1.0 / 16)


def dirichlet_problem(kind):
    grid = build_grid(box(0.0, 2.0 * math.pi), 2.0 * math.pi / 64)
    op = (
        assemble_nonlocal(grid, QUARTIC_1D, 0.4, "dirichlet")
        if kind == "nonlocal"
        else assemble_local(grid, "dirichlet")
    )
    return KPPProblem(op, parse_growth("logistic(space-cosine(1,0.5,1))", 1.0), 1.0 / 16)


PAIRED_CASES = {
    "periodic": periodic_problem,
    "neumann-nonlocal": lambda: neumann_problem("logistic(time-sine(1,0.5))", dt=1.0 / 16),
    "neumann-local": lambda: neumann_problem(
        "logistic(time-sine(1,0.5))", dt=1.0 / 16, kind="local"
    ),
    "dirichlet-nonlocal": lambda: dirichlet_problem("nonlocal"),
    "dirichlet-local": lambda: dirichlet_problem("local"),
}


@pytest.mark.parametrize("case", sorted(PAIRED_CASES))
def test_paired_brackets_reproduce_the_serial_iterations(case):
    problem = PAIRED_CASES[case]()
    orbit = positive_periodic_solution(problem, snapshots_per_period=4)
    upper, lower = bracket_starts(problem)
    upper, super_iters, viol_super = serial_bracket(problem, upper, "nonincreasing")
    lower, sub_iters, viol_sub = serial_bracket(problem, lower, "nondecreasing")
    assert (orbit.super_iterations, orbit.sub_iterations) == (super_iters, sub_iters)
    assert orbit.monotone_violation_super == viol_super
    assert orbit.monotone_violation_sub == viol_sub
    assert orbit.start_agreement == float(np.max(np.abs(upper - lower)))
    step, stride = serial_step(problem), problem.steps_per_period // 4
    u = upper
    for k in range(problem.steps_per_period):
        if k % stride == 0:
            state = orbit.states[k // stride]
            assert state.time == k * problem.dt
            assert np.max(np.abs(state.values - u)) <= 1e-12 * np.max(np.abs(u))
        u = step(k * problem.dt, u)
    assert abs(orbit.residual - float(np.max(np.abs(u - upper)))) <= 1e-12


@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_flat_unit_orbit_stays_exactly_one(kind):
    # u = 1 solves the autonomous logistic law on a reflecting box: every
    # warm start is kept, so both rows of a paired step stay 1 bitwise.
    problem = neumann_problem("logistic(const(1))", dt=1.0 / 32, kind=kind)
    ones = np.ones((2, problem.operator.grid.num_nodes))
    step = linear_step(problem.operator, problem.dt)
    assert np.array_equal(advance_periods(problem, ones[0], 3), ones[0])
    assert np.array_equal(problem.one_period(ones, step)[0], ones)
    rows, iterations, worst = _bracket(problem, step, ones, 1e-8, 5)
    assert np.array_equal(rows, ones)
    assert iterations == [1, 1] and worst == [0.0, 0.0]


def test_snapshot_count_must_divide_the_period_steps():
    problem = neumann_problem("logistic(const(1))", dt=0.05)  # 20 steps per period
    with pytest.raises(ValidationError, match="must divide"):
        positive_periodic_solution(problem, snapshots_per_period=7)


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(snapshots_per_period=0), "snapshot count must be at least 1, got 0"),
        (dict(snapshots_per_period=-4), "snapshot count must be at least 1, got -4"),
        (dict(snapshots_per_period=7), "snapshot count 7 must divide the 20 steps"),
        (dict(tol=0.0), "tol must be positive, got 0.0"),
        (dict(tol=-1e-8), "tol must be positive, got -1e-08"),
        (dict(max_periods=0), "max_periods must be at least 1, got 0"),
    ],
    ids=["count-0", "count-negative", "count-7", "tol-0", "tol-negative", "max_periods-0"],
)
def test_impossible_options_are_rejected_before_any_period(monkeypatch, options, message):
    def refuse(*args):
        raise AssertionError("a period step was built before the options were checked")

    monkeypatch.setattr(kpp, "linear_step", refuse)
    problem = neumann_problem("logistic(const(1))", dt=0.05)  # 20 steps per period
    with pytest.raises(ValidationError, match=re.escape(message)):
        positive_periodic_solution(problem, **options)


# --------------------------------------------------------------------- #
# radius sweeps against the local reference                              #
# --------------------------------------------------------------------- #


def test_shared_constant_orbit_keeps_the_sweep_at_tolerance_level():
    report = orbit_convergence_experiment(
        box(0.0, 1.0),
        "neumann",
        parse_growth("logistic(const(1))", 1.0),
        QUARTIC_1D,
        [0.4, 0.2],
        1.0 / 64,
        1.0 / 32,
    )
    assert all(gap <= 1e-7 for gap in report.column("sup_gap"))
    assert all(ok for ok in report.column("h2_delta_ok"))
    assert all(abs(rate - 1.0) <= 1e-6 for rate in report.column("h2_delta_lambda"))
    assert report.meta["max_monotone_violation"] <= 1e-10
    assert report.meta["max_start_agreement"] <= 1e-7
    assert report.meta["min_interior_value"] > 0.0


def test_pinned_end_orbit_gap_shrinks_with_the_radius():
    report = orbit_convergence_experiment(
        box(0.0, 2.0 * math.pi),
        "dirichlet",
        parse_growth("logistic(const(1))", 1.0),
        QUARTIC_1D,
        [0.4, 0.2],
        2.0 * math.pi / 256,
        1.0 / 64,
    )
    gaps = report.column("sup_gap")
    assert gaps[0] > gaps[1] > 0.0
    assert all(ok for ok in report.column("h2_delta_ok"))
    assert report.meta["max_monotone_violation"] <= 1e-10
    assert report.meta["min_interior_value"] > 0.0


def test_oscillating_periodic_orbit_gap_shrinks_with_the_radius():
    report = orbit_convergence_experiment(
        periodic_cell(2.0 * math.pi),
        "periodic",
        parse_growth("logistic(tx-product(1,0.5,1))", 1.0),
        QUARTIC_1D,
        [0.4, 0.2],
        2.0 * math.pi / 256,
        1.0 / 64,
    )
    gaps = report.column("sup_gap")
    assert gaps[0] > gaps[1] > 0.0
    assert all(ok for ok in report.column("h2_delta_ok"))
    assert report.meta["max_start_agreement"] <= 1e-7


def test_orbit_sweep_refuses_a_non_invadable_reference():
    with pytest.raises(NumericsError, match="not positive"):
        orbit_convergence_experiment(
            box(0.0, 1.0),
            "neumann",
            parse_growth("logistic(const(-1))", 1.0),
            QUARTIC_1D,
            [0.4, 0.2],
            1.0 / 64,
            1.0 / 32,
        )


def test_orbit_sweep_validates_radius_lists():
    growth = parse_growth("logistic(const(1))", 1.0)
    with pytest.raises(ValidationError, match="strictly decreasing"):
        orbit_convergence_experiment(
            box(0.0, 1.0), "neumann", growth, QUARTIC_1D, [0.2, 0.4], 1.0 / 64, 1.0 / 32
        )
    with pytest.raises(ValidationError, match="min\\(deltas\\)/8"):
        orbit_convergence_experiment(
            box(0.0, 1.0), "neumann", growth, QUARTIC_1D, [0.4, 0.2], 1.0 / 16, 1.0 / 32
        )
