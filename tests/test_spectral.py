"""Period maps and principal growth rates: oracles, invariants, sweeps."""

import math

import numpy as np
import pytest

from dispersal import (
    QUARTIC,
    Field,
    NoConvergenceError,
    PeriodMap,
    ValidationError,
    assemble_local,
    assemble_nonlocal,
    box,
    build_grid,
    constant_coefficient,
    kernel_profile,
    parse_coefficient,
    periodic_cell,
    principal_eigenvalue_criterion,
    principal_value,
    space_cosine,
    spectrum_convergence_experiment,
)
from oracles import (
    apply_period_map,
    constant_field,
    dispersal_rate,
    perturbation_check,
    shift_coefficient,
)

QUARTIC_1D = kernel_profile(QUARTIC, 1)


def neumann_map(coefficient, h=1.0 / 32, delta=0.3, dt=0.05, kind="nonlocal"):
    grid = build_grid(box(0.0, 1.0), h)
    op = (
        assemble_nonlocal(grid, QUARTIC_1D, delta, "neumann")
        if kind == "nonlocal"
        else assemble_local(grid, "neumann")
    )
    return PeriodMap(op, coefficient, dt)


# --------------------------------------------------------------------- #
# the period map itself                                                  #
# --------------------------------------------------------------------- #


def test_zero_coefficient_fixes_constants_exactly():
    pm = neumann_map(constant_coefficient(0.0, period=1.0))
    out = apply_period_map(pm, constant_field(pm.operator.grid, 1.0))
    assert np.all(out.values == 1.0)
    assert out.time == 1.0


def test_constant_coefficient_grows_constants_exponentially():
    pm = neumann_map(constant_coefficient(0.8, period=1.0))
    out = apply_period_map(pm, constant_field(pm.operator.grid, 1.0))
    assert np.max(np.abs(out.values - math.exp(0.8))) <= 1e-6


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_mean_zero_oscillation_returns_constants_unchanged(bc):
    # The closed-form reaction integral makes one full period integrate to
    # zero, so the map must send 1 back to 1 up to rounding.
    a = parse_coefficient("time-sine(0,1)", 1.0)
    if bc == "periodic":
        grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 64)
        op = assemble_nonlocal(grid, QUARTIC_1D, 0.5, "periodic")
        pm = PeriodMap(op, a, 0.05)
    else:
        pm = neumann_map(a)
    out = apply_period_map(pm, constant_field(pm.operator.grid, 1.0))
    assert np.max(np.abs(out.values - 1.0)) <= 1e-6


def test_map_action_is_linear_and_positive():
    a = parse_coefficient("tx-product(0.3,0.5,3)", 1.0)
    pm = neumann_map(a, h=1.0 / 64)
    grid = pm.operator.grid
    x = grid.coordinates[0]
    u = Field(grid, 1.0 + 0.5 * np.sin(5.0 * x))
    v = Field(grid, np.exp(-x))
    combo = Field(grid, 2.0 * u.values - 0.7 * v.values)
    direct = apply_period_map(pm, combo).values
    separate = 2.0 * apply_period_map(pm, u).values - 0.7 * apply_period_map(pm, v).values
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(direct - separate)) <= 1e-9 * scale
    assert np.min(apply_period_map(pm, u).values) >= -1e-12  # positive data stays positive


def test_map_validates_grid_step_and_period():
    a = constant_coefficient(0.0, period=1.0)
    pm = neumann_map(a)
    other = build_grid(box(0.0, 1.0), 1.0 / 16)
    with pytest.raises(ValidationError, match="grid mismatch"):
        apply_period_map(pm, constant_field(other, 1.0))
    op = pm.operator
    with pytest.raises(ValidationError, match="whole steps"):
        PeriodMap(op, a, 0.3)
    with pytest.raises(ValidationError, match="dt must be positive"):
        PeriodMap(op, a, -0.1)


# --------------------------------------------------------------------- #
# principal growth rate oracles                                          #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_space_free_oscillation_has_zero_growth_rate(kind):
    a = parse_coefficient("time-sine(0,1)", 1.0)
    result = principal_value(neumann_map(a, kind=kind))
    assert abs(result.value) <= 1e-8


def test_pinned_end_diffusion_rate_matches_the_sine_eigenpair():
    # Slowest decaying profile of pinned-end diffusion on (0, pi) is sin x
    # with rate -1; the grid correction at this h is ~3e-6.
    h = math.pi / 512
    grid = build_grid(box(0.0, math.pi), h)
    pm = PeriodMap(assemble_local(grid, "dirichlet"), constant_coefficient(0.0, period=1.0), 0.01)
    result = principal_value(pm)
    assert abs(result.value - (-1.0)) <= 2e-3
    peak = np.argmax(result.eigenfunction.values)
    assert abs(grid.coordinates[0][peak] - math.pi / 2.0) <= 0.02


def test_symmetric_splitting_keeps_the_rate_error_small_on_a_coefficient_varying_in_x():
    # The two half-step factors bracket the dispersal step symmetrically.
    # Swapped, the rate stays second order in dt here, but its error at
    # dt = 1/16 grows about a hundredfold (1.4e-5 against 1.9e-3), so the
    # bound is on the size of the error, not on its ratio.
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 32)
    op = assemble_local(grid, "periodic")
    a = parse_coefficient("tx-product(1,2,1)", 1.0)
    coarse, fine = (principal_value(PeriodMap(op, a, dt), tol=1e-12).value for dt in (1 / 16, 1 / 256))
    assert abs(coarse - fine) <= 1e-4


@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_constant_coefficient_rate_equals_the_constant(kind):
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 64)
    op = (
        assemble_nonlocal(grid, QUARTIC_1D, 0.5, "periodic")
        if kind == "nonlocal"
        else assemble_local(grid, "periodic")
    )
    result = principal_value(PeriodMap(op, constant_coefficient(0.35, period=1.0), 0.05))
    assert abs(result.value - 0.35) <= 1e-8


def test_result_carries_a_clean_eigenpair():
    a = parse_coefficient("space-cosine(0.5,0.3,2)", 1.0)
    result = principal_value(neumann_map(a, h=1.0 / 64), tol=1e-9)
    assert result.residual <= 1e-9
    assert abs(np.max(np.abs(result.eigenfunction.values)) - 1.0) <= 1e-12
    assert np.min(result.eigenfunction.values) >= -1e-12
    assert result.iterations >= 2


# --------------------------------------------------------------------- #
# stopping and validation paths                                          #
# --------------------------------------------------------------------- #


def test_power_iteration_reports_no_convergence_when_capped():
    a = parse_coefficient("space-cosine(0.5,0.3,2)", 1.0)
    with pytest.raises(NoConvergenceError, match="did not settle"):
        principal_value(neumann_map(a), max_iterations=1)


def test_principal_value_validates_inputs():
    pm = neumann_map(constant_coefficient(0.0, period=1.0))
    with pytest.raises(ValidationError, match="tol must be positive"):
        principal_value(pm, tol=0.0)
    with pytest.raises(ValidationError, match="max_iterations must be at least 1, got 0"):
        principal_value(pm, max_iterations=0)
    with pytest.raises(ValidationError, match="identically zero"):
        principal_value(pm, start=constant_field(pm.operator.grid, 0.0))
    other = build_grid(box(0.0, 1.0), 1.0 / 16)
    with pytest.raises(ValidationError, match="different grid"):
        principal_value(pm, start=constant_field(other, 1.0))


# --------------------------------------------------------------------- #
# eigenvalue-existence flag                                              #
# --------------------------------------------------------------------- #


def test_existence_flag_and_its_threshold_arithmetic():
    # At radius 0.1 the jump rate is C/0.01 = 1400, so the threshold sits
    # near -1400 while the computed rate is near -1: comfortably principal.
    h = math.pi / 128
    grid = build_grid(box(0.0, math.pi), h)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.1, "dirichlet")
    pm = PeriodMap(op, constant_coefficient(0.0, period=1.0), 0.02)
    result = principal_value(pm)
    assert -2.0 < result.value < -0.5
    assert result.is_principal_eigenvalue is True
    assert principal_eigenvalue_criterion(pm, result.value) is True
    assert principal_eigenvalue_criterion(pm, -1401.0) is False


@pytest.mark.parametrize("closure", ["periodic", "neumann"])
def test_existence_threshold_uses_the_assembled_jump_rate(closure):
    # At delta/h = 4.1 the stencil's total weight (the jump rate the matrix
    # carries) sits about 22 % below the continuum rate nu, and under the
    # reflecting closure it falls to about half at the faces, where cos(2 pi x)
    # peaks.  A rate between the continuum and the assembled threshold must
    # not count as a principal eigenvalue.
    h = 1.0 / 128
    domain = periodic_cell(1.0) if closure == "periodic" else box(0.0, 1.0)
    grid = build_grid(domain, h)
    op = assemble_nonlocal(grid, QUARTIC_1D, 4.1 * h, closure)
    a = space_cosine(0.0, 1.0, 2.0 * math.pi)
    pm = PeriodMap(op, a, 0.05)
    n = grid.num_nodes
    rates = np.array(
        [
            sum(w for (o,), w in op.offsets if closure == "periodic" or 0 <= i + o < n)
            for i in range(n)
        ]
    )
    averages = np.cos(2.0 * math.pi * grid.coordinates[0])
    assembled = float(np.max(-rates + averages))
    nu = dispersal_rate(QUARTIC_1D, 4.1 * h)
    continuum = float(np.max(-nu + averages))
    assert continuum < assembled - 0.2 * nu
    assert principal_eigenvalue_criterion(pm, 0.5 * (continuum + assembled)) is False
    assert principal_eigenvalue_criterion(pm, assembled - 1e-6) is False
    assert principal_eigenvalue_criterion(pm, assembled + 1e-6) is True


def test_existence_flag_rejects_the_local_kind():
    grid = build_grid(box(0.0, 1.0), 1.0 / 32)
    pm = PeriodMap(assemble_local(grid, "neumann"), constant_coefficient(0.0, period=1.0), 0.05)
    with pytest.raises(ValidationError, match="nonlocal kind only"):
        principal_eigenvalue_criterion(pm, 0.0)


# --------------------------------------------------------------------- #
# perturbation bound and shift structure                                 #
# --------------------------------------------------------------------- #


def test_constant_shifts_move_the_rate_by_exactly_the_shift():
    base = parse_coefficient("time-sine(0.2,0.6)", 1.0)
    pm = neumann_map(base)
    lam = principal_value(pm).value
    for c in (-1.0, 0.3, 2.0):
        shifted = neumann_map(shift_coefficient(base, c))
        assert abs(principal_value(shifted).value - lam - c) <= 1e-7


def test_rate_gap_is_bounded_by_the_coefficient_gap():
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 64)

    def pm(text):
        op = assemble_nonlocal(grid, QUARTIC_1D, 0.5, "periodic")
        return PeriodMap(op, parse_coefficient(text, 1.0), 0.05)

    assert perturbation_check(pm("time-sine(0,1)"), pm("tx-product(0,1,1)"), 1e-7) is True
    assert perturbation_check(pm("time-sine(0.3,0.5)"), pm("time-sine(0.3,0.5)"), 1e-9) is True
    base = parse_coefficient("time-sine(0.2,0.6)", 1.0)
    shifted_map = neumann_map(shift_coefficient(base, 0.4))
    assert perturbation_check(neumann_map(base), shifted_map, 1e-7) is True


def test_perturbation_check_rejects_mismatched_maps():
    a = constant_coefficient(0.1, period=1.0)
    nonlocal_map = neumann_map(a)
    local_map = PeriodMap(assemble_local(nonlocal_map.operator.grid, "neumann"), a, 0.05)
    with pytest.raises(ValidationError, match="operator kind"):
        perturbation_check(nonlocal_map, local_map, 1e-7)
    finer = neumann_map(a, h=1.0 / 64)
    with pytest.raises(ValidationError, match="grids differ"):
        perturbation_check(nonlocal_map, finer, 1e-7)
    slower = neumann_map(constant_coefficient(0.1, period=2.0), dt=0.05)
    with pytest.raises(ValidationError, match="periods differ"):
        perturbation_check(nonlocal_map, slower, 1e-7)


def test_ordered_coefficients_give_ordered_rates():
    rng = np.random.default_rng(20240812)
    families = ["const({0!r})", "time-sine({0!r},0.5)", "space-cosine({0!r},0.4,2)"]
    for trial in range(5):
        lo = float(rng.uniform(-0.5, 0.5))
        lift = float(rng.uniform(0.0, 1.0))
        template = families[trial % len(families)]
        a_low = parse_coefficient(template.format(lo), 1.0)
        a_high = shift_coefficient(a_low, lift)
        lam_low = principal_value(neumann_map(a_low)).value
        lam_high = principal_value(neumann_map(a_high)).value
        assert lam_low <= lam_high + 1e-8


def test_five_random_positive_starts_agree():
    a = parse_coefficient("space-cosine(0.5,0.3,2)", 1.0)
    pm = neumann_map(a, h=1.0 / 64)
    tol = 1e-9
    reference = principal_value(pm, tol=tol).value
    rng = np.random.default_rng(7)
    for _ in range(5):
        start = Field(pm.operator.grid, rng.uniform(0.1, 1.0, pm.operator.grid.num_nodes))
        assert abs(principal_value(pm, tol=tol, start=start).value - reference) <= 10.0 * tol


# --------------------------------------------------------------------- #
# radius sweeps against the local reference                              #
# --------------------------------------------------------------------- #


def test_space_free_sweep_closes_the_gap_to_roundoff():
    a = parse_coefficient("time-sine(0.4,0.7)", 0.5)
    report = spectrum_convergence_experiment(
        box(0.0, 1.0), "neumann", a, QUARTIC_1D, [0.4, 0.2], 1.0 / 64, 0.025
    )
    assert all(gap <= 1e-7 for gap in report.column("abs_gap"))
    assert all(flag for flag in report.column("pev_criterion"))


def test_pinned_end_sweep_rates_descend_toward_the_local_rate():
    report = spectrum_convergence_experiment(
        box(0.0, math.pi),
        "dirichlet",
        constant_coefficient(0.0, period=1.0),
        QUARTIC_1D,
        [0.4, 0.2, 0.1],
        math.pi / 256,
        0.01,
    )
    rates = report.column("lambda_delta")
    gaps = report.column("abs_gap")
    # hostile-exterior pinning is softer than hard pinning at every radius,
    # so the rates sit above -1 and march down toward it monotonically
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert all(r > report.rows[0][2] for r in rates)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert abs(report.rows[0][2] - (-1.0)) <= 5e-3  # shared local reference rate
    assert all(flag for flag in report.column("pev_criterion"))


def test_oscillating_periodic_sweep_gap_decreases():
    a = parse_coefficient("tx-product(1,0.5,1)", 1.0)
    report = spectrum_convergence_experiment(
        periodic_cell(2.0 * math.pi), "periodic", a, QUARTIC_1D, [0.4, 0.2], 2.0 * math.pi / 512, 0.02
    )
    gaps = report.column("abs_gap")
    assert gaps[0] > gaps[1] > 0.0
    assert all(flag for flag in report.column("pev_criterion"))


def test_spectrum_sweep_validates_radius_lists():
    a = constant_coefficient(0.1, period=1.0)
    with pytest.raises(ValidationError, match="strictly decreasing"):
        spectrum_convergence_experiment(
            box(0.0, 1.0), "neumann", a, QUARTIC_1D, [0.2, 0.4], 1.0 / 64, 0.025
        )
    with pytest.raises(ValidationError, match="min\\(deltas\\)/8"):
        spectrum_convergence_experiment(
            box(0.0, 1.0), "neumann", a, QUARTIC_1D, [0.4, 0.2], 1.0 / 16, 0.025
        )
