"""Time stepping: equilibria, scalar oracles, comparison, and radius sweeps."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersal import (
    QUARTIC,
    BlowUpError,
    DispersalOperator,
    Field,
    KPPProblem,
    PeriodMap,
    ReactionTerm,
    SemilinearProblem,
    ValidationError,
    assemble_local,
    assemble_nonlocal,
    box,
    build_grid,
    constant_coefficient,
    field_from_function,
    kernel_profile,
    logistic_reaction,
    parse_coefficient,
    parse_growth,
    parse_reaction,
    periodic_cell,
    principal_value,
    solution_convergence_experiment,
    solve,
    spectrum_convergence_experiment,
    sweep_operators,
)
from dispersal import evolution
from dispersal.evolution import implicit_solver
from oracles import (
    advance_periods,
    check_comparison,
    constant_field,
    difference_action,
    logistic_flow,
)

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
    problem = SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.5)
    run = solve(problem, 0.05, 2)
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
    run = solve(SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.2), 0.05, 1)
    assert np.all(run.states[-1].values == u0.values[0])


def test_uniform_growth_matches_the_exponential_oracle():
    # Spatially uniform data stays uniform, so the run must track u' = 0.7 u.
    op = neumann_operator()
    reaction = parse_reaction("linear(const(0.7))", 1.0)
    problem = SemilinearProblem(op, reaction, constant_field(op.grid, 1.0), 1.0)
    run = solve(problem, 1e-3, 1)
    final = run.states[-1].values
    assert np.max(np.abs(final - math.exp(0.7))) <= 1e-6
    assert np.ptp(final) <= 1e-12  # uniformity is preserved, not just the mean


def test_dirichlet_heat_run_matches_the_separated_oracle():
    # Pinned-end diffusion of sin x on (0, pi) decays like e^{-t} sin x.
    h = math.pi / 512
    grid = build_grid(box(0.0, math.pi), h)
    op = assemble_local(grid, "dirichlet")
    u0 = field_from_function(grid, np.sin)
    problem = SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 1.0)
    run = solve(problem, 1e-4, 1)
    x = grid.coordinates[0]
    exact = math.exp(-1.0) * np.sin(x)
    assert np.max(np.abs(run.states[-1].values - exact)) <= 2e-4


def test_snapshots_record_requested_times_and_start_state():
    op = neumann_operator(h=1.0 / 16)
    u0 = field_from_function(op.grid, lambda x: np.cos(math.pi * x))
    run = solve(SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 1.0), 0.25, 2)
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
    grid = build_grid(domain, h)
    if kind == "local":
        return assemble_local(grid, closure)
    return assemble_nonlocal(grid, kernel_profile(QUARTIC, dim), delta, closure)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
@pytest.mark.parametrize("closure", ["dirichlet", "neumann", "periodic"])
def test_implicit_solve_meets_the_residual_and_keeps_solved_warm_starts(closure, kind, dim):
    op = solver_operator(closure, kind, dim)
    scale = 0.01
    solve_system = implicit_solver(op, scale)
    b = np.random.default_rng(7).uniform(-1.0, 1.0, op.grid.num_nodes)
    x = solve_system(b, np.zeros_like(b))
    # residual against the offset-difference action, not the CSR matrix
    residual = np.linalg.norm(b - x + scale * difference_action(op, x))
    assert residual <= 1e-10 * np.linalg.norm(b)
    again = solve_system(b, x)
    assert np.array_equal(again, x) and again is not x
    assert np.all(solve_system(np.zeros_like(b), x) == 0.0)


def periodic_jump_operator(dim, nodes):
    h = 2.0 * math.pi / nodes
    grid = build_grid(periodic_cell([2.0 * math.pi] * dim), h)
    return assemble_nonlocal(grid, kernel_profile(QUARTIC, dim), 4.0 * h, "periodic")


# name: (closure, kind, h, delta, nodes); the FFT runs on the nodes, prime or not
BOX_STEP_CASES = {
    "prime node count, reflecting": ("neumann", "nonlocal", 1.0 / 257, 0.2, 257),
    "composite node count, reflecting": ("neumann", "nonlocal", 1.0 / 240, 4.0 / 240, 240),
    "delta/h = 4, hostile": ("dirichlet", "nonlocal", 1.0 / 65, 4.0 / 65, 65),
    "prime node count, hostile": ("dirichlet", "nonlocal", 1.0 / 257, 0.1, 257),
    "reflecting local closure": ("neumann", "local", 1.0 / 101, None, 101),
    "hostile local closure": ("dirichlet", "local", 1.0 / 256, None, 256),
    "face bands overlap, reflecting": ("neumann", "nonlocal", 1.0 / 11, 0.65, 11),
    "face bands overlap, hostile": ("dirichlet", "nonlocal", 1.0 / 11, 0.65, 11),
    "wide kernel, reflecting": ("neumann", "nonlocal", 1.0 / 1025, 0.2, 1025),
    "wide kernel, hostile": ("dirichlet", "nonlocal", 1.0 / 1025, 0.2, 1025),
}


def box_step_operator(closure, kind, h, delta):
    grid = build_grid(box(0.0, 1.0), h)
    if kind == "local":
        return assemble_local(grid, closure)
    return assemble_nonlocal(grid, QUARTIC_1D, delta, closure)


@pytest.mark.parametrize("scale", [1e-3, 0.1])
@pytest.mark.parametrize("case", list(BOX_STEP_CASES))
def test_one_dimensional_box_solves_are_exact_and_keep_solved_warm_starts(case, scale):
    # The FFT of the wrapped stencil is exact only with the capacitance
    # correction on every face row.
    closure, kind, h, delta, nodes = BOX_STEP_CASES[case]
    op = box_step_operator(closure, kind, h, delta)
    step = evolution.linear_step(op, scale)
    reach = max(abs(o) for (o,), _ in op.offsets)
    assert op.grid.num_nodes == nodes
    assert (2 * reach >= nodes) == ("overlap" in case)
    b = np.random.default_rng(13).uniform(-1.0, 1.0, op.grid.num_nodes)
    x = step.solve(b, np.zeros_like(b))
    residual = b - x + scale * (op.matrix() @ x)
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)
    again = step.solve(b, x)
    assert np.array_equal(again, x) and again is not x
    assert np.all(step.solve(np.zeros_like(b), x) == 0.0)


@pytest.mark.parametrize("scale", [10.0, 100.0, 1e4, 1e5])
@pytest.mark.parametrize("case", [c for c, (bc, *_) in BOX_STEP_CASES.items() if bc == "dirichlet"])
def test_stiff_hostile_box_solves_stay_exact(case, scale):
    # Under a hostile exterior the correction cancels the circulant's
    # constant mode; without a refinement step the local closure's residual
    # reached 4e-10 |b| at scale 10 (scale * sum(w) = 1.3e6).  An explicit
    # inverse of the capacitance matrix, applied afterwards, reached 2.5e-6
    # |b| at scale 1e5 (scale * sum(w) = 1.3e11).
    op = box_step_operator(*BOX_STEP_CASES[case][:4])
    b = np.random.default_rng(13).uniform(-1.0, 1.0, op.grid.num_nodes)
    x = implicit_solver(op, scale)(b, np.zeros_like(b))
    residual = b - x + scale * (op.matrix() @ x)
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("scale", [1e-3, 0.1, 10.0])
@pytest.mark.parametrize("case", list(BOX_STEP_CASES))
def test_one_dimensional_box_step_acts_as_the_matrix(case, scale):
    # The step applies its own band action (np.convolve and the diagonal),
    # placed apart from the operator's entry walk that
    # builds the matrix; a trapezoidal step must satisfy the matrix's own
    # relation (I - sA) y = (I + sA) x.
    op = box_step_operator(*BOX_STEP_CASES[case][:4])
    step = evolution.linear_step(op, scale)
    rows = np.random.default_rng(17).uniform(-1.0, 1.0, (2, op.grid.num_nodes))
    A = op.matrix()
    for x, y in zip(rows, step.crank_nicolson(rows)):
        target = x + scale * (A @ x)
        gap = y - scale * (A @ y) - target
        assert np.linalg.norm(gap) <= 1e-12 * np.linalg.norm(target)


def test_a_batched_box_step_solves_each_row_as_its_operator_alone():
    # At this step size only the local reference needs the refinement
    # step, which the probe decides per operator, in a batch as alone.
    _, local_op, nonlocal_ops = sweep_operators(
        box(0.0, 1.0), "dirichlet", QUARTIC_1D, [0.5, 0.25], 1.0 / 64
    )
    ops = [local_op, *nonlocal_ops]
    step = evolution.linear_step(ops, 100.0)
    assert step._refine.tolist() == [True, False, False]
    rows = np.random.default_rng(5).uniform(-1.0, 1.0, (3, local_op.grid.num_nodes))
    for op, row, got in zip(ops, rows, step.crank_nicolson(rows)):
        alone = evolution.linear_step(op, 100.0)
        assert np.array_equal(got, alone.crank_nicolson(row[None])[0])


# On the reflecting closure a refinement step seldom helps, and the residual
# grows with the stiffness: about 4e-12 |b| at scale * sum(w) = 1.3e6 (local,
# h = 1/256), 1.5e-10 at 1.3e7.  These cases stay inside the 1e-10 tolerance.
STIFF_NEUMANN_CASES = {
    "local, h = 1/256": ("local", 1.0 / 256, None, 10.0),
    "nonlocal, delta = 0.05, h = 1/256": ("nonlocal", 1.0 / 256, 0.05, 100.0),
    "nonlocal, delta = 0.02, h = 1/1024": ("nonlocal", 1.0 / 1024, 0.02, 100.0),
}


@pytest.mark.parametrize("case", list(STIFF_NEUMANN_CASES))
def test_stiff_reflecting_box_solves_meet_the_tolerance(case):
    kind, h, delta, scale = STIFF_NEUMANN_CASES[case]
    op = box_step_operator("neumann", kind, h, delta)
    solve_system = implicit_solver(op, scale)
    A = op.matrix()
    for seed in (1, 2, 3):
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, op.grid.num_nodes)
        x = solve_system(b, np.zeros_like(b))
        residual = b - x + scale * (A @ x)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b)


SETTLED_ROW_CASES = {
    "1D box": (neumann_operator, lambda x: np.cos(math.pi * x)),
    "1D cell": (lambda: periodic_jump_operator(1, 64), np.cos),
    "2D cell": (lambda: periodic_jump_operator(2, 16), np.cos),
}


@pytest.mark.parametrize("case", list(SETTLED_ROW_CASES))
def test_a_step_keeps_a_settled_row_beside_a_moving_one(case):
    # Rows are stepped together.  On a box a row that passes the warm-start
    # test must come back bitwise even when its neighbour needs the solve;
    # on a cell a flat row's spectrum is its mean alone, which the exact
    # flow keeps (the transforms of a constant are exact at these sizes).
    build, profile = SETTLED_ROW_CASES[case]
    op = build()
    step = evolution.linear_step(op, 0.01)
    wave = profile(op.grid.coordinates[0])
    rows = np.stack([np.full(op.grid.num_nodes, 3.0), wave])
    out = step.crank_nicolson(rows)
    assert np.all(out[0] == 3.0)
    alone = step.crank_nicolson(wave.reshape(1, -1))[0]
    assert np.max(np.abs(out[1] - alone)) <= 1e-14


def test_one_dimensional_box_runs_never_assemble_a_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("a one-dimensional box assembled its CSR matrix")

    monkeypatch.setattr(DispersalOperator, "matrix", refuse)
    operators = [
        box_step_operator(closure, kind, 1.0 / 32, 0.25)
        for closure in ("dirichlet", "neumann")
        for kind in ("nonlocal", "local")
    ]
    growth = "logistic(const(1))"
    # At dt = 0.05 the hostile jump operator's period map is dominated by a
    # mode that changes sign (Crank-Nicolson factors near -1); at 0.005 the
    # principal mode dominates for all four operators.
    dt = 0.005
    for op in operators:
        u0 = field_from_function(op.grid, lambda x: np.sin(math.pi * x) ** 2)
        problem = SemilinearProblem(op, parse_reaction(growth, 1.0), u0, 0.2)
        assert np.all(np.isfinite(solve(problem, dt, 1).states[-1].values))
        # the existence flag of the nonlocal kind reads the operator's diagonal
        rate = principal_value(PeriodMap(op, constant_coefficient(0.5), dt), tol=1e-6)
        assert (rate.is_principal_eigenvalue is None) == (op.kind == "local")
        orbit_step = advance_periods(KPPProblem(op, parse_growth(growth, 1.0), dt), u0.values, 1)
        assert np.all(np.isfinite(orbit_step))


def test_the_scipy_solvers_stay_module_attributes(monkeypatch):
    for name in ("cg", "bicgstab", "spsolve"):
        assert name in vars(evolution)  # a plain attribute: reading it imports nothing
        calls = []
        monkeypatch.setattr(scipy.sparse.linalg, name, lambda *a, **k: calls.append((a, k)) or name)
        assert getattr(evolution, name)("M", "b", rtol=0.5) == name
        assert calls == [(("M", "b"), {"rtol": 0.5})]


@pytest.mark.parametrize(("closure", "kind"), [("dirichlet", "nonlocal"), ("neumann", "local")])
def test_the_krylov_path_calls_the_solver_the_module_holds(monkeypatch, closure, kind):
    # Tracing rebinds evolution.cg to a counting wrapper; the 2D box solver
    # must look the name up at each call, even when it was built before the
    # rebinding.  Every box matrix is symmetric, so CG solves them all.
    op = solver_operator(closure, kind, 2)
    solve_system = implicit_solver(op, 0.01)
    original = evolution.cg
    calls = []

    def counting(*args, **kwargs):
        calls.append("cg")
        return original(*args, **kwargs)

    monkeypatch.setattr(evolution, "cg", counting)
    monkeypatch.setattr(evolution, "bicgstab", None)
    b = np.random.default_rng(3).uniform(-1.0, 1.0, op.grid.num_nodes)
    x = solve_system(b, np.zeros_like(b))
    assert calls == ["cg"]
    assert np.linalg.norm(b - x + 0.01 * difference_action(op, x)) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize(("closure", "kind"), [("dirichlet", "nonlocal"), ("neumann", "local")])
def test_a_stalled_krylov_solve_is_rescued_by_a_direct_solve(monkeypatch, closure, kind):
    op = solver_operator(closure, kind, 2)
    solve_system = implicit_solver(op, 0.01)
    direct, rescues = evolution.spsolve, []

    def counting(M, b):
        rescues.append(b)
        return direct(M, b)

    monkeypatch.setattr(evolution, "cg", lambda M, b, x0, **_: (x0, 1))
    monkeypatch.setattr(evolution, "spsolve", counting)
    b = np.random.default_rng(3).uniform(-1.0, 1.0, op.grid.num_nodes)
    x = solve_system(b, np.zeros_like(b))
    assert len(rescues) == 1
    assert np.linalg.norm(b - x + 0.01 * difference_action(op, x)) <= 1e-10 * np.linalg.norm(b)


def test_periodic_runs_never_assemble_a_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("a periodic closure assembled its CSR matrix")

    monkeypatch.setattr(DispersalOperator, "matrix", refuse)
    line = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 64)
    operators = [
        assemble_nonlocal(line, QUARTIC_1D, 0.4, "periodic"),
        assemble_local(line, "periodic"),
        periodic_jump_operator(2, 16),
    ]
    growth = "logistic(const(1))"
    for op in operators:
        u0 = field_from_function(op.grid, lambda x, *rest: 1.0 + 0.5 * np.sin(x))
        problem = SemilinearProblem(op, parse_reaction(growth, 1.0), u0, 0.2)
        assert np.all(np.isfinite(solve(problem, 0.05, 1).states[-1].values))
        # the existence flag of the nonlocal kind reads the operator's diagonal
        rate = principal_value(PeriodMap(op, constant_coefficient(0.5), 0.05))
        assert abs(rate.value - 0.5) <= 1e-8
        assert rate.is_principal_eigenvalue is (True if op.kind == "nonlocal" else None)
        orbit_step = advance_periods(KPPProblem(op, parse_growth(growth, 1.0), 0.05), u0.values, 1)
        assert np.all(np.isfinite(orbit_step))


def count_transforms(monkeypatch) -> list[str]:
    """Record every call to a ``numpy.fft`` function made from now on."""
    calls = []
    for name in np.fft.__all__:
        original = getattr(np.fft, name)
        if callable(original):

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_periodic_steps_transform_each_field_once_each_way(monkeypatch, dim):
    # A periodic step is the exact dispersal flow: one forward and one
    # inverse transform of all rows together, and no solve.
    op = periodic_jump_operator(dim, 16)
    wave = field_from_function(op.grid, lambda x, *rest: 1.0 + 0.5 * np.sin(x))
    kpp = KPPProblem(op, parse_growth("logistic(tx-product(1,0.5,1))", 1.0), 0.25)
    step = evolution.linear_step(op, kpp.dt)  # the brackets' step
    rows = np.stack([np.full(op.grid.num_nodes, 2.0), wave.values])
    kpp.one_period(rows, step)  # prepares the flows of the period
    period_map = PeriodMap(op, parse_coefficient("tx-product(1,0.5,1)", 1.0), 0.25)
    period_map.advance(wave.values)  # prepares the map
    problem = SemilinearProblem(op, parse_reaction("logistic(const(1))", 1.0), wave, 0.2)
    calls = count_transforms(monkeypatch)

    solve(problem, 0.05, 1)  # four steps
    assert len(calls) == 2 * 4
    calls.clear()
    step.backward_euler(rows)  # both brackets, batched
    assert len(calls) == 2
    calls.clear()
    kpp.one_period(rows, step)  # four steps
    assert len(calls) == 2 * kpp.steps
    calls.clear()
    period_map.advance(wave.values)  # four steps
    assert len(calls) == 2 * period_map.steps


def test_a_periodic_step_stays_positive_and_ordered_at_any_step_size():
    # At delta = 0.05 one Crank-Nicolson step with dt * rate / 2 = 21.8 sent
    # a unit spike to -0.79 at the spike; the exact flow is positive for
    # every dt, up to the rounding of its transforms.
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 512)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.05, "periodic")
    dt = 0.01
    assert dt * op.total_weight() / 2.0 > 10.0
    spike = np.zeros(grid.num_nodes)
    spike[100] = 1.0
    above = spike + 0.5 * (1.0 + np.sin(grid.coordinates[0]))
    reaction = parse_reaction("logistic(const(1))", 1.0)
    lower, upper = (
        solve(SemilinearProblem(op, reaction, Field(grid, v), 0.1), dt, 10) for v in (spike, above)
    )
    top = max(float(np.max(state.values)) for state in lower.states)
    assert all(np.min(state.values) >= -1e-14 * top for state in lower.states)
    assert check_comparison(lower, upper, 1e-14 * top) is True


def test_the_kpp_map_is_second_order_in_dt_on_a_periodic_cell():
    # Strang splitting of exact flows: halving dt quarters the error of one
    # period of the seasonal logistic law (ratios 4.0; backward Euler with
    # a Heun reaction gave 2.1 to 2.2).
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 64)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.4, "periodic")
    growth = parse_growth("logistic(tx-product(1,0.5,1))", 1.0)
    u0 = 1.0 + 0.5 * np.sin(grid.coordinates[0])
    reference = advance_periods(KPPProblem(op, growth, 1.0 / 1024), u0, 1)
    errors = [
        np.max(np.abs(advance_periods(KPPProblem(op, growth, dt), u0, 1) - reference))
        for dt in (1 / 16, 1 / 32, 1 / 64)
    ]
    assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:]))


# --------------------------------------------------------------------- #
# validation and failure paths                                           #
# --------------------------------------------------------------------- #


def test_stepper_rejects_misaligned_snapshots_and_windows():
    op = neumann_operator(h=1.0 / 16)
    u0 = constant_field(op.grid, 1.0)
    zero = parse_reaction("zero", 0.0)
    problem = SemilinearProblem(op, zero, u0, 1.0)
    with pytest.raises(ValidationError, match="snapshot count must be at least 1, got 0"):
        solve(problem, 0.25, 0)
    # more snapshots than steps keep every step once
    assert solve(problem, 0.25, 8).times == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValidationError, match="dt must be positive"):
        solve(problem, -0.1, 1)
    with pytest.raises(ValidationError, match="into whole steps"):
        solve(problem, 0.3, 1)


def test_problem_construction_validates_grid_and_window():
    op = neumann_operator(h=1.0 / 16)
    zero = parse_reaction("zero", 0.0)
    other = build_grid(box(0.0, 1.0), 1.0 / 32)
    with pytest.raises(ValidationError, match="operator grid"):
        SemilinearProblem(op, zero, constant_field(other, 1.0), 1.0)
    with pytest.raises(ValidationError, match="t_final 0.0 must be positive"):
        SemilinearProblem(op, zero, constant_field(op.grid, 1.0), 0.0)


@pytest.mark.parametrize(("dim", "kind"), [(1, "nonlocal"), (1, "local"), (2, "local")])
def test_a_source_term_reaches_every_cell_of_a_hostile_box(dim, kind):
    # A reaction that is nonzero at u = 0 feeds every right-hand side; no
    # node of a box lies on a face, so none is held at zero.
    grid = build_grid(box([0.0] * dim, [1.0] * dim), 1.0 / 16)
    if kind == "local":
        op = assemble_local(grid, "dirichlet")
    else:
        op = assemble_nonlocal(grid, QUARTIC_1D, 0.25, "dirichlet")
    source = ReactionTerm(lambda t0, t1, coords: lambda u: u + (t1 - t0), "source")
    problem = SemilinearProblem(op, source, constant_field(grid, 0.0), 0.5)
    run = solve(problem, 0.1, 1)
    assert np.all(run.states[-1].values > 0.0)


@pytest.mark.parametrize(
    "text", ["const(1)", "const(0)", "space-cosine(0.5,1,1)", "time-sine(1,0.5)", "tx-product(1,0.5,1)"]
)
def test_the_logistic_flow_solves_u_times_a_minus_u(text):
    # Against an independent Runge-Kutta integration of the law itself, so
    # a change of it as small as a factor 1 + 1e-6 fails here and not only
    # in the committed samples.  space-cosine(0.5,1,1) vanishes near two
    # nodes, where its closed form must not divide by zero.
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 12)
    a = parse_coefficient(text, 1.0)
    u = np.random.default_rng(3).uniform(0.0, 2.0, (2, grid.num_nodes))
    for t0, span in ((0.0, 1 / 32), (0.3, 1 / 32), (0.75, 1 / 128)):
        t1 = t0 + span
        expected = logistic_flow(a, t0, t1, grid.coordinates, u)
        got = logistic_reaction(a).flow(t0, t1, grid.coordinates)(u)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_the_logistic_flow_refuses_to_pass_its_pole():
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 8)
    flow = logistic_reaction(constant_coefficient(1.0)).flow
    # u = -1 leaves every bound at t = ln 2: just before, it is large and negative
    assert np.all(flow(0.0, 0.69, grid.coordinates)(np.full((1, 8), -1.0)) < -300.0)
    with pytest.raises(BlowUpError, match="pole"):
        flow(0.0, 0.7, grid.coordinates)(np.full((1, 8), -1.0))


def test_unknown_reaction_text_is_rejected():
    with pytest.raises(ValidationError, match="unknown reaction"):
        parse_reaction("cubic(const(1))", 0.0)


def test_runaway_growth_raises_the_blow_up_signal():
    op = neumann_operator(h=1.0 / 16)
    reaction = parse_reaction("linear(const(40))", 1.0)
    problem = SemilinearProblem(op, reaction, constant_field(op.grid, 1.0), 50.0)
    with pytest.raises(BlowUpError, match="exceeded"):
        solve(problem, 0.25, 1)


# --------------------------------------------------------------------- #
# trajectory comparison                                                  #
# --------------------------------------------------------------------- #


def test_identical_trajectories_compare_true_at_zero_tolerance():
    op = neumann_operator(h=1.0 / 32)
    u0 = field_from_function(op.grid, lambda x: 1.0 + 0.5 * np.cos(math.pi * x))
    run = solve(SemilinearProblem(op, parse_reaction("zero", 0.0), u0, 0.5), 0.05, 2)
    assert check_comparison(run, run, 0.0) is True


def test_saturating_runs_preserve_the_initial_ordering():
    # Logistic saturation pulls 0.1 up and 10 down toward 1; they never cross.
    op = neumann_operator(h=1.0 / 32)
    reaction = parse_reaction("logistic(const(1))", 1.0)
    snaps = 4
    lower = solve(
        SemilinearProblem(op, reaction, constant_field(op.grid, 0.1), 1.0), 1.0 / 64, snaps
    )
    upper = solve(
        SemilinearProblem(op, reaction, constant_field(op.grid, 10.0), 1.0), 1.0 / 64, snaps
    )
    assert check_comparison(lower, upper, 1e-10) is True
    assert check_comparison(upper, lower, 1e-10) is False


def test_comparison_rejects_mismatched_trajectories():
    op = neumann_operator(h=1.0 / 16)
    u0 = constant_field(op.grid, 1.0)
    zero = parse_reaction("zero", 0.0)
    base = solve(SemilinearProblem(op, zero, u0, 1.0), 0.25, 1)
    longer = solve(SemilinearProblem(op, zero, u0, 1.0), 0.25, 2)
    with pytest.raises(ValidationError, match="snapshot counts"):
        check_comparison(base, longer, 0.0)
    other_op = neumann_operator(h=1.0 / 32)
    other = solve(
        SemilinearProblem(other_op, zero, constant_field(other_op.grid, 1.0), 1.0), 0.25, 1
    )
    with pytest.raises(ValidationError, match="different grids"):
        check_comparison(base, other, 0.0)
    shifted = solve(SemilinearProblem(op, zero, u0, 1.5), 0.25, 1)
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
                SemilinearProblem(op, reaction, Field(op.grid, v, 0.0), 1.0),
                1.0 / 64,
                2,
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
    run = solve(SemilinearProblem(op, reaction, u0, 2.0), 1.0 / 64, 4)
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


def _interior_solution_gap(h, delta=0.05):
    """converge-a on (0, 1), reflecting, cos(pi x): the sweep's sup gap over
    the nodes at least ``2 delta`` from each face, over eight snapshots."""
    _, local_op, (jump,) = sweep_operators(box(0.0, 1.0), "neumann", QUARTIC_1D, [delta], h)
    u0 = field_from_function(local_op.grid, lambda x: np.cos(math.pi * x))
    reference, run = (
        solve(SemilinearProblem(op, parse_reaction("zero", 1.0), u0, 0.25), 1.0 / 256, 8)
        for op in (local_op, jump)
    )
    x = local_op.grid.coordinates[0]
    far = (x >= 2.0 * delta) & (x <= 1.0 - 2.0 * delta)
    return max(np.max(np.abs(a.values - b.values)[far]) for a, b in zip(run.states, reference.states))


def _rate_gap(h):
    """converge-b on (0, pi), hostile, a = 0, delta = 0.1: the sweep's ``abs_gap``."""
    report = spectrum_convergence_experiment(
        box(0.0, math.pi), "dirichlet", constant_coefficient(0.0), QUARTIC_1D, [0.1], h, 0.01
    )
    return report.column("abs_gap")[0]


@pytest.mark.parametrize(
    "gap, h, bound",
    [(_interior_solution_gap, 1.0 / 256, 0.03), (_rate_gap, math.pi / 256, 0.02)],
    ids=["converge-a neumann", "converge-b dirichlet"],
)
def test_box_sweep_gaps_settle_as_h_halves(gap, h, bound):
    # A sweep's gap at a fixed radius should be a property of the radius,
    # not of h.  With a node on each face both closures were first order
    # there: halving h moved these gaps by 46 % and 12 %; with the nodes at
    # the cell centres they move by 1.7 % and 1.0 %.
    coarse, fine = gap(h), gap(h / 2.0)
    assert abs(fine - coarse) <= bound * coarse


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


def test_sweep_rejects_a_snapshot_count_below_one():
    args = (box(0.0, 1.0), "neumann", QUARTIC_1D, parse_reaction("zero", 0.0), np.cos, 0.25)
    with pytest.raises(ValidationError, match="snapshot count must be at least 1"):
        solution_convergence_experiment(*args, [0.4, 0.2], 1.0 / 64, 0.05, snapshots=0)
