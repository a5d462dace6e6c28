"""Positive time-periodic states of logistic (KPP-type) growth equations.

The equation is ``u_t = (dispersal) u + u (a(t, x) - u)``, the law of
:func:`dispersal.evolution.logistic_reaction` with carrying level ``a``.
When its linearization at zero (the linear problem with coefficient ``a``)
has positive principal growth rate, the unique positive periodic state is
found by iterating the nonlinear period map from a constant super-solution
downward and from a small positive sub-solution upward; the two ordered
iterations bracket the state and their agreement is a built-in uniqueness
check.  The brackets advance together as rows of one array (both for one
operator, or both for each operator of a radius sweep), so each step makes
one batched call; a bracket that has converged is frozen while the others
go on, and iteration counts, order-breach records and errors are those of
running the brackets one after another.

Each time step treats dispersal by backward Euler and the reaction by a
Heun predictor-corrector.  The backward-Euler resolvent has entrywise
nonnegative inverse for every step size, so the ordered iterations stay
ordered numerically no matter how stiff the dispersal rate is.  Its
first-order bias does not cancel from a nonlocal state's gap to the local
one: at radius 0.1 on a periodic cell the gap is 1.979e-6 at ``dt = 1/64``
and 1.894e-6 as ``dt -> 0``, a 4.5 % bias.  The step is the backward Euler
step of :class:`dispersal.evolution.LinearStep`; on periodic closures it
costs four transforms for both rows together: each right-hand side is
formed in real space and transformed, each solution transformed back, and
the warm-start tests use the spectra the step carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import nan
from typing import Sequence

import numpy as np

from .coefficients import TimePeriodicCoefficient, parse_coefficient, split_call
from .errors import (
    CollapsedToZeroError,
    NoConvergenceError,
    NumericsError,
    ValidationError,
)
from .evolution import (
    LinearStep,
    ReactionTerm,
    _uniform_snapshot_steps,
    linear_step,
    logistic_reaction,
    whole_steps,
)
from .grids import Field, sup_distance
from .kernels import KernelProfile
from .operators import BoundaryCondition, DispersalOperator, sweep_operators
from .reports import ConvergenceReport, empirical_orders
from .spectral import PeriodMap, _power_iteration, default_start

#: Sup-norm floor below which a positive-orbit iteration is declared collapsed.
COLLAPSE_FLOOR = 1e-13


def parse_growth(text: str, period: float) -> TimePeriodicCoefficient:
    """Read ``logistic(<coefficient>)`` and return its carrying level ``a``."""
    name, inner = split_call(text)
    if name != "logistic":
        raise ValidationError(f"unknown growth {name!r}; catalog: logistic(a)")
    return parse_coefficient(inner, period)


@dataclass
class KPPProblem:
    """One logistic problem: operator, carrying level ``a`` (checked to saturate), step size."""

    operator: DispersalOperator
    growth: TimePeriodicCoefficient
    dt: float
    steps_per_period: int = dataclass_field(init=False)
    reaction: ReactionTerm = dataclass_field(init=False)
    saturation_bound: float = dataclass_field(init=False)

    def __post_init__(self):
        self.steps_per_period = whole_steps(self.growth.period, self.dt)
        self.reaction = logistic_reaction(self.growth)
        self.saturation_bound = validate_saturation(self)

    @property
    def period(self) -> float:
        return self.growth.period

    def _rate(self, t: float, u: np.ndarray) -> np.ndarray:
        return self.reaction.evaluate(t, self.operator.grid.coordinates, u)

    def one_period(self, rows: np.ndarray, step: LinearStep, marks: Sequence[int] = ()):
        """Advance ``rows``, shape ``(rows, num_nodes)``, by one period through ``step``.

        ``step`` is a backward-Euler step of size ``dt`` (``linear_step(ops,
        dt)``) over this problem's operator or other operators on its grid.
        Returns the advanced rows and a copy of them taken before each step
        index in ``marks``.  Each step's companion (the rows' spectrum on
        periodic closures) is carried to the next step.
        """
        taken, companion = [], None
        for k in range(self.steps_per_period):
            if k in marks:
                taken.append(rows.copy())
            t = k * self.dt
            rows, companion = step.imex_step(t, rows, self._rate, companion, trapezoid=False)
        return rows, taken


def validate_saturation(problem: KPPProblem) -> float:
    """Find the smallest doubling constant ``M`` above the carrying level.

    Returns the first of ``1, 2, 4, ...`` that exceeds ``a`` on a lattice of
    64 times at every node, so that ``a - M < 0`` there.
    """
    coordinates = problem.operator.grid.coordinates
    times = np.linspace(0.0, problem.period, 64, endpoint=False)
    top = np.max([np.max(problem.growth.evaluate(float(t), coordinates)) for t in times])
    level = 1.0
    for _ in range(40):
        if top < level:
            return level
        level *= 2.0
    raise ValidationError("growth does not saturate: a(t, x) reaches 2**39, the top level tried")


@dataclass
class PeriodicOrbit:
    """A time-sampled positive periodic state with its certification data.

    ``monotone_violation_*`` record the worst breach of the one-sided
    ordering along the two bracketing iterations; ``start_agreement`` is
    the final distance between the two limits.
    """

    times: tuple[float, ...]
    states: tuple[Field, ...]
    residual: float
    saturation_bound: float
    super_iterations: int
    sub_iterations: int
    monotone_violation_super: float
    monotone_violation_sub: float
    start_agreement: float
    interior_min: float


def verify_invasion_condition(problem: KPPProblem) -> tuple[bool, float]:
    """Growth rate of the linearization at zero (to ``1e-9``), and whether it is positive."""
    value = _invasion_checks(problem, [problem.operator])[0].value
    return bool(value > 0.0), value


def _invasion_checks(problem: KPPProblem, ops):
    """Power iteration of the linearization at zero with each of ``ops`` in its place."""
    linearization = PeriodMap(problem.operator, problem.growth, problem.dt)
    return _power_iteration(linearization, ops, 1e-9, 20000)


def _bracket(
    problem: KPPProblem, step: LinearStep, starts: np.ndarray, tol: float, max_periods: int
) -> tuple[np.ndarray, list[int], list[float]]:
    """Iterate super brackets (rows ``2p``) and sub brackets (rows ``2p + 1``) together.

    Rows ``2p`` and ``2p + 1`` use operator ``p`` of ``step``.  Each row is
    the serial iteration of its own bracket: a super row should not
    increase and a sub row should not decrease, and the worst breach of
    that order is recorded per row.  A row stops once a period moves it by
    less than ``tol`` (converged) or leaves it below
    :data:`COLLAPSE_FLOOR` (collapsed); only the rows still active are
    stepped.  Errors come out as if the brackets ran one after another: a
    failed row stops the rows after it, and is raised once the rows before
    it have converged.
    """
    active = list(range(len(starts)))
    picked = step.select([row // 2 for row in active])
    rows = starts.copy()
    done: list = [None] * len(rows)  # the period a row converged in, or its error
    worst = [0.0] * len(rows)
    for iteration in range(1, max_periods + 1):
        u = rows[active]
        image, _ = problem.one_period(u, picked)
        for before, after, row in zip(u, image, active):
            breach = np.max(after - before) if row % 2 == 0 else np.max(before - after)
            worst[row] = max(worst[row], float(breach))
            rows[row] = after
            if float(np.max(np.abs(after))) < COLLAPSE_FLOOR:
                done[row] = CollapsedToZeroError(
                    f"orbit iteration collapsed to zero after {iteration} periods "
                    "(the zero state is the only nonnegative periodic state here)"
                )
            elif float(np.max(np.abs(after - before))) < tol:
                done[row] = iteration
        failed = [row for row, outcome in enumerate(done) if isinstance(outcome, Exception)]
        cut = min(failed, default=len(done))
        going = [row for row in active if done[row] is None and row < cut]
        if going != active:
            active, picked = going, step.select([row // 2 for row in going])
        if not active:
            break
    if active:  # rows still active come before any failed row
        raise NoConvergenceError(
            f"period-map iteration did not reach tol={tol!r} within {max_periods} periods"
        )
    if failed:
        raise done[failed[0]]
    return rows, done, worst


def positive_periodic_solution(
    problem: KPPProblem,
    tol: float = 1e-8,
    max_periods: int = 2000,
    snapshots_per_period: int = 32,
) -> PeriodicOrbit:
    """Compute the positive periodic state by bracketing period-map iteration.

    Iterates downward from the saturating constant and upward from a small
    positive start, requires the two limits to agree within ``10 * tol``,
    then walks one more period from the downward limit to store
    ``snapshots_per_period`` evenly spaced states.
    """
    ops = [problem.operator]
    return _periodic_solutions(problem, ops, tol, max_periods, snapshots_per_period)[0]


def check_orbit_options(
    problem: KPPProblem, tol: float, max_periods: int, snapshots_per_period: int
) -> list[int]:
    """Refuse orbit options no bracketing can meet; return the snapshot steps of a period.

    Cheap, so callers run it before any invasion check or period map.
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_periods < 1:
        raise ValidationError(f"max_periods must be at least 1, got {max_periods}")
    steps = problem.steps_per_period
    marks = _uniform_snapshot_steps(steps, snapshots_per_period)[:-1]
    if steps % snapshots_per_period != 0:
        raise ValidationError(
            f"snapshot count {snapshots_per_period} must divide the {steps} steps per period"
        )
    return marks


def _periodic_solutions(
    problem: KPPProblem, ops, tol: float, max_periods: int, snapshots_per_period: int
) -> list[PeriodicOrbit]:
    """:func:`positive_periodic_solution` of ``problem`` with each of ``ops`` in its place.

    The operators share the problem's grid and closure.  Bracket failures
    of any operator are raised before disagreeing limits.
    """
    marks = check_orbit_options(problem, tol, max_periods, snapshots_per_period)
    level = problem.saturation_bound
    ceiling = np.full(problem.operator.grid.num_nodes, level)
    starts = np.stack([row for op in ops for row in (ceiling, 1e-3 * default_start(op).values)])
    step = linear_step(ops, problem.dt)
    rows, iterations, worst = _bracket(problem, step, starts, tol, max_periods)
    uppers = rows[0::2]
    agreements = [float(np.max(np.abs(upper - lower))) for upper, lower in zip(uppers, rows[1::2])]
    for agreement in agreements:
        if agreement > 10.0 * tol:
            raise NumericsError(
                f"ordered-start limits disagree by {agreement:.3e} (> 10 * tol = {10 * tol:.1e}); "
                "the periodic state is not uniquely resolved at this tolerance"
            )
    wrapped, taken = problem.one_period(uppers, step, marks)
    times = tuple(k * problem.dt for k in marks)
    return [
        PeriodicOrbit(
            times=times,
            states=tuple(Field(op.grid, snap[p], t) for t, snap in zip(times, taken)),
            residual=float(np.max(np.abs(wrapped[p] - uppers[p]))),
            saturation_bound=level,
            super_iterations=iterations[2 * p],
            sub_iterations=iterations[2 * p + 1],
            monotone_violation_super=worst[2 * p],
            monotone_violation_sub=worst[2 * p + 1],
            start_agreement=agreements[p],
            interior_min=min(float(np.min(snap[p])) for snap in taken),
        )
        for p, op in enumerate(ops)
    ]


def orbit_convergence_experiment(
    domain,
    bc: BoundaryCondition,
    growth: TimePeriodicCoefficient,
    profile: KernelProfile,
    deltas: Sequence[float],
    h: float,
    dt: float,
    tol: float = 1e-8,
    snapshots_per_period: int = 32,
) -> ConvergenceReport:
    """Sweep the kernel radius and compare periodic states against the local one.

    Rows report the sup distance over shared snapshot times, the growth
    rate of the linearization at zero for that radius, and whether that
    rate was positive; a nonpositive rate records a gapless row instead of
    aborting the sweep.
    """
    deltas, local_op, nonlocal_ops = sweep_operators(domain, bc, profile, deltas, h)
    ops = [local_op, *nonlocal_ops]
    problem = KPPProblem(local_op, growth, dt)
    check_orbit_options(problem, tol, 2000, snapshots_per_period)
    checks = _invasion_checks(problem, ops)
    local_rate = checks[0].value
    if local_rate <= 0.0:
        raise NumericsError(
            f"local linearized growth rate {local_rate!r} is not positive; "
            "no positive periodic reference state exists"
        )
    invadable = [op for op, check in zip(ops, checks) if check.value > 0.0]
    orbits = _periodic_solutions(problem, invadable, tol, 2000, snapshots_per_period)
    radius_gaps = iter([max(map(sup_distance, o.states, orbits[0].states)) for o in orbits[1:]])
    rows = [
        (op.delta, next(radius_gaps) if check.value > 0.0 else nan, check.value, check.value > 0.0)
        for op, check in zip(nonlocal_ops, checks[1:])
    ]
    gaps = [gap for _, gap, *_ in rows]
    meta = {
        "bc": local_op.bc.value,
        "h": h,
        "dt": dt,
        "growth": problem.reaction.description,
        "kernel": profile.family,
        "gap_orders": empirical_orders(deltas, gaps),
        "max_monotone_violation": max(
            max(o.monotone_violation_super, o.monotone_violation_sub) for o in orbits
        ),
        "max_start_agreement": max(o.start_agreement for o in orbits),
        "min_interior_value": min(o.interior_min for o in orbits),
        "local_rate": local_rate,
    }
    return ConvergenceReport(("delta", "sup_gap", "h2_delta_lambda", "h2_delta_ok"), rows, meta)
