"""Positive time-periodic states of saturating (KPP-type) growth equations.

The equation is ``u_t = (dispersal) u + u f(t, x, u)`` with ``f`` strictly
decreasing in ``u`` and eventually negative — logistic-type growth.  When
the linearization at zero has positive principal growth rate, the unique
positive periodic state is found by iterating the nonlinear period map from
a constant super-solution downward and from a small positive sub-solution
upward; the two ordered iterations bracket the state and their agreement is
a built-in uniqueness check.  The two brackets advance together as the two
rows of one array, so each step makes one batched call where the two
iterations would make two; a bracket that has converged is frozen while
the other goes on, and iteration counts, order-breach records and errors
are those of running the super bracket first and the sub bracket after.

Each time step treats dispersal by backward Euler and the reaction by a
Heun predictor-corrector.  The backward-Euler resolvent has entrywise
nonnegative inverse for every step size, so the ordered iterations stay
ordered numerically no matter how stiff the dispersal rate is; the
first-order dispersal bias is shared by the nonlocal run and its local
reference and cancels from their comparison.  The step is the backward
Euler step of :class:`dispersal.evolution.LinearStep`; on periodic closures
it costs four transforms for both rows together: each right-hand side is
formed in real space and transformed, each solution transformed back, and
the warm-start tests use the spectra the step carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
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
from .evolution import LinearStep, _uniform_snapshot_steps, linear_step, whole_steps
from .grids import Field, sup_distance
from .kernels import KernelProfile
from .operators import BoundaryCondition, DispersalOperator, sweep_operators
from .reports import ConvergenceReport, empirical_orders
from .spectral import PeriodMap, default_start, principal_value

#: Sup-norm floor below which a positive-orbit iteration is declared collapsed.
COLLAPSE_FLOOR = 1e-13


@dataclass(frozen=True)
class GrowthTerm:
    """Per-capita growth ``f(t, x, u)`` with its linearization at zero."""

    evaluate: object
    partial_u: object
    linearization_at_zero: TimePeriodicCoefficient
    period: float
    description: str


def logistic_growth(a: TimePeriodicCoefficient) -> GrowthTerm:
    """``f = a(t, x) - u``: carrying level ``a``, unit crowding strength."""
    return GrowthTerm(
        evaluate=lambda t, coords, u: a.evaluate(t, coords) - u,
        partial_u=lambda t, coords, u: -np.ones_like(u),
        linearization_at_zero=a,
        period=a.period,
        description=f"logistic({a.description})",
    )


def parse_growth(text: str, period: float) -> GrowthTerm:
    name, inner = split_call(text)
    if name != "logistic":
        raise ValidationError(f"unknown growth {name!r}; catalog: logistic(a)")
    return logistic_growth(parse_coefficient(inner, period))


@dataclass
class KPPProblem:
    """One saturating-growth problem: operator, growth law, and step size."""

    operator: DispersalOperator
    growth: GrowthTerm
    dt: float
    steps_per_period: int = dataclass_field(init=False)

    def __post_init__(self):
        self.steps_per_period = whole_steps(self.growth.period, self.dt)

    @property
    def period(self) -> float:
        return self.growth.period

    @cached_property
    def _step(self) -> LinearStep:
        return linear_step(self.operator, self.dt)

    def _rate(self, t: float, u: np.ndarray) -> np.ndarray:
        return u * self.growth.evaluate(t, self.operator.grid.coordinates, u)

    def one_period(self, rows: np.ndarray, marks: Sequence[int] = ()):
        """Advance ``rows``, shape ``(rows, num_nodes)``, by one period.

        Returns the advanced rows and a copy of row 0 taken before each
        step index in ``marks``.  Each step's companion (the rows' spectrum
        on periodic closures) is carried to the next step.
        """
        taken, companion = [], None
        for k in range(self.steps_per_period):
            if k in marks:
                taken.append(rows[0].copy())
            rows, companion = self._step.imex_step(
                k * self.dt, rows, self._rate, companion, trapezoid=False
            )
        return rows, taken


def validate_saturation(problem: KPPProblem, time_samples: int = 64) -> float:
    """Find the smallest doubling constant that the growth cannot sustain.

    Checks ``f(t, x, M) < 0`` on a time-node lattice for ``M`` in
    ``1, 2, 4, ...`` and, on the winning ``M``, that ``f`` is strictly
    decreasing in ``u`` on ``[0, M]``.  Returns ``M``.
    """
    grid = problem.operator.grid
    coords = grid.coordinates
    keep = ~grid.ghost_mask
    times = np.linspace(0.0, problem.period, time_samples, endpoint=False)
    growth = problem.growth
    level = 1.0
    for _ in range(40):
        ceiling = np.full(grid.num_nodes, level)
        if all(
            float(np.max(growth.evaluate(float(t), coords, ceiling)[keep])) < 0.0 for t in times
        ):
            for u_level in np.linspace(0.0, level, 9):
                sample = np.full(grid.num_nodes, float(u_level))
                for t in times:
                    slope = growth.partial_u(float(t), coords, sample)[keep]
                    if float(np.max(slope)) >= 0.0:
                        raise ValidationError(
                            "growth must be strictly decreasing in u on [0, saturation]"
                        )
            return level
        level *= 2.0
    raise ValidationError("growth does not saturate: f(t, x, M) >= 0 up to M = 2**40")


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


def verify_invasion_condition(problem: KPPProblem, tol: float = 1e-9) -> tuple[bool, float]:
    """Growth rate of the linearization at zero, and whether it is positive."""
    period_map = PeriodMap(problem.operator, problem.growth.linearization_at_zero, problem.dt)
    value = principal_value(period_map, tol=tol).value
    return bool(value > 0.0), value


def _small_positive_start(op: DispersalOperator, eps: float) -> np.ndarray:
    if op.bc is BoundaryCondition.DIRICHLET:
        start = default_start(op)  # interior sine bump, zero on pinned nodes
        return eps * start.values
    return np.full(op.grid.num_nodes, eps)


def _bracket(
    problem: KPPProblem, starts: np.ndarray, tol: float, max_periods: int
) -> tuple[np.ndarray, list[int], list[float]]:
    """Iterate the super bracket (row 0) and the sub bracket (row 1) together.

    Each row is the serial iteration of its own bracket: row 0 should not
    increase and row 1 should not decrease, and the worst breach of that
    order is recorded per row.  A row stops once a period moves it by less
    than ``tol`` (converged) or leaves it below :data:`COLLAPSE_FLOOR`
    (collapsed); only the rows still active are stepped.  A failure of the
    super bracket is raised at once; one of the sub bracket is raised only
    after the super bracket has converged, so the errors come out as if
    the super bracket ran first.
    """
    rows = starts.copy()
    iterations = [0, 0]
    worst = [0.0, 0.0]
    failures: list[Exception | None] = [None, None]
    active = [0, 1]
    for iteration in range(1, max_periods + 1):
        u = rows[active]
        image, _ = problem.one_period(u)
        for before, after, row in zip(u, image, list(active)):
            breach = float(np.max(after - before)) if row == 0 else float(np.max(before - after))
            worst[row] = max(worst[row], breach)
            gap = float(np.max(np.abs(after - before)))
            rows[row] = after
            if float(np.max(np.abs(after))) < COLLAPSE_FLOOR:
                failures[row] = CollapsedToZeroError(
                    f"orbit iteration collapsed to zero after {iteration} periods "
                    "(the zero state is the only nonnegative periodic state here)"
                )
            elif gap < tol:
                iterations[row] = iteration
            else:
                continue
            active.remove(row)
        if failures[0] is not None or not active:
            break
    for row in active:
        failures[row] = NoConvergenceError(
            f"period-map iteration did not reach tol={tol!r} within {max_periods} periods"
        )
    for failure in failures:
        if failure is not None:
            raise failure
    return rows, iterations, worst


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
    level = validate_saturation(problem)
    op = problem.operator
    starts = np.stack([np.full(op.grid.num_nodes, level), _small_positive_start(op, eps=1e-3)])
    starts[:, op.constrained] = 0.0
    (upper, lower), (super_iters, sub_iters), (viol_super, viol_sub) = _bracket(
        problem, starts, tol, max_periods
    )
    agreement = float(np.max(np.abs(upper - lower)))
    if agreement > 10.0 * tol:
        raise NumericsError(
            f"ordered-start limits disagree by {agreement:.3e} (> 10 * tol = {10 * tol:.1e}); "
            "the periodic state is not uniquely resolved at this tolerance"
        )
    (wrapped,), raw_states = problem.one_period(upper.reshape(1, -1), marks)
    times = tuple(k * problem.dt for k in marks)
    residual = float(np.max(np.abs(wrapped - upper)))
    grid = op.grid
    interior = ~op.constrained
    interior_min = min(float(np.min(s[interior])) for s in raw_states)
    states = tuple(Field(grid, s, t) for t, s in zip(times, raw_states))
    return PeriodicOrbit(
        times=times,
        states=states,
        residual=residual,
        saturation_bound=level,
        super_iterations=super_iters,
        sub_iterations=sub_iters,
        monotone_violation_super=viol_super,
        monotone_violation_sub=viol_sub,
        start_agreement=agreement,
        interior_min=interior_min,
    )


def advance_periods(problem: KPPProblem, values: np.ndarray, periods: int) -> np.ndarray:
    """Apply the nonlinear period map ``periods`` times (stability probes)."""
    u = np.array(values, dtype=float).reshape(1, -1)
    for _ in range(periods):
        u = problem.one_period(u)[0]
    return u[0]


def orbit_convergence_experiment(
    domain,
    bc: BoundaryCondition,
    growth: GrowthTerm,
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
    local_problem = KPPProblem(local_op, growth, dt)
    local_ok, local_rate = verify_invasion_condition(local_problem)
    if not local_ok:
        raise NumericsError(
            f"local linearized growth rate {local_rate!r} is not positive; "
            "no positive periodic reference state exists"
        )
    reference = positive_periodic_solution(
        local_problem, tol=tol, snapshots_per_period=snapshots_per_period
    )

    def one_delta(op: DispersalOperator):
        problem = KPPProblem(op, growth, dt)
        ok, rate = verify_invasion_condition(problem)
        if not ok:
            return (op.delta, nan, rate, False, None)
        orbit = positive_periodic_solution(
            problem, tol=tol, snapshots_per_period=snapshots_per_period
        )
        gap = max(
            sup_distance(a, b) for a, b in zip(orbit.states, reference.states)
        )
        return (op.delta, gap, rate, True, orbit)

    results = list(map(one_delta, nonlocal_ops))

    rows = [(d, gap, rate, ok) for d, gap, rate, ok, _ in results]
    orbits = [orbit for *_, orbit in results if orbit is not None] + [reference]
    gaps = [gap for _, gap, *_ in rows]
    meta = {
        "bc": local_op.bc.value,
        "h": h,
        "dt": dt,
        "growth": growth.description,
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
