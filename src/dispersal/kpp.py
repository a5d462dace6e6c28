"""Positive time-periodic states of saturating (KPP-type) growth equations.

The equation is ``u_t = (dispersal) u + u f(t, x, u)`` with ``f`` strictly
decreasing in ``u`` and eventually negative — logistic-type growth.  When
the linearization at zero has positive principal growth rate, the unique
positive periodic state is found by iterating the nonlinear period map from
a constant super-solution downward and from a small positive sub-solution
upward; the two ordered iterations bracket the state and their agreement is
a built-in uniqueness check.

Each time step treats dispersal by backward Euler and the reaction by a
Heun predictor-corrector.  The backward-Euler resolvent has entrywise
nonnegative inverse for every step size, so the ordered iterations stay
ordered numerically no matter how stiff the dispersal rate is; the
first-order dispersal bias is shared by the nonlocal run and its local
reference and cancels from their comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .evolution import implicit_solver
from .grids import Field, build_grid, field_from_function, same_grid, sup_distance
from .kernels import KernelProfile
from .operators import (
    BOX,
    BoundaryCondition,
    DispersalOperator,
    assemble_local,
    assemble_nonlocal,
)
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

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        steps = self.growth.period / self.dt
        if abs(steps - round(steps)) > 1e-6 or round(steps) < 1:
            raise ValidationError(
                f"dt={self.dt!r} does not divide the period {self.growth.period!r} into whole steps"
            )

    @property
    def period(self) -> float:
        return self.growth.period

    @property
    def steps_per_period(self) -> int:
        return int(round(self.growth.period / self.dt))


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


class _PeriodStepper:
    """Nonlinear one-period map with backward-Euler dispersal and Heun reaction."""

    def __init__(self, problem: KPPProblem):
        self.problem = problem
        self.solver = implicit_solver(problem.operator, problem.dt)
        self.coords = problem.operator.grid.coordinates
        self.cm = problem.operator.constrained

    def _rate(self, t: float, u: np.ndarray) -> np.ndarray:
        return u * self.problem.growth.evaluate(t, self.coords, u)

    def step(self, t: float, u: np.ndarray) -> np.ndarray:
        dt, cm = self.problem.dt, self.cm
        fn = self._rate(t, u)
        b = u + dt * fn
        if cm is not None:
            b[cm] = 0.0
        predictor = self.solver(b, u)
        if cm is not None:
            predictor[cm] = 0.0
        b = u + (dt / 2.0) * (fn + self._rate(t + dt, predictor))
        if cm is not None:
            b[cm] = 0.0
        out = self.solver(b, predictor)
        if cm is not None:
            out[cm] = 0.0
        return out

    def one_period(self, u: np.ndarray) -> np.ndarray:
        for k in range(self.problem.steps_per_period):
            u = self.step(k * self.problem.dt, u)
        return u

    def period_with_snapshots(self, u: np.ndarray, count: int):
        steps = self.problem.steps_per_period
        if steps % count != 0:
            raise ValidationError(
                f"snapshot count {count} must divide the {steps} steps per period"
            )
        stride = steps // count
        times, states = [0.0], [u.copy()]
        for k in range(steps):
            u = self.step(k * self.problem.dt, u)
            if (k + 1) % stride == 0 and k + 1 < steps:
                times.append((k + 1) * self.problem.dt)
                states.append(u.copy())
        return times, states, u


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


def _iterate_monotone(
    stepper: _PeriodStepper,
    u: np.ndarray,
    expect: str,
    tol: float,
    max_periods: int,
) -> tuple[np.ndarray, int, float]:
    worst = 0.0
    for iteration in range(1, max_periods + 1):
        image = stepper.one_period(u.copy())
        if expect == "nonincreasing":
            breach = float(np.max(image - u))
        else:
            breach = float(np.max(u - image))
        worst = max(worst, breach)
        gap = float(np.max(np.abs(image - u)))
        u = image
        if float(np.max(np.abs(u))) < COLLAPSE_FLOOR:
            raise CollapsedToZeroError(
                f"orbit iteration collapsed to zero after {iteration} periods "
                "(the zero state is the only nonnegative periodic state here)"
            )
        if gap < tol:
            return u, iteration, worst
    raise NoConvergenceError(
        f"period-map iteration did not reach tol={tol!r} within {max_periods} periods"
    )


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
    stepper = _PeriodStepper(problem)
    level = validate_saturation(problem)
    op = problem.operator
    upper = np.full(op.grid.num_nodes, level)
    if op.constrained is not None:
        upper[op.constrained] = 0.0
    upper, super_iters, viol_super = _iterate_monotone(
        stepper, upper, "nonincreasing", tol, max_periods
    )
    lower = _small_positive_start(op, eps=1e-3)
    lower, sub_iters, viol_sub = _iterate_monotone(
        stepper, lower, "nondecreasing", tol, max_periods
    )
    agreement = float(np.max(np.abs(upper - lower)))
    if agreement > 10.0 * tol:
        raise NumericsError(
            f"ordered-start limits disagree by {agreement:.3e} (> 10 * tol = {10 * tol:.1e}); "
            "the periodic state is not uniquely resolved at this tolerance"
        )
    times, raw_states, wrapped = stepper.period_with_snapshots(upper, snapshots_per_period)
    residual = float(np.max(np.abs(wrapped - upper)))
    grid = op.grid
    interior = ~grid.ghost_mask & ~op.constrained_mask()
    interior_min = min(float(np.min(s[interior])) for s in raw_states)
    states = tuple(Field(grid, s, t) for t, s in zip(times, raw_states))
    return PeriodicOrbit(
        times=tuple(times),
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
    stepper = _PeriodStepper(problem)
    u = np.array(values, dtype=float)
    for _ in range(periods):
        u = stepper.one_period(u)
    return u


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
    deltas = [float(d) for d in deltas]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValidationError("deltas must be positive")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValidationError(f"deltas must be strictly decreasing, got {deltas}")
    if h > min(deltas) / 8.0 + 1e-12:
        raise ValidationError(
            f"h must satisfy h <= min(deltas)/8: h={h!r}, min(deltas)/8={min(deltas) / 8.0!r}"
        )
    bc = BoundaryCondition(bc)
    ghost = max(deltas) if bc is BoundaryCondition.DIRICHLET else 0.0
    grid = build_grid(domain, h, ghost_width=ghost)

    local_problem = KPPProblem(assemble_local(grid, bc), growth, dt)
    local_ok, local_rate = verify_invasion_condition(local_problem)
    if not local_ok:
        raise NumericsError(
            f"local linearized growth rate {local_rate!r} is not positive; "
            "no positive periodic reference state exists"
        )
    reference = positive_periodic_solution(
        local_problem, tol=tol, snapshots_per_period=snapshots_per_period
    )

    def one_delta(delta: float):
        op = assemble_nonlocal(grid, profile, delta, bc)
        problem = KPPProblem(op, growth, dt)
        ok, rate = verify_invasion_condition(problem)
        if not ok:
            return (delta, nan, rate, False, None)
        orbit = positive_periodic_solution(
            problem, tol=tol, snapshots_per_period=snapshots_per_period
        )
        gap = max(
            sup_distance(a, b) for a, b in zip(orbit.states, reference.states)
        )
        return (delta, gap, rate, True, orbit)

    results = [one_delta(d) for d in deltas]

    rows = [(d, gap, rate, ok) for d, gap, rate, ok, _ in results]
    orbits = [orbit for *_, orbit in results if orbit is not None] + [reference]
    gaps = [gap for _, gap, *_ in rows]
    meta = {
        "bc": bc.value,
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
